package fs

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/fs/jfs"
	"ironfs/internal/sched"
	"ironfs/internal/vfs"
)

// Recovery is tested here on the stack every fs.MountVolume volume, bench
// and serve run it on — a depth-32 scheduler over the disk — and not on the
// bare disk at queue depth 1 that fstest.Explore, ironhunt and the per-FS
// crash sweeps grade it on: under the scheduler a replay's writes queue,
// coalesce and reorder between its barriers, and a read of a queued block
// drains the queue.
const (
	replayBlocks  = 4096
	replayDepth   = 32
	replayClients = 24
	replayFiles   = 8 // per client
)

func replaySched(dev disk.Device) *sched.Scheduler {
	return sched.New(dev, sched.Config{QueueDepth: replayDepth, Policy: sched.PolicyAdaptive})
}

type churnOp struct {
	verb string // mkdir, create, write, fsync, unlink
	path string
	data []byte
}

// churnStreams is the op streams of replayClients clients, each in a
// directory of its own: create a file, write one to three blocks, fsync one
// in ten, unlink the oldest once four are live. Each client's first file is
// past every file system's direct pointers and comes before the first
// unlink, so its pointer block lands on a block nothing has used (jfs's
// stale-pointer-block defect, ROADMAP item 5(f), stays out of these tests).
func churnStreams(seed int64) [][]churnOp {
	rng := rand.New(rand.NewSource(seed))
	payload := func(blocks int) []byte {
		b := make([]byte, blocks*txnBlock)
		rng.Read(b)
		return b
	}
	streams := make([][]churnOp, replayClients)
	for c := range streams {
		dir := fmt.Sprintf("/c%d", c)
		ops := []churnOp{
			{verb: "mkdir", path: dir},
			{verb: "create", path: dir + "/big"},
			{verb: "write", path: dir + "/big", data: payload(13 + rng.Intn(4))},
			{verb: "fsync", path: dir + "/big"},
		}
		var live []string
		for i := 0; i < replayFiles; i++ {
			p := fmt.Sprintf("%s/f%d", dir, i)
			ops = append(ops, churnOp{verb: "create", path: p},
				churnOp{verb: "write", path: p, data: payload(1 + rng.Intn(3))})
			if rng.Intn(10) == 0 {
				ops = append(ops, churnOp{verb: "fsync", path: p})
			}
			if live = append(live, p); len(live) > 4 {
				ops = append(ops, churnOp{verb: "unlink", path: live[0]})
				live = live[1:]
			}
		}
		streams[c] = ops
	}
	return streams
}

// undoDisk is a disk that knows which blocks have been written since it
// held image, so that putting the image back costs a copy per block written
// and not one of the whole volume: the tests below do it hundreds of times.
type undoDisk struct {
	*disk.Disk
	image []byte
	dirty map[int64]bool
}

// newUndoDisk returns a disk holding image.
func newUndoDisk(t *testing.T, image []byte) *undoDisk {
	t.Helper()
	d, err := disk.New(int64(len(image)/txnBlock), disk.DefaultGeometry(), disk.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Restore(image); err != nil {
		t.Fatal(err)
	}
	return &undoDisk{Disk: d, image: image, dirty: map[int64]bool{}}
}

// formattedDisk returns a freshly formatted volume of the named file system.
func formattedDisk(t *testing.T, name string) *undoDisk {
	t.Helper()
	u := newUndoDisk(t, make([]byte, replayBlocks*txnBlock))
	if err := Mkfs(name, u.Disk, txnOptions(name)); err != nil {
		t.Fatal(err)
	}
	u.image = u.Snapshot()
	return u
}

func (u *undoDisk) WriteBlock(n int64, buf []byte) error {
	u.dirty[n] = true
	return u.Disk.WriteBlock(n, buf)
}

func (u *undoDisk) WriteBatch(reqs []disk.Request) error {
	for _, r := range reqs {
		u.dirty[r.Block] = true
	}
	return u.Disk.WriteBatch(reqs)
}

func (u *undoDisk) rewind(t *testing.T) {
	t.Helper()
	for n := range u.dirty {
		if err := u.Disk.WriteBlock(n, u.image[n*txnBlock:][:txnBlock]); err != nil {
			t.Fatal(err)
		}
	}
	clear(u.dirty)
}

// crashChurn mounts what is on d through d → CrashDevice(cut) → scheduler
// and runs the streams in lockstep until they end or the device is cut (a
// negative cut never is). It returns the files the media then owes — those
// whose Fsync was acknowledged before the cut and that no op issued since
// has unlinked — and the number of device writes that reached it.
func crashChurn(t *testing.T, name string, d disk.Device, streams [][]churnOp, cut int64) (map[string][]byte, int64) {
	t.Helper()
	dev := faultinject.NewCrashDevice(d, cut)
	fsys, err := Mount(name, replaySched(dev), txnOptions(name))
	if err != nil && !dev.Crashed() {
		t.Fatalf("mount before the churn: %v", err)
	}
	written, acked := map[string][]byte{}, map[string][]byte{}
	for i, more := 0, true; more && !dev.Crashed(); i++ {
		more = false
		for _, ops := range streams {
			if i >= len(ops) || dev.Crashed() {
				continue
			}
			more = true
			o := ops[i]
			var err error
			switch o.verb {
			case "mkdir":
				err = fsys.Mkdir(o.path, 0o755)
			case "create":
				err = fsys.Create(o.path, 0o644)
			case "write":
				_, err = fsys.Write(o.path, 0, o.data)
				written[o.path] = o.data
			case "fsync":
				// The cut may land inside the fsync: only one that returned
				// with the device still whole was acknowledged.
				if err = fsys.Fsync(o.path); err == nil && !dev.Crashed() {
					acked[o.path] = written[o.path]
				}
			case "unlink":
				delete(acked, o.path)
				err = fsys.Unlink(o.path)
			}
			if err != nil && !dev.Crashed() {
				t.Fatalf("%s %s: %v", o.verb, o.path, err)
			}
		}
	}
	return acked, dev.Written()
}

// recovery is one mount of a crashed volume on the scheduler stack,
// followed by a Sync and a scheduler barrier so that everything it queued
// has been offered to the device.
type recovery struct {
	fs       vfs.FileSystem // nil when the mount failed
	mountErr error
	writes   int64 // device writes that reached the media
}

// recoverDisk mounts what is on d through d → CrashDevice(cut) → scheduler;
// a negative cut lets the recovery run whole.
func recoverDisk(t *testing.T, name string, d disk.Device, cut int64) recovery {
	t.Helper()
	dev := faultinject.NewCrashDevice(d, cut)
	s := replaySched(dev)
	var r recovery
	r.fs, r.mountErr = Mount(name, s, txnOptions(name))
	if r.mountErr == nil {
		err := r.fs.Sync()
		if berr := s.Barrier(); err == nil {
			err = berr
		}
		if err != nil && !dev.Crashed() {
			t.Fatalf("sync after recovery: %v", err)
		}
	} else if !dev.Crashed() {
		t.Fatalf("recovery mount: %v", r.mountErr)
	}
	r.writes = dev.Written()
	return r
}

// namespace lists every path under the root with its type and size.
func namespace(t *testing.T, fsys vfs.FileSystem) []string {
	t.Helper()
	var out []string
	var walk func(dir string)
	walk = func(dir string) {
		ents, err := fsys.ReadDir(dir)
		if err != nil {
			t.Fatalf("readdir %s: %v", dir, err)
		}
		for _, e := range ents {
			if e.Name == "." || e.Name == ".." {
				continue
			}
			p := dir + "/" + e.Name
			if dir == "/" {
				p = "/" + e.Name
			}
			fi, err := fsys.Lstat(p)
			if err != nil {
				t.Fatalf("lstat %s: %v", p, err)
			}
			out = append(out, fmt.Sprintf("%s %v %d", p, fi.Type, fi.Size))
			if e.Type == vfs.TypeDirectory {
				walk(p)
			}
		}
	}
	walk("/")
	slices.Sort(out)
	return out
}

// typedMountError reports whether a mount over a cut device failed the way
// a file system may fail: with one of the vfs errors, not a bare device
// error.
func typedMountError(err error) bool {
	for _, typed := range []error{vfs.ErrIO, vfs.ErrCorrupt, vfs.ErrPanicked, vfs.ErrReadOnly} {
		if errors.Is(err, typed) {
			return true
		}
	}
	return false
}

// crashDuringReplayConverges is TestJournalConformance's row for a second
// crash, landing inside recovery. For three crashed images of one churn —
// the earliest cut that leaves something to replay, a middle one, and the
// one whose recovery writes the most — it learns the number W of device
// writes an uninterrupted recovery makes, then cuts a recovery of the same
// image after each k of 1..W writes and recovers what that leaves on an
// uncut stack. A redo log promises that every such pair ends where the
// uninterrupted recovery did.
//
// A cut after k writes leaves the first k the scheduler dispatched, and on
// a fresh scheduler that order is close to the order they were issued in:
// it cannot show that an ordering barrier is missing. So for the largest
// image the row also loses, in turn, each single write of the recovery
// while every other write of its barrier epoch lands — an order a drive's
// write cache is free to choose — and requires the same.
func crashDuringReplayConverges(t *testing.T, name string) {
	work := formattedDisk(t, name)
	streams := churnStreams(0x1207)
	_, total := crashChurn(t, name, work, streams, -1)
	// A mount with nothing to replay makes idle device writes: what a
	// second mount of the volume the whole churn left makes.
	recoverDisk(t, name, work, -1)
	idle := recoverDisk(t, name, work, -1).writes

	// The candidates are the midpoints of sixteen equal strata of the
	// churn's writes (how much a mount must replay is a sawtooth in the
	// cut), less those that left nothing to replay.
	type candidate struct{ cut, writes int64 }
	const strata = 16
	var cands []candidate
	for k := int64(0); k < strata; k++ {
		cut := total * (2*k + 1) / (2 * strata)
		work.rewind(t)
		crashChurn(t, name, work, streams, cut)
		if w := recoverDisk(t, name, work, -1).writes; w > idle {
			cands = append(cands, candidate{cut, w})
		}
	}
	if len(cands) < 3 {
		t.Fatalf("%d of %d cuts of the churn left something to replay; want at least three", len(cands), strata)
	}
	largest := slices.MaxFunc(cands, func(a, b candidate) int { return int(a.writes - b.writes) })
	picks := []candidate{cands[0], cands[len(cands)/2], largest}
	slices.SortFunc(picks, func(a, b candidate) int { return int(a.cut - b.cut) })

	for _, pick := range slices.Compact(picks) {
		work.rewind(t)
		acked, _ := crashChurn(t, name, work, streams, pick.cut)
		d := newUndoDisk(t, work.Snapshot())
		want := namespace(t, recoverDisk(t, name, d, -1).fs)

		// converges recovers what an interrupted recovery left on d; each
		// mount is a fresh stack over what the one before it left there.
		converges := func(when string) bool {
			second := recoverDisk(t, name, d, -1)
			checkFiles(t, when, second.fs, acked, true)
			if got := namespace(t, second.fs); !slices.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Errorf("%s: the second recovery lists %d paths, the uninterrupted one %d; first difference %q, want %q",
					when, len(got), len(want), append(got, "")[i], append(want, "")[i])
			}
			if third := recoverDisk(t, name, d, -1); third.writes != idle {
				t.Errorf("%s: a third mount makes %d device writes, %d with nothing to replay: the second recovery left work in the log",
					when, third.writes, idle)
			}
			if err := Check(name, d, txnOptions(name)); err != nil {
				t.Errorf("%s: after the second recovery: %v", when, err)
			}
			return !t.Failed()
		}

		for k := int64(1); k <= pick.writes; k++ {
			when := fmt.Sprintf("churn cut at write %d, recovery cut at write %d of %d", pick.cut, k, pick.writes)
			d.rewind(t)
			first := recoverDisk(t, name, d, k)
			if first.mountErr != nil && !typedMountError(first.mountErr) {
				t.Errorf("%s: mount over the cut device: %v, want a vfs error", when, first.mountErr)
			}
			if !converges(when) {
				return
			}
		}
		t.Logf("churn cut at write %d of %d: recovery makes %d device writes, and converges cut after any of them", pick.cut, total, pick.writes)
		if pick != largest {
			continue
		}

		// The write cache holds what the recovery writes, with the barrier
		// epoch of each write, and lets none of it through to d.
		d.rewind(t)
		cache := faultinject.NewCacheDevice(d)
		recoverDisk(t, name, cache, -1)
		log := cache.Log()
		for i, lost := range log {
			d.rewind(t)
			for j, w := range log {
				if w.Epoch < lost.Epoch || w.Epoch == lost.Epoch && j != i {
					if err := d.WriteBlock(w.Block, w.Data); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !converges(fmt.Sprintf("churn cut at write %d, recovery losing write %d (block %d) of barrier epoch %d", pick.cut, i, lost.Block, lost.Epoch)) {
				return
			}
		}
		t.Logf("churn cut at write %d of %d: and converges with any one write of a barrier epoch lost", pick.cut, total)
	}
}

// ioTally sits between a file system and its scheduler and notes every
// block the file system reads and writes, in the order it asks.
type ioTally struct {
	disk.Device
	ios []tallied
}

type tallied struct {
	write bool
	block int64
}

func (d *ioTally) ReadBlock(n int64, buf []byte) error {
	d.ios = append(d.ios, tallied{false, n})
	return d.Device.ReadBlock(n, buf)
}

func (d *ioTally) WriteBlock(n int64, buf []byte) error {
	d.ios = append(d.ios, tallied{true, n})
	return d.Device.WriteBlock(n, buf)
}

func (d *ioTally) WriteBatch(reqs []disk.Request) error {
	for _, r := range reqs {
		d.ios = append(d.ios, tallied{true, r.Block})
	}
	return d.Device.WriteBatch(reqs)
}

// TestReplayIOBudget pins what a recovery costs the device: for one crashed
// image per file system — the seeded churn above, cut where the log holds
// the most — the exact device and scheduler traffic of a mount, Sync and
// barrier on disk → scheduler. The traffic is a function of the image, so
// it repeats exactly; a replay that slides back to reading and writing a
// home block once per log record fails here, not in a benchmark someone
// has to read.
func TestReplayIOBudget(t *testing.T) {
	type cost struct{ reads, writes, barriers, batches, readFlushes int64 }
	budget := map[string]struct {
		cut int64
		cost
	}{
		"ext3":     {613, cost{reads: 111, writes: 93, barriers: 2, batches: 38}},
		"reiserfs": {618, cost{reads: 16, writes: 12, barriers: 2, batches: 12}},
		"jfs":      {618, cost{reads: 46, writes: 35, barriers: 2, batches: 6}},
		"ntfs":     {1170, cost{reads: 53, writes: 50, barriers: 2, batches: 19}},
		"ixt3":     {1367, cost{reads: 121, writes: 112, barriers: 2, batches: 97}},
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			want := budget[name]
			d := formattedDisk(t, name)
			crashChurn(t, name, d, churnStreams(0x1207), want.cut)

			raw := d.Disk
			before := raw.Stats()
			s := replaySched(raw)
			tally := &ioTally{Device: s}
			fsys, err := Mount(name, tally, txnOptions(name))
			if err != nil {
				t.Fatal(err)
			}
			if err := fsys.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := s.Barrier(); err != nil {
				t.Fatal(err)
			}
			ds, ss := raw.Stats().Sub(before), s.Stats()
			if got := (cost{ds.Reads, ds.Writes, ds.Barriers, ss.Batches, ss.ReadFlushes}); got != want.cost {
				t.Errorf("recovery of the churn cut at write %d cost %+v, budget %+v", want.cut, got, want.cost)
			}

			if name != "jfs" {
				return
			}
			// The structural form, for the replay that patches sub-block
			// records: between its first read of the log and its write of
			// the log superblock, JFS reads each home block the committed
			// records name once, and writes each once.
			resolver, err := NewResolver(name, raw)
			if err != nil {
				t.Fatal(err)
			}
			inLog := func(b int64) bool {
				bt := resolver.Classify(b)
				return bt == jfs.BTJSuper || bt == jfs.BTJData
			}
			first := slices.IndexFunc(tally.ios, func(io tallied) bool { return inLog(io.block) })
			last := slices.IndexFunc(tally.ios, func(io tallied) bool { return io.write && inLog(io.block) })
			if first < 0 || last < first {
				t.Fatalf("no replay in the mount's I/O: first log read at %d, log superblock write at %d", first, last)
			}
			var homeReads, homeWrites int
			homes := map[int64]bool{}
			for _, io := range tally.ios[first:last] {
				switch {
				case inLog(io.block):
				case io.write:
					homeWrites++
					homes[io.block] = true
				default:
					homeReads++
				}
			}
			if len(homes) < 16 || homeReads != len(homes) || homeWrites != len(homes) {
				t.Errorf("replay made %d home reads and %d home writes over %d distinct home blocks; want one of each per block, and a log that names at least 16",
					homeReads, homeWrites, len(homes))
			}
			if ss.ReadFlushes != 0 {
				t.Errorf("replay forced %d read flushes: it read a block whose write was still queued", ss.ReadFlushes)
			}
		})
	}
}
