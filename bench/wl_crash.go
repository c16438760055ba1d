package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"ironfs/internal/disk"
	"ironfs/internal/fs"
	"ironfs/internal/sched"
	"ironfs/internal/stat"
	"ironfs/internal/vfs"
)

// crash_recover shape: per file system, a baseline of crashDirs x
// crashFilesPerDir files laid down and made durable, then (a) a meta_churn
// run photographed at crashCuts points, each the image a crash there would
// leave, and (b) the clean baseline with flipped allocation-bitmap bits.
const (
	crashDirs        = 8
	crashFilesPerDir = 8
	crashMeanBlocks  = 8 // file sizes are drawn from 6..10 blocks
	// The churn runs 32 clients, not 64: 72 baseline records plus 64 client
	// directories and their live windows would overflow ntfs's 256-record
	// MFT.
	crashClients    = 32
	crashChurnFiles = 8
	crashBitFlips   = 32
	// crashCuts crash images per file system. How much journal a mount
	// must replay is a sawtooth in the cut index (jfs: 33 ms to 3 s), so
	// one cut would report mostly where it happened to land.
	crashCuts = 16
	// crashBlocks sizes this workload's volumes (16 MiB): with this many
	// images per file system the default arena would not fit in memory.
	crashBlocks = 4096
)

// crashOptions is mountOptions with ixt3's metadata checksums off. With Mc
// on, this workload is not one "on which no operation fails": after a crash
// at most cut points of the churn, ixt3 finds inode-table blocks that no
// longer match their checksums (nor, with Mr, their replicas), returns EIO
// for files made durable long before the crash and remounts read-only, or
// refuses the mount as corrupt. README.md records the reproducer; the fix
// belongs to the file system, not to the benchmark.
func crashOptions(name string) fs.Options {
	o := mountOptions(name)
	o.Mc = false
	return o
}

// crashedImage is the media as a crash after some number of device writes
// leaves it, with the oracle for it.
type crashedImage struct {
	image []byte
	// acked maps each file whose Fsync was acknowledged before the cut,
	// and that no later op unlinked, to the content it must still have.
	acked map[string][]byte
}

type crashImages struct {
	crashed []crashedImage
	damaged []byte // cleanly unmounted, bitmaps damaged
}

type crashWorkload struct {
	names    []string
	baseline fileSet
	images   map[string]*crashImages
}

func setupCrashRecover(seed int64, quick bool) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &crashWorkload{names: fsNames, images: map[string]*crashImages{}}
	var dirs []string
	for d := 0; d < crashDirs; d++ {
		dir := fmt.Sprintf("/d%d", d)
		dirs = append(dirs, dir)
		for f := 0; f < size(quick, crashFilesPerDir, 2); f++ {
			data := make([]byte, (crashMeanBlocks-2+rng.Intn(5))*blockSize)
			fillBlock(rng, data)
			w.baseline.paths = append(w.baseline.paths, fmt.Sprintf("%s/f%d", dir, f))
			w.baseline.data = append(w.baseline.data, data)
		}
	}
	var clients []*client
	for id := 0; id < size(quick, crashClients, 8); id++ {
		clients = append(clients, &client{ops: churnOps(rng, id, crashChurnFiles)})
	}

	for _, name := range w.names {
		opts := crashOptions(name)
		clean, err := buildImage(towerSpec{fs: name, opts: &opts, blocks: crashBlocks}, func(t *tower) error {
			for _, d := range dirs {
				if err := t.fs.Mkdir(d, 0o755); err != nil {
					return err
				}
			}
			return w.baseline.populate(t)
		})
		if err != nil {
			return nil, err
		}
		img := &crashImages{}

		d, err := restoredDisk(clean)
		if err != nil {
			return nil, err
		}
		if n, err := fs.DamageBitmaps(name, d, crashBitFlips); err != nil || n == 0 {
			return nil, fmt.Errorf("%s: damage bitmaps: %d flips: %w", name, n, err)
		}
		img.damaged = d.Snapshot()

		// Run the churn once to count its device writes, then again,
		// photographing the media at the midpoint of each equal stratum of
		// them. The cuts are fixed shares, not seeded: the seed already
		// moves every file's size and bytes, and a seeded cut on top would
		// make the replay time a function of where the cut fell.
		total, _, err := crashChurn(name, clean, clients, nil)
		if err != nil {
			return nil, err
		}
		cuts := size(quick, crashCuts, 2)
		marks := make([]int64, cuts)
		for k := range marks {
			marks[k] = total * int64(2*k+1) / int64(2*cuts)
		}
		if _, img.crashed, err = crashChurn(name, clean, clients, marks); err != nil {
			return nil, err
		}
		w.images[name] = img
	}
	return w, nil
}

func restoredDisk(image []byte) (*disk.Disk, error) {
	d, err := disk.New(int64(len(image)/blockSize), disk.DefaultGeometry(), nil)
	if err != nil {
		return nil, err
	}
	return d, d.Restore(image)
}

// cutter is a pass-through over the raw disk that photographs the media
// each time the count of block writes reaches one of its marks, just before
// the next write lands: the image, byte for byte, that a
// faultinject.CrashDevice with that limit leaves (bench_test.go holds the
// two in step). One churn run yields every cut; a CrashDevice needs a run
// per cut. Like CrashDevice it lands a batch one block at a time.
type cutter struct {
	*disk.Disk
	written int64
	marks   []int64 // ascending
	shoot   func()
}

func (c *cutter) admit() {
	for len(c.marks) > 0 && c.written == c.marks[0] {
		c.shoot()
		c.marks = c.marks[1:]
	}
	c.written++
}

func (c *cutter) WriteBlock(n int64, buf []byte) error {
	c.admit()
	return c.Disk.WriteBlock(n, buf)
}

func (c *cutter) WriteBatch(reqs []disk.Request) error {
	for _, r := range reqs {
		c.admit()
		if err := c.Disk.WriteBlock(r.Block, r.Data); err != nil {
			return err
		}
	}
	return nil
}

// ackRecord tracks which files an acknowledged Fsync has made durable.
type ackRecord struct {
	written, acked map[string][]byte
}

func newAckRecord() *ackRecord {
	return &ackRecord{written: map[string][]byte{}, acked: map[string][]byte{}}
}

// issue runs before an op does. An unlink that has been issued may or may
// not survive a crash from here on, so its file is owed to no one.
func (a *ackRecord) issue(o *op) {
	if o.verb == vUnlink {
		delete(a.acked, o.path)
	}
}

// done runs after an op returned.
func (a *ackRecord) done(o *op, err error) {
	switch {
	case err != nil:
	case o.verb == vWrite:
		a.written[o.path] = o.data
	case o.verb == vFsync:
		a.acked[o.path] = a.written[o.path]
	}
}

func (a *ackRecord) snapshot() map[string][]byte {
	out := make(map[string][]byte, len(a.acked))
	for k, v := range a.acked {
		out[k] = v
	}
	return out
}

// roundRobin runs the clients' streams in lockstep — every client's first
// op, then every client's second — calling issue before each op and done
// with its outcome. The churn that builds the crash images uses this fixed
// order rather than virtual-time order so that what is in the journal at a
// given write index does not depend on how long the ops before it took.
func roundRobin(fsys vfs.FileSystem, clients []*client, issue func(*op), done func(*op, error)) {
	for i, more := 0, true; more; i++ {
		more = false
		for _, c := range clients {
			if i < len(c.ops) {
				more = true
				o := &c.ops[i]
				issue(o)
				done(o, o.exec(fsys, nil))
			}
		}
	}
}

// crashChurn mounts image over a cutter and runs the churn clients on it.
// It returns the device writes the churn made and one crashed image per
// mark.
func crashChurn(name string, image []byte, clients []*client, marks []int64) (int64, []crashedImage, error) {
	d, err := restoredDisk(image)
	if err != nil {
		return 0, nil, err
	}
	acks := newAckRecord()
	var shots []crashedImage
	cut := &cutter{Disk: d, marks: marks}
	cut.shoot = func() { shots = append(shots, crashedImage{d.Snapshot(), acks.snapshot()}) }
	s := sched.New(cut, sched.Config{QueueDepth: queueDepth, Policy: sched.PolicyAdaptive})
	opts := crashOptions(name)
	fsys, err := fs.New(name, s, opts, nil)
	if err != nil {
		return 0, nil, err
	}
	if err := fsys.Mount(); err != nil {
		return 0, nil, fmt.Errorf("%s: mount before the churn: %w", name, err)
	}
	var firstErr error
	roundRobin(fsys, clients, acks.issue, func(o *op, err error) {
		acks.done(o, err)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s %s: %w", verbNames[o.verb], o.path, err)
		}
	})
	if firstErr != nil {
		return 0, nil, fmt.Errorf("%s: churn: %w", name, firstErr)
	}
	if len(shots) != len(marks) {
		return 0, nil, fmt.Errorf("%s: churn made %d writes and passed %d of %d cuts", name, cut.written, len(shots), len(marks))
	}
	return cut.written, shots, nil
}

// crashStep is one recovery step of one volume: one op of this workload.
type crashStep struct {
	sim    disk.Duration
	hostNs int64
}

// timed runs f as one recovery step on t.
func timed(t *tower, f func() error) (crashStep, error) {
	sim, t0 := t.clk.Now(), time.Now()
	err := f()
	return crashStep{sim: t.clk.Now() - sim, hostNs: time.Since(t0).Nanoseconds()}, err
}

// verify reads back every file a crashed image owes its users — the
// baseline and every acknowledged, still-linked churn file — and reports
// each that is missing or differs.
func (w *crashWorkload) verify(t *tower, ci crashedImage, buf []byte, res *repResult) {
	check := func(path string, want []byte) {
		for off := 0; off < len(want); off += len(buf) {
			chunk := want[off:min(off+len(buf), len(want))]
			n, err := t.fs.Read(path, int64(off), buf[:len(chunk)])
			if err != nil || !bytes.Equal(buf[:n], chunk) {
				res.wrong++
				res.problem("%s: %s lost or changed across the crash (read error: %v)", t.name, path, err)
				return
			}
		}
	}
	for i, p := range w.baseline.paths {
		check(p, w.baseline.data[i])
	}
	// Map order does not matter to the verdict, but it would to the
	// simulated clock: visit the acknowledged files in path order.
	for _, p := range sortedKeys(ci.acked) {
		check(p, ci.acked[p])
	}
}

func (w *crashWorkload) rep(rec *spanRec) (*repResult, error) {
	reg := stat.NewRegistry()
	defer stat.SetDefault(stat.SetDefault(reg))
	res := newRepResult()
	counts := newLayerCounts()
	var lat []int64
	var replay, check, repair disk.Duration
	var hostReplay, hostCheck int64
	var problems, repaired int
	simBy := map[string]disk.Duration{}
	buf := make([]byte, populateChunk)

	for _, name := range w.names {
		img := w.images[name]
		opts := crashOptions(name)
		// Every stack is built before the clock starts, so the measured
		// phase holds the recovery steps and nothing else.
		build := func(image []byte) (*tower, error) {
			return buildTower(towerSpec{fs: name, opts: &opts, blocks: crashBlocks, image: image, noMount: true}, rec)
		}
		damaged, err := build(img.damaged)
		if err != nil {
			return nil, err
		}
		crashed := make([]*tower, len(img.crashed))
		for i, ci := range img.crashed {
			if crashed[i], err = build(ci.image); err != nil {
				return nil, err
			}
		}
		var steps []crashStep
		var found, fixed fs.FsckResult
		step := func(t *tower, f func() error) error {
			if rec != nil {
				rec.clk = t.clk
			}
			s, err := timed(t, f)
			steps = append(steps, s)
			return err
		}
		cost, err := measure(func() error {
			if rec != nil {
				rec.on = true
				defer func(root int32) { rec.end(root); rec.on = false }(rec.begin(lBench, vRep))
			}
			// (a) replay: mount each crashed image; verify: read back what
			// it owes.
			for i, t := range crashed {
				if err := step(t, t.fs.Mount); err != nil {
					return fmt.Errorf("replay of cut %d: %w", i, err)
				}
				replay += steps[len(steps)-1].sim
				hostReplay += steps[len(steps)-1].hostNs
				if err := step(t, func() error { w.verify(t, img.crashed[i], buf, res); return nil }); err != nil {
					return err
				}
			}
			// (b) check, then repair, the bitmap-damaged image. fs.Fsck
			// mounts its own instance over the device stack, so the span
			// around it is the fsck layer's.
			fsck := func(v verb, cfg fs.FsckConfig, out *fs.FsckResult) error {
				return step(damaged, func() error {
					i := int32(-1)
					if rec != nil {
						i = rec.begin(lFsck, v)
					}
					var err error
					*out, err = fs.Fsck(name, damaged.dev, opts, cfg)
					if rec != nil {
						rec.end(i)
					}
					return err
				})
			}
			if err := fsck(vCheck, fs.FsckConfig{}, &found); err != nil {
				return fmt.Errorf("check: %w", err)
			}
			check += steps[len(steps)-1].sim
			hostCheck += steps[len(steps)-1].hostNs
			if err := fsck(vRepair, fs.FsckConfig{Repair: true}, &fixed); err != nil {
				return fmt.Errorf("repair: %w", err)
			}
			repair += steps[len(steps)-1].sim
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		// These stacks were built unmounted for this phase, so everything
		// their devices have counted so far is the phase's.
		for _, t := range append(crashed, damaged) {
			counts.addDevices(t.disk, t.sched, devMark{})
		}

		problems += len(found.Problems)
		if fixed.Repair != nil {
			repaired += len(fixed.Repair.Fixed)
		}
		if len(found.Problems) == 0 || !fixed.CleanAfter {
			res.problem("%s: fsck found %d problems, clean after repair: %v", name, len(found.Problems), fixed.CleanAfter)
		}
		if err := fs.Check(name, damaged.disk, opts); err != nil {
			res.problem("check %s after repair: %v", name, err)
		}
		for _, t := range crashed {
			if err := t.finish(); err != nil {
				res.problem("%v", err)
			}
		}
		for _, s := range steps {
			lat = append(lat, int64(s.sim))
			simBy[name] += s.sim
		}
		n := float64(len(steps))
		res.cost.add(cost)
		res.ops += int64(len(steps))
		res.sim["fs."+name+".sim_ops_per_s"] = n / simBy[name].Seconds()
		res.host["fs."+name+".host_ns_per_op"] = float64(cost.ns) / n
		res.host["fs."+name+".allocs_per_op"] = float64(cost.mallocs) / n
	}

	var total disk.Duration
	for _, d := range simBy {
		total += d
	}
	counts.addRegistry(reg)
	counts.simTime = total
	ms := func(d disk.Duration) float64 { return float64(d) / float64(disk.Millisecond) }
	res.sim["sim_ops_per_s"] = float64(res.ops) / total.Seconds()
	res.sim["sim_p50_us"] = us(quantile(lat, 0.50))
	res.sim["sim_p99_us"] = us(quantile(lat, 0.99))
	res.sim["sim_recover_ms"] = ms(total)
	res.sim["sim_ixt3_rel_ext3"] = ratio(float64(simBy["ixt3"]), float64(simBy["ext3"]))
	res.sim["fsck.problems"] = float64(problems)
	res.sim["fsck.repaired"] = float64(repaired)
	res.sim["fsck.sim_check_ms"] = ms(check)
	res.sim["fsck.sim_repair_ms"] = ms(repair)
	res.sim["fs.sim_replay_ms"] = ms(replay)
	res.host["fsck.host_check_ms"] = float64(hostCheck) / 1e6
	res.host["fs.host_replay_ms"] = float64(hostReplay) / 1e6
	counts.emit(res.sim, res.ops)
	return res, nil
}
