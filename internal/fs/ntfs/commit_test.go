package ntfs

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/journal"
	"ironfs/internal/sched"
	"ironfs/internal/vfs"
)

// TestFrozenCommitPayloads: freezing must copy every payload under the
// lock. The cache hands out live slices, so a plan that aliased them would
// tear its own images once a concurrent operation re-dirtied a block
// mid-commit. This scribbles on the cached buffers between freeze and
// write and asserts the device received the frozen bytes.
func TestFrozenCommitPayloads(t *testing.T) {
	fs, d := newTestFS(t)
	if err := fs.Create("/frozen", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/frozen", 0, bytes.Repeat([]byte("x"), 100)); err != nil {
		t.Fatal(err)
	}

	fs.mu.Lock()
	var staged []int64
	want := map[int64][]byte{}
	for i := 0; i < fs.tx.Meta.Len(); i++ {
		blk := fs.tx.Meta.Block(i)
		staged = append(staged, blk)
		want[blk] = append([]byte(nil), fs.tx.Meta.Payload(blk)...)
	}
	if len(staged) == 0 {
		fs.mu.Unlock()
		t.Fatal("no staged metadata to freeze")
	}
	plan, err := fs.FreezeLocked(fs.jn.Seq() + 1)
	if err != nil || plan == nil {
		fs.mu.Unlock()
		t.Fatalf("FreezeLocked = %v, %v", plan, err)
	}
	// Model a concurrent operation re-dirtying every staged block while
	// the commit's I/O is in flight.
	for _, blk := range staged {
		if buf := fs.cache.Get(blk); buf != nil {
			for i := range buf {
				buf[i] = 0xEE
			}
		}
	}
	if err := fs.WritePlan(plan); err != nil {
		fs.mu.Unlock()
		t.Fatalf("WritePlan: %v", err)
	}
	err = fs.FinishLocked(plan)
	fs.mu.Unlock()
	if err != nil {
		t.Fatalf("FinishLocked: %v", err)
	}

	buf := make([]byte, BlockSize)
	for _, blk := range staged {
		if err := d.ReadBlock(blk, buf); err != nil {
			t.Fatalf("ReadBlock(%d): %v", blk, err)
		}
		if !bytes.Equal(buf, want[blk]) {
			t.Fatalf("home block %d holds post-freeze scribbles, want the frozen image", blk)
		}
	}
}

// TestTxnOverflowUnmountable: a transaction whose tag list would scribble
// past the logfile descriptor block is a structural hazard; the freeze
// must refuse it and mark the volume unusable rather than corrupt the log.
func TestTxnOverflowUnmountable(t *testing.T) {
	fs, _ := newTestFS(t)
	fs.mu.Lock()
	for i := 0; i <= journal.MaxTags; i++ {
		fs.tx.StageMeta(int64(4000+i), make([]byte, BlockSize), BTMFT)
	}
	_, err := fs.FreezeLocked(fs.jn.Seq() + 1)
	fs.mu.Unlock()
	if !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("freeze of oversized txn = %v, want ErrIO", err)
	}
	if st := fs.Health(); st != vfs.ReadOnly {
		t.Fatalf("health after descriptor overflow = %v, want ReadOnly (unmountable)", st)
	}
}

// pinned renders a log block as the hex of everything up to its last
// nonzero byte.
func pinned(b []byte) string {
	return hex.EncodeToString(bytes.TrimRight(b, "\x00"))
}

// TestLogFormatPinned holds the logfile's on-disk bytes — restart area,
// descriptor, commit record — to what this package's own encoders produced
// for the same transaction before journal.Ring's shared codec replaced
// them.
func TestLogFormatPinned(t *testing.T) {
	fs, d := newTestFS(t)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, blk := range []int64{3, 0x0A0B0C0D0E0F, 510} {
		fs.tx.StageMeta(blk, make([]byte, BlockSize), BTMFT)
	}
	p, err := fs.FreezeLocked(0x1122334455667788)
	if err != nil {
		t.Fatal(err)
	}
	plan := p.(*commitPlan)
	if err := fs.writeRestart(0x0102030405060708, 7); err != nil {
		t.Fatal(err)
	}
	restart := make([]byte, BlockSize)
	if err := d.ReadBlock(int64(fs.boot.LogStart), restart); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ what, got, want string }{
		{"descriptor", pinned(plan.jReqs[0].Data), "4452435203000000887766554433221103000000000000000f0e0d0c0b0a0000fe01"},
		{"commit", pinned(plan.commit.Data), "54494d43000000008877665544332211"},
		{"restart area", pinned(restart), "525453520000000007000000000000000807060504030201"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.what, c.got, c.want)
		}
	}
}

// cmdLog sits under the scheduler and notes every write command that
// reaches the disk as its list of blocks, grouping the commands into the
// barrier-delimited drains they left in.
type cmdLog struct {
	disk.Device
	drains [][][]int64 // closed drains, each its commands in dispatch order
	cur    [][]int64
}

func (l *cmdLog) WriteBlock(n int64, buf []byte) error {
	l.cur = append(l.cur, []int64{n})
	return l.Device.WriteBlock(n, buf)
}

func (l *cmdLog) WriteBatch(reqs []disk.Request) error {
	cmd := make([]int64, len(reqs))
	for i, r := range reqs {
		cmd[i] = r.Block
	}
	l.cur = append(l.cur, cmd)
	return l.Device.WriteBatch(reqs)
}

func (l *cmdLog) Barrier() error {
	l.drains = append(l.drains, l.cur)
	l.cur = nil
	return l.Device.Barrier()
}

// span returns the blocks lo..hi in order.
func span(lo, hi int64) []int64 {
	var s []int64
	for b := lo; b <= hi; b++ {
		s = append(s, b)
	}
	return s
}

// TestCommitWritesInDiskOrder: a commit whose home blocks were first touched
// in descending order, over a depth-32 adaptive scheduler, must bring its
// ordered data and its checkpoint home in ascending order, one disk
// command per ascending sweep: the checkpoint's two runs share a command,
// as every drain's sweep does, rather than leaving as one command per
// contiguous run. Its restart-area write must leave in the
// drain of its own log blocks, never with data: a restart write queued
// behind the checkpoint pulls the seek to the logfile into the next
// commit's data drain.
func TestCommitWritesInDiskOrder(t *testing.T) {
	d, err := disk.New(8192, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(d); err != nil {
		t.Fatal(err)
	}
	log := &cmdLog{Device: d}
	s := sched.New(log, sched.Config{QueueDepth: 32, Policy: sched.PolicyAdaptive})
	fs := New(s, iron.NewRecorder())
	if err := fs.Mount(); err != nil {
		t.Fatal(err)
	}
	if err := s.Barrier(); err != nil { // the mount's boot-file write
		t.Fatal(err)
	}
	restart := fs.ring.Base
	for c := 0; c < 3; c++ {
		log.drains = nil
		fs.mu.Lock()
		for b := int64(3005); b >= 3000; b-- {
			fs.tx.StageData(b, make([]byte, BlockSize), BTData)
		}
		for b := int64(4020); b > 4000; b-- {
			if b <= 4010 || b >= 4016 {
				fs.tx.StageMeta(b, make([]byte, BlockSize), BTMFT)
			}
		}
		seq := fs.jn.Seq() + 1
		fs.mu.Unlock()
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		// Ordered data, log (restart area, descriptor, copies), commit
		// record, checkpoint: one drain each.
		if len(log.drains) != 4 {
			t.Fatalf("commit %d left in %d drains %v, want 4", seq, len(log.drains), log.drains)
		}
		if got, want := log.drains[0], [][]int64{span(3000, 3005)}; !reflect.DeepEqual(got, want) {
			t.Errorf("commit %d: ordered data left as commands %v, want %v", seq, got, want)
		}
		if got, want := log.drains[3], [][]int64{append(span(4001, 4010), span(4016, 4020)...)}; !reflect.DeepEqual(got, want) {
			t.Errorf("commit %d: checkpoint left as commands %v, want %v", seq, got, want)
		}
		for i, drain := range log.drains {
			hasRestart := slices.ContainsFunc(drain, func(cmd []int64) bool { return slices.Contains(cmd, restart) })
			if hasRestart != (i == 1) {
				t.Errorf("commit %d: restart area in drain %d (%v) is %t, want it in the log drain only", seq, i, drain, hasRestart)
			}
		}
	}
}

// restartArea reads the restart area at block blk off the media.
func restartArea(t *testing.T, d *disk.Disk, blk int64) journal.Header {
	t.Helper()
	buf := make([]byte, BlockSize)
	if err := d.ReadRaw(blk, buf); err != nil {
		t.Fatal(err)
	}
	return journal.ParseHeader(buf)
}

// lagChurn is TestRestartLag's seeded workload: files created, written one
// to three blocks and, one in two, fsynced, the oldest unlinked while more
// than four are live. It returns at the first error, which on a cut device
// is the crash. acked collects what the media owes: each file whose fsync
// was acknowledged with the device whole, and no later op has unlinked.
func lagChurn(fs *FS, dev *faultinject.CrashDevice, rng *rand.Rand, prefix string, files int, live *[]string, written, acked map[string][]byte) error {
	for i := 0; i < files; i++ {
		p := fmt.Sprintf("/%s%02d", prefix, i)
		if err := fs.Create(p, 0o644); err != nil {
			return err
		}
		buf := make([]byte, 1+rng.Intn(3*BlockSize))
		rng.Read(buf)
		if _, err := fs.Write(p, 0, buf); err != nil {
			return err
		}
		written[p] = buf
		if rng.Intn(2) == 0 {
			if err := fs.Fsync(p); err != nil {
				return err
			}
			if !dev.Crashed() {
				acked[p] = buf
			}
		}
		if *live = append(*live, p); len(*live) > 4 {
			delete(acked, (*live)[0])
			if err := fs.Unlink((*live)[0]); err != nil {
				return err
			}
			*live = (*live)[1:]
		}
	}
	return nil
}

// TestRestartLag pins the restart area's protocol: after each commit it
// names that commit, which replay may redo; after Unmount it names the next
// sequence number at the log head, so a clean remount never reuses one.
// Then it cuts a churn, clean unmount, remount and more churn after every
// device write: every recovered volume must check clean, keep every
// acknowledged fsync and every file the unmount made durable, and never
// replay a transaction numbered within the first session.
func TestRestartLag(t *testing.T) {
	fs, d := newTestFS(t)
	wraps := 0
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("/f%02d", i)
		if err := fs.Create(p, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Write(p, 0, []byte(p)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Fsync(p); err != nil {
			t.Fatal(err)
		}
		h := restartArea(t, d, fs.ring.Base)
		if h.StartSeq != fs.jn.Seq() {
			t.Fatalf("after commit %d the restart area names sequence %d", fs.jn.Seq(), h.StartSeq)
		}
		desc := make([]byte, BlockSize)
		if err := d.ReadRaw(fs.ring.Base+int64(h.StartRel), desc); err != nil {
			t.Fatal(err)
		}
		if magic, _, seq := journal.RecordHead(desc); magic != logDesc || seq != h.StartSeq {
			t.Fatalf("restart area points at block %d, which holds magic %#x sequence %d, not commit %d's descriptor", h.StartRel, magic, seq, h.StartSeq)
		}
		if h.StartRel == 1 && i > 0 {
			wraps++
		}
	}
	if wraps == 0 {
		t.Fatal("40 commits never wrapped the logfile")
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if h := restartArea(t, d, fs.ring.Base); h.StartSeq != fs.jn.Seq()+1 || int64(h.StartRel) != fs.ring.Head() {
		t.Fatalf("after Unmount the restart area names sequence %d at %d, want %d at the head %d", h.StartSeq, h.StartRel, fs.jn.Seq()+1, fs.ring.Head())
	}

	base, err := disk.New(2048, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(base); err != nil {
		t.Fatal(err)
	}
	img := base.Snapshot()
	restartBlk := base.NumBlocks() - defaultLogLen
	// run plays both sessions on the image cut after limit device writes
	// (never, when negative). It returns what the media owes, the first
	// session's last sequence number and device writes (-1 when the cut
	// came first), and the writes that reached the media.
	run := func(limit int64) (acked map[string][]byte, lastSeq uint64, s1Writes, writes int64) {
		if err := base.Restore(img); err != nil {
			t.Fatal(err)
		}
		dev := faultinject.NewCrashDevice(base, limit)
		rng := rand.New(rand.NewSource(0x1207))
		var live []string
		written := map[string][]byte{}
		acked = map[string][]byte{}
		s1Writes = -1
		fs := New(dev, nil)
		if fs.Mount() == nil && lagChurn(fs, dev, rng, "a", 16, &live, written, acked) == nil && fs.Unmount() == nil && !dev.Crashed() {
			lastSeq, s1Writes = fs.jn.Seq(), dev.Written()
			for _, p := range live {
				acked[p] = written[p]
			}
			fs = New(dev, nil)
			if fs.Mount() == nil {
				_ = lagChurn(fs, dev, rng, "b", 16, &live, written, acked) // ends at the cut
			}
		}
		return acked, lastSeq, s1Writes, dev.Written()
	}
	_, lastSeq, s1Writes, total := run(-1)
	if s1Writes < 0 {
		t.Fatal("the uncut run failed")
	}
	replayed, late := 0, 0
	for cut := int64(0); cut <= total; cut++ {
		acked, _, _, _ := run(cut)
		h := restartArea(t, base, restartBlk)
		fs := New(base, nil)
		if err := fs.Mount(); err != nil {
			t.Fatalf("cut %d of %d: recovery mount: %v", cut, total, err)
		}
		if fs.jn.Seq() >= h.StartSeq {
			replayed++
			if cut > s1Writes {
				late++
				if h.StartSeq <= lastSeq {
					t.Fatalf("cut %d of %d: replay accepted sequence %d, which the first session, ending at %d, already used", cut, total, h.StartSeq, lastSeq)
				}
			}
		}
		if probs, err := fs.CheckConsistency(); err != nil || len(probs) != 0 {
			t.Fatalf("cut %d of %d: check: %v, problems %v", cut, total, err, probs)
		}
		for p, want := range acked {
			got := make([]byte, len(want)+1)
			if n, err := fs.Read(p, 0, got); err != nil || !bytes.Equal(got[:n], want) {
				t.Fatalf("cut %d of %d: %s reads %d bytes, %v; want its %d acknowledged bytes", cut, total, p, n, err, len(want))
			}
		}
	}
	if late == 0 {
		t.Fatalf("none of %d cuts replayed a second-session transaction", total+1)
	}
	t.Logf("%d cuts (first session ends at write %d), %d replayed, %d of them in the second session", total+1, s1Writes, replayed, late)
}
