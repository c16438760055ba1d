package ext3

import (
	"encoding/binary"
	"errors"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/trace"
	"ironfs/internal/vfs"
)

// The §6.2 scenario, constructed explicitly: a write cache commits the
// journal's commit block but drops a journal payload block it covers. On
// stock ext3 with the ordering barrier disabled the crash replays garbage
// into the file system silently; with transactional checksums (Tc) the
// replay is detected and the transaction refused.

func crashTestOpts() Options {
	return Options{BlocksPerGroup: 512, JournalBlocks: 64, ITableBlocks: 2}
}

// cacheBarriersBetween counts observed cache-layer barrier events issued
// between the a-th and b-th cache-layer writes (exclusive). Cache write
// events are emitted 1:1 and in order with the CrashDevice write log, so
// log indices address trace events directly.
func cacheBarriersBetween(events []trace.Event, a, b int) int {
	writes, barriers := 0, 0
	for _, e := range events {
		if e.Layer != trace.LayerCache {
			continue
		}
		switch e.Kind {
		case trace.KindWrite:
			writes++
		case trace.KindBarrier:
			if writes > a && writes <= b {
				barriers++
			}
		}
	}
	return barriers
}

// buildCommitCrash runs create+write+sync on a recording device and returns
// the post-crash image in which the last transaction's commit block
// landed but its first journal payload block did not.
func buildCommitCrash(t *testing.T, opts Options) *disk.Image {
	t.Helper()
	d, err := disk.New(1024, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(d, opts); err != nil {
		t.Fatal(err)
	}
	baseImg := d.Image()
	tr := trace.New(nil)
	d.SetTracer(tr)
	rec := faultinject.NewCrashDevice(d, -1)
	fs := New(rec, opts, iron.NewRecorder())
	if err := fs.Mount(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/f", 0, make([]byte, 2*BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	log := rec.Log()
	le := binary.LittleEndian
	commitIdx, descIdx := -1, -1
	for i := len(log) - 1; i >= 0; i-- {
		m := le.Uint32(log[i].Data[0:4])
		if commitIdx < 0 && m == jMagicCommit {
			commitIdx = i
		} else if commitIdx >= 0 && m == jMagicDesc {
			descIdx = i
			break
		}
	}
	if commitIdx < 0 || descIdx < 0 || descIdx+1 >= commitIdx {
		t.Fatalf("could not locate a desc/payload/commit run in the write log (desc=%d commit=%d)", descIdx, commitIdx)
	}
	if log[descIdx].Epoch != log[commitIdx].Epoch {
		t.Fatalf("payload and commit are in different epochs (%d vs %d): the cache cannot reorder across a barrier, so this crash state is inexpressible",
			log[descIdx].Epoch, log[commitIdx].Epoch)
	}
	// The epoch claim, re-checked against the observed event stream: no
	// barrier event may separate the descriptor write from the commit
	// write, or the crash state below would be inexpressible.
	if n := cacheBarriersBetween(tr.Events(), descIdx, commitIdx); n != 0 {
		t.Fatalf("observed %d cache barrier events between descriptor and commit; expected none", n)
	}

	// Pending window for a crash right after the commit write, mirroring
	// pendingStart with a maximal window.
	p := faultinject.EnumPolicy{Window: 63}
	first := commitIdx
	for first > 0 && log[first-1].Epoch == log[commitIdx].Epoch {
		first--
	}
	if commitIdx-first+1 > p.Window {
		first = commitIdx + 1 - p.Window
	}
	if descIdx < first {
		t.Fatalf("descriptor fell out of the reordering window (first=%d desc=%d)", first, descIdx)
	}
	payloadIdx := descIdx + 1
	full := uint64(1)<<(commitIdx-first+1) - 1
	st := faultinject.CrashState{
		Point: commitIdx,
		Mask:  full &^ (uint64(1) << (payloadIdx - first)),
	}
	if err := d.RestoreImage(baseImg); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.ApplyCrashState(d, log, st, p); err != nil {
		t.Fatal(err)
	}
	return d.Image()
}

func remount(t *testing.T, img *disk.Image, opts Options) (*disk.Disk, *iron.Recorder, error) {
	t.Helper()
	d, err := disk.New(1024, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RestoreImage(img); err != nil {
		t.Fatal(err)
	}
	rec := iron.NewRecorder()
	fs := New(d, opts, rec)
	return d, rec, fs.Mount()
}

func hasDetection(rec *iron.Recorder, kind iron.DetectionLevel) bool {
	for _, e := range rec.Events() {
		if e.Detection == kind {
			return true
		}
	}
	return false
}

// TestTcDetectsReorderedCommit: ixt3's transactional checksum notices that
// the commit block's checksum does not cover the (missing) payload, logs a
// DRedundancy detection, discards the transaction, and leaves a consistent
// image behind.
func TestTcDetectsReorderedCommit(t *testing.T) {
	opts := crashTestOpts()
	opts.TxnChecksum = true
	opts.FixBugs = true
	img := buildCommitCrash(t, opts)

	d, rec, err := remount(t, img, opts)
	if err != nil {
		t.Fatalf("recovery mount failed: %v", err)
	}
	if !hasDetection(rec, iron.DRedundancy) {
		t.Fatal("Tc did not flag the reordered commit (no DRedundancy detection)")
	}
	if err := CheckImage(d, opts); err != nil {
		t.Fatalf("image inconsistent after Tc refused the replay: %v", err)
	}
}

// TestStockExt3ReplaysGarbageSilently: without Tc, the commit block alone
// convinces recovery the transaction is complete; it replays the dropped
// payload's stale (zero) journal block over live metadata, flags nothing,
// and the oracle finds the damage.
func TestStockExt3ReplaysGarbageSilently(t *testing.T) {
	opts := crashTestOpts()
	opts.NoBarrier = true // §6.2: the cache ignores the ordering point
	img := buildCommitCrash(t, opts)

	d, rec, err := remount(t, img, opts)
	if err != nil {
		t.Fatalf("recovery mount failed: %v", err)
	}
	for _, e := range rec.Events() {
		if e.Detection != iron.DZero {
			t.Fatalf("stock ext3 unexpectedly detected the damage: %+v", e)
		}
	}
	err = CheckImage(d, opts)
	if !errors.Is(err, vfs.ErrInconsistent) {
		t.Fatalf("oracle verdict = %v, want vfs.ErrInconsistent (silent corruption)", err)
	}
}

// TestBarrierMakesReorderInexpressible: with stock ordering intact the
// payload and commit land in different cache epochs, so no crash state can
// keep the commit while dropping the payload — the construction in
// buildCommitCrash must fail its epoch assertion. This is the defense the
// NoBarrier variant removes.
func TestBarrierMakesReorderInexpressible(t *testing.T) {
	opts := crashTestOpts() // barriers on
	d, err := disk.New(1024, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(d, opts); err != nil {
		t.Fatal(err)
	}
	tr := trace.New(nil)
	d.SetTracer(tr)
	rec := faultinject.NewCrashDevice(d, -1)
	fs := New(rec, opts, iron.NewRecorder())
	if err := fs.Mount(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/f", 0, make([]byte, 2*BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	log := rec.Log()
	le := binary.LittleEndian
	commitIdx, descIdx := -1, -1
	for i := len(log) - 1; i >= 0; i-- {
		m := le.Uint32(log[i].Data[0:4])
		if commitIdx < 0 && m == jMagicCommit {
			commitIdx = i
		} else if commitIdx >= 0 && m == jMagicDesc {
			descIdx = i
			break
		}
	}
	if commitIdx < 0 || descIdx < 0 {
		t.Fatalf("could not locate desc/commit in the write log")
	}
	if log[descIdx].Epoch == log[commitIdx].Epoch {
		t.Fatal("payload and commit share an epoch despite the barrier; the reorder defense is gone")
	}
	// The same claim from the observed event stream, not the log's epoch
	// bookkeeping: a barrier event must separate the descriptor write from
	// the commit write, because the barrier IS the reorder defense.
	if n := cacheBarriersBetween(tr.Events(), descIdx, commitIdx); n == 0 {
		t.Fatal("no cache barrier event observed between descriptor and commit; the ordering point was never issued")
	}
}
