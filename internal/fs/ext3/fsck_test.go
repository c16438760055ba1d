package ext3

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/fsck"
	"ironfs/internal/iron"
	"ironfs/internal/namei"
	"ironfs/internal/vfs"
)

// cleanFS builds a populated, consistent file system.
func cleanFS(t *testing.T) (*FS, *iron.Recorder) {
	t.Helper()
	rec := iron.NewRecorder()
	fs, _ := newTestFS(t, Options{})
	fs.rec = rec
	if err := fs.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/d/a", "/d/b", "/top"} {
		if err := fs.Create(p, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Write(p, 0, make([]byte, 3*BlockSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Link("/top", "/top2"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	return fs, rec
}

func TestFsckCleanVolume(t *testing.T) {
	fs, _ := cleanFS(t)
	probs, err := fs.CheckConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 0 {
		t.Fatalf("clean volume reported %d problems: %v", len(probs), probs)
	}
}

// corrupt a bitmap bit directly and watch the checker and repairer work.
func TestFsckDetectsAndRepairsBitmapDamage(t *testing.T) {
	fs, rec := cleanFS(t)
	// Clear an in-use data block's bit (simulated bitmap corruption).
	in, err := fs.LoadLocked(RootIno)
	if err != nil {
		t.Fatal(err)
	}
	_ = in
	// Find any used data block: the root directory's first block.
	rootIn, _ := fs.LoadLocked(RootIno)
	blk, err := fs.bmap(&rootIn, 0, false)
	if err != nil || blk == 0 {
		t.Fatalf("no root dir block: %d %v", blk, err)
	}
	g := fs.lay.groupOf(blk)
	bm, err := fs.txMeta(int64(fs.gds[g].DataBitmap), BTBitmap)
	if err != nil {
		t.Fatal(err)
	}
	clearBit(bm, blk-fs.lay.groupStart(uint32(g)))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	probs, err := fs.CheckConsistency()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range probs {
		if p.Kind == "block-bitmap" || p.Kind == "free-blocks" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bitmap damage not detected: %v", probs)
	}

	if _, err := fs.Repair(); err != nil {
		t.Fatal(err)
	}
	if !rec.Recoveries().Has(iron.RRepair) {
		t.Error("RRepair not recorded")
	}
	probs, err = fs.CheckConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 0 {
		t.Fatalf("problems remain after repair: %v", probs)
	}
}

func TestFsckDetectsAndRepairsLinkCount(t *testing.T) {
	fs, _ := cleanFS(t)
	// Corrupt /top's link count on disk (it really has 2 links).
	ino, in, err := fs.ResolveLocked("/top", true)
	if err != nil {
		t.Fatal(err)
	}
	in.Links = 9
	if err := fs.StoreLocked(ino, in); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	probs, err := fs.CheckConsistency()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range probs {
		if p.Kind == "link-count" {
			found = true
		}
	}
	if !found {
		t.Fatalf("link-count damage not detected: %v", probs)
	}
	if _, err := fs.Repair(); err != nil {
		t.Fatal(err)
	}
	fi, err := fs.Stat("/top")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Links != 2 {
		t.Fatalf("links after repair = %d, want 2", fi.Links)
	}
}

func TestFsckDetectsOrphanInode(t *testing.T) {
	fs, _ := cleanFS(t)
	// Fabricate an orphan: allocate an inode and mark it in use without
	// any directory entry.
	ino, err := fs.allocInode(0)
	if err != nil {
		t.Fatal(err)
	}
	orphan := inode{TypedAttr: namei.Typed(vfs.TypeRegular, namei.Attr{Mode: 0o644, Links: 1})}
	if err := fs.StoreLocked(ino, orphan); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	probs, err := fs.CheckConsistency()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range probs {
		if p.Kind == "orphan-inode" {
			found = true
		}
	}
	if !found {
		t.Fatalf("orphan not detected: %v", probs)
	}
	if _, err := fs.Repair(); err != nil {
		t.Fatal(err)
	}
	probs, _ = fs.CheckConsistency()
	if len(probs) != 0 {
		t.Fatalf("problems remain after repair: %v", probs)
	}
}

func TestFsckDetectsWildPointer(t *testing.T) {
	fs, _ := cleanFS(t)
	// Point /top's first block at the journal region (a wild pointer no
	// sanity check catches during normal operation — §5.1).
	ino, in, err := fs.ResolveLocked("/top", true)
	if err != nil {
		t.Fatal(err)
	}
	in.Direct[0] = fs.lay.sb.JournalStart + 5
	if err := fs.StoreLocked(ino, in); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	probs, err := fs.CheckConsistency()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("wild-pointer: inode %d block 0 -> block %d", ino, fs.lay.sb.JournalStart+5)
	if !slices.ContainsFunc(probs, func(p fsck.Problem) bool { return p.String() == want }) {
		t.Fatalf("wild pointer not detected: %v", probs)
	}
}

// TestRepairRemovesDanglingEntry: an inode cleared under its name leaves
// a directory entry naming a free inode. The check must report it and the
// repair remove it, or the next Create reuses the inode under the old name.
func TestRepairRemovesDanglingEntry(t *testing.T) {
	for _, opts := range []Options{{}, AllIron()} {
		fs, _ := newTestFS(t, opts)
		if err := fs.Mkdir("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{"/d/a", "/d/b"} {
			if err := fs.Create(p, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Write(p, 0, make([]byte, 2*BlockSize)); err != nil {
				t.Fatal(err)
			}
		}
		fs.mu.Lock()
		dir, _, err := fs.ResolveLocked("/d", true)
		var ino uint32
		if err == nil {
			ino, _, err = fs.ResolveLocked("/d/a", true)
		}
		if err == nil {
			err = fs.clearInode(ino)
		}
		if err == nil {
			err = fs.commitLocked()
		}
		fs.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		probs, err := fs.CheckConsistency()
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("dangling-entry: dir %d entry \"a\" -> unallocated inode %d", dir, ino)
		if !slices.ContainsFunc(probs, func(p fsck.Problem) bool { return p.String() == want }) {
			t.Fatalf("%+v: want %q, check reported %v", opts, want, probs)
		}
		rep, err := fs.Repair()
		if err != nil || !rep.AllFixed() {
			t.Fatalf("%+v: repair: %+v, %v", opts, rep, err)
		}
		if probs, err := fs.CheckConsistency(); err != nil || len(probs) != 0 {
			t.Fatalf("%+v: after repair: %v, %v", opts, probs, err)
		}
		ents, err := fs.ReadDir("/d")
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 || ents[0].Name != "b" {
			t.Fatalf("%+v: /d after repair lists %v, want only b", opts, ents)
		}
	}
}

// TestFsckParallelReadsLikeSerial: a parallel check issues no cold read,
// so from a cold cache it finds what the serial check finds and costs the
// disk exactly as much, even with files whose blocks hang off indirect
// trees in two block groups.
func TestFsckParallelReadsLikeSerial(t *testing.T) {
	for _, opts := range []Options{{}, AllIron()} {
		fs, d := newTestFS(t, opts)
		deep := func(p string) {
			if err := fs.Create(p, 0o644); err != nil {
				t.Fatal(err)
			}
			off := int64(DirectBlocks+PtrsPerBlock+1) * BlockSize // inside the double-indirect tree
			for _, at := range []int64{0, DirectBlocks * BlockSize, off} {
				if _, err := fs.Write(p, at, make([]byte, BlockSize)); err != nil {
					t.Fatal(err)
				}
			}
		}
		deep("/a")
		for i := 0; fs.groupOfInode(uint32(i+3)) == 0; i++ { // fill group 0's inodes
			if err := fs.Create(fmt.Sprintf("/f%d", i), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		deep("/b")
		if err := fs.Unmount(); err != nil {
			t.Fatal(err)
		}
		check := func(workers int) ([]fsck.Problem, disk.Duration, int64) {
			if err := fs.Mount(); err != nil {
				t.Fatal(err)
			}
			defer fs.Unmount()
			start, reads := d.Clock().Now(), d.Stats().Reads
			probs, _, err := fs.CheckParallel(workers)
			if err != nil {
				t.Fatal(err)
			}
			return probs, d.Clock().Now() - start, d.Stats().Reads - reads
		}
		probs, took, reads := check(1)
		for _, workers := range []int{2, 4, 7} {
			p, tk, r := check(workers)
			if !reflect.DeepEqual(p, probs) || tk != took || r != reads {
				t.Fatalf("%+v workers=%d: %d problems, %v, %d reads; serial: %d problems, %v, %d reads",
					opts, workers, len(p), tk, r, len(probs), took, reads)
			}
		}
	}
}

// TestFsckAfterEveryCrashPoint: the journaling invariant, checked with the
// strongest oracle we have — a full consistency scan after recovery from a
// crash at every write of a metadata-heavy workload.
func TestFsckAfterEveryCrashPoint(t *testing.T) {
	// Dry run to count writes.
	fsDry, dDry := newTestFS(t, Options{})
	before := dDry.Stats().Writes
	crashWork(t, fsDry)
	total := dDry.Stats().Writes - before

	img := freshImage(t)
	stride := total/12 + 1 // sample ~12 points to keep the test quick
	for limit := int64(1); limit < total; limit += stride {
		fs2, d2 := newTestFS(t, Options{})
		_ = fs2
		if err := d2.Restore(img); err != nil {
			t.Fatal(err)
		}
		crash := faultinject.NewCrashDevice(d2, limit)
		cfs := New(crash, Options{}, nil)
		if err := cfs.Mount(); err == nil {
			func() {
				defer func() { recover() }()
				crashWorkNoFatal(cfs)
			}()
		}
		rfs := New(d2, Options{}, nil)
		if err := rfs.Mount(); err != nil {
			t.Fatalf("limit %d: recovery mount: %v", limit, err)
		}
		probs, err := rfs.CheckConsistency()
		if err != nil {
			t.Fatalf("limit %d: check: %v", limit, err)
		}
		// Everything the check looks at, the free counts included, is
		// journaled, so replay leaves nothing to report.
		for _, p := range probs {
			t.Errorf("limit %d: %v", limit, p)
		}
	}
}

func crashWork(t *testing.T, fs *FS) {
	t.Helper()
	if err := fs.Mkdir("/w", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		p := "/w/f" + string(rune('a'+i))
		if err := fs.Create(p, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Write(p, 0, make([]byte, 2*BlockSize)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Fsync(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Unlink("/w/fa"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
}

func crashWorkNoFatal(fs *FS) {
	_ = fs.Mkdir("/w", 0o755)
	for i := 0; i < 6; i++ {
		p := "/w/f" + string(rune('a'+i))
		if fs.Create(p, 0o644) != nil {
			return
		}
		if _, err := fs.Write(p, 0, make([]byte, 2*BlockSize)); err != nil {
			return
		}
		if fs.Fsync(p) != nil {
			return
		}
	}
	_ = fs.Unlink("/w/fa")
	_ = fs.Sync()
}

// helpers shared with the crash test.
func freshImage(t *testing.T) []byte {
	t.Helper()
	_, d := newTestFS(t, Options{})
	return d.Snapshot()
}

// TestForEachBlockLikeBmap: the census's and the scrub's walk maps, in
// order, exactly the blocks bmap maps at every logical index, on a file
// with holes at every level of every tree.
func TestForEachBlockLikeBmap(t *testing.T) {
	fs, _ := newTestFS(t, Options{})
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	for _, l := range []int64{0, 5, indStart + 3, dindStart + 1, dindStart + 2*PtrsPerBlock + 7, tindStart + PtrsPerBlock*PtrsPerBlock + 1} {
		if _, err := fs.Write("/f", l*BlockSize, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	_, in, err := fs.ResolveLocked("/f", true)
	if err != nil {
		t.Fatal(err)
	}
	nblocks := (int64(in.Size) + BlockSize - 1) / BlockSize
	type hit struct{ l, phys int64 }
	var want, got []hit
	for l := int64(0); l < nblocks; l++ {
		phys, err := fs.bmap(&in, l, false)
		if err != nil {
			t.Fatal(err)
		}
		if phys != 0 {
			want = append(want, hit{l, phys})
		}
	}
	err = fs.forEachBlock(&in, func(l, phys int64) error {
		got = append(got, hit{l, phys})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 6 || !reflect.DeepEqual(got, want) {
		t.Fatalf("forEachBlock maps %v, bmap %v", got, want)
	}
}
