package ext3

import (
	"testing"

	"ironfs/internal/faultinject"
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
	blk, err := fs.bmap(rootIn, 0, false)
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
	orphan := &inode{TypedAttr: namei.Typed(vfs.TypeRegular, namei.Attr{Mode: 0o644, Links: 1})}
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
	found := false
	for _, p := range probs {
		if p.Kind == "bad-pointer" || p.Kind == "block-bitmap" {
			found = true
		}
	}
	if !found {
		t.Fatalf("wild pointer not detected: %v", probs)
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
		// Link counts and reachability must be exact after replay; the
		// lazily-written free counters may legitimately trail the bitmaps
		// after a crash (the superblock is written back on sync).
		for _, p := range probs {
			if p.Kind != "free-blocks" && p.Kind != "free-inodes" {
				t.Errorf("limit %d: %v", limit, p)
			}
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
