package jfs

import (
	"bytes"
	"testing"
	"testing/quick"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/namei"
	"ironfs/internal/vfs"
)

// TestRecordLevelGranularity: JFS journals sub-block records, so a commit
// of a one-inode change writes far fewer journal bytes than a whole-block
// journal would.
func TestRecordLevelGranularity(t *testing.T) {
	fs, d := newTestFS(t)
	if err := fs.Create("/tiny", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	before := d.Stats().Writes
	if err := fs.Chmod("/tiny", 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	delta := d.Stats().Writes - before
	// One inode record fits one log block: log(1) + checkpoint(1) +
	// log-super(1) = 3 writes. A block-level journal would write the
	// descriptor, the full block copy, a commit block, and the home block.
	if delta > 4 {
		t.Errorf("chmod commit cost %d writes; record-level journaling should need <= 4", delta)
	}
}

// TestReplayAppliesSubBlockRecords: two inodes in the SAME table block are
// updated in separate committed transactions; after a crash, replay must
// merge both records into the shared home block.
func TestReplayAppliesSubBlockRecords(t *testing.T) {
	fs, d := newTestFS(t)
	if err := fs.Create("/a", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/b", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Two separate transactions touching neighbors in one block.
	if err := fs.Chmod("/a", 0o700); err != nil {
		t.Fatal(err)
	}
	if err := fs.Fsync("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chmod("/b", 0o711); err != nil {
		t.Fatal(err)
	}
	if err := fs.Fsync("/b"); err != nil {
		t.Fatal(err)
	}
	// Crash (no unmount); recover on a fresh instance.
	fs2 := New(d, nil)
	if err := fs2.Mount(); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	fa, err := fs2.Stat("/a")
	if err != nil || fa.Mode != 0o700 {
		t.Fatalf("a: %v mode=%o", err, fa.Mode)
	}
	fb, err := fs2.Stat("/b")
	if err != nil || fb.Mode != 0o711 {
		t.Fatalf("b: %v mode=%o", err, fb.Mode)
	}
}

// TestLogSuperWriteFailureCrashes: the single write error JFS checks.
func TestLogSuperWriteFailureCrashes(t *testing.T) {
	d, err := disk.New(8192, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fdev := faultinject.New(d, nil)
	if err := Mkfs(fdev); err != nil {
		t.Fatal(err)
	}
	fdev.SetResolver(NewResolver(d))
	rec := iron.NewRecorder()
	fs := New(fdev, rec)
	if err := fs.Mount(); err != nil {
		t.Fatal(err)
	}
	fdev.Arm(&faultinject.Fault{Class: iron.WriteFailure, Target: BTJSuper, Sticky: true})
	if err := fs.Create("/x", 0o644); err != nil {
		t.Fatal(err)
	}
	err = fs.Sync()
	if err == nil {
		t.Fatal("sync succeeded despite log-superblock write failure")
	}
	if fs.Health() != vfs.Panicked {
		t.Fatalf("health = %v, want panicked (explicit crash)", fs.Health())
	}
	if !rec.Recoveries().Has(iron.RStop) {
		t.Error("RStop not recorded")
	}
}

// TestOtherWriteFailuresIgnored: every non-log-superblock write error is
// swallowed (the §5.3 DZero finding) — the op "succeeds".
func TestOtherWriteFailuresIgnored(t *testing.T) {
	d, _ := disk.New(8192, disk.DefaultGeometry(), nil)
	fdev := faultinject.New(d, nil)
	if err := Mkfs(fdev); err != nil {
		t.Fatal(err)
	}
	fdev.SetResolver(NewResolver(d))
	rec := iron.NewRecorder()
	fs := New(fdev, rec)
	if err := fs.Mount(); err != nil {
		t.Fatal(err)
	}
	fdev.Arm(&faultinject.Fault{Class: iron.WriteFailure, Target: BTInode, Sticky: true})
	if err := fs.Create("/silent", 0o644); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync propagated an ignored write error: %v", err)
	}
	if fs.Health() != vfs.Healthy {
		t.Fatalf("health degraded: %v", fs.Health())
	}
	if !rec.Detections().Empty() {
		t.Errorf("detection events for an ignored write:\n%s", rec.Summary())
	}
}

func TestMarshalRoundTrips(t *testing.T) {
	f := func(bc, fb, ls, ll uint64) bool {
		sb := superblock{Magic: sbMagic, Version: 1, BlockCount: bc, FreeBlocks: fb,
			BMapStart: 5, BMapLen: 2, IMapCtl: 7, IMapStart: 8, IMapLen: 1,
			ITabStart: 9, ITabLen: 64, LogStart: ls, LogLen: ll, FreeInodes: 100, Clean: 1}
		buf := make([]byte, BlockSize)
		sb.marshal(buf)
		var out superblock
		out.unmarshal(buf)
		return out == sb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}

	in := inode{TypedAttr: namei.Typed(vfs.TypeRegular, namei.Attr{Mode: 0o644, Links: 3, UID: 1, GID: 2, Size: 999,
		Atime: 10, Mtime: 20, Ctime: 30})}
	for i := range in.Direct {
		in.Direct[i] = uint64(100 + i)
	}
	in.Intern[0] = 777
	buf := make([]byte, InodeSize)
	in.marshal(buf)
	var out inode
	out.unmarshal(buf)
	if out != in {
		t.Fatalf("inode round trip: %+v != %+v", out, in)
	}

	bd := bmapDesc{Start: 1, Len: 2, Free: 3, FreeCheck: 3}
	dbuf := make([]byte, 64)
	bd.marshal(dbuf)
	var bd2 bmapDesc
	bd2.unmarshal(dbuf)
	if bd2 != bd {
		t.Fatal("bmapDesc round trip")
	}

	at := aggrTable{Magic: aggrMagic, BMapDesc: 4, IMapCtl: 7, LogStart: 100}
	abuf := make([]byte, 64)
	at.marshal(abuf)
	var at2 aggrTable
	at2.unmarshal(abuf)
	if at2 != at {
		t.Fatal("aggrTable round trip")
	}
}

// TestBMapDescEqualityCheck: mismatched field copies are caught at mount.
func TestBMapDescEqualityCheck(t *testing.T) {
	fs, d := newTestFS(t)
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the descriptor's Free field only.
	buf := make([]byte, BlockSize)
	if err := d.ReadRaw(bmapDescBlk, buf); err != nil {
		t.Fatal(err)
	}
	buf[16] ^= 0xFF
	if err := d.WriteBlock(bmapDescBlk, buf); err != nil {
		t.Fatal(err)
	}
	rec := iron.NewRecorder()
	fs2 := New(d, rec)
	if err := fs2.Mount(); err == nil {
		t.Fatal("mount succeeded over a corrupt bmap descriptor")
	}
	if !rec.Detections().Has(iron.DSanity) {
		t.Errorf("equality check not recorded:\n%s", rec.Summary())
	}
}

var _ = bytes.Equal
