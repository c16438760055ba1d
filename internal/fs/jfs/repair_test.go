package jfs

import (
	"testing"

	"ironfs/internal/fsck"
)

func hasKind(probs []fsck.Problem, kind string) bool {
	for _, p := range probs {
		if p.Kind == kind {
			return true
		}
	}
	return false
}

// checkRepairConverges asserts the damaged volume reports `kind`, repairs
// fully, and re-checks clean.
func checkRepairConverges(t *testing.T, fs *FS, kind string) {
	t.Helper()
	probs, err := fs.CheckConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(probs, kind) {
		t.Fatalf("%s not detected: %v", kind, probs)
	}
	rep, err := fs.Repair()
	if err != nil {
		t.Fatalf("Repair: %v (%+v)", err, rep)
	}
	if !rep.AllFixed() {
		t.Fatalf("repair left problems: %+v", rep)
	}
	probs, err = fs.CheckConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 0 {
		t.Fatalf("problems remain after repair: %v", probs)
	}
}

func TestRepairReclaimsOrphanInode(t *testing.T) {
	fs, _ := newTestFS(t)
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/f", 0, make([]byte, 2*BlockSize)); err != nil {
		t.Fatal(err)
	}
	// Drop the directory entry but keep the inode: an orphan.
	fs.mu.Lock()
	root, err := fs.LoadLocked(RootIno)
	if err == nil {
		err = fs.DirRemoveLocked(0, root, "f")
	}
	if err == nil {
		err = fs.commitLocked()
	}
	fs.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	checkRepairConverges(t, fs, "orphan-inode")
}

func TestRepairRemovesDanglingEntry(t *testing.T) {
	fs, _ := newTestFS(t)
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/f", 0, make([]byte, 2*BlockSize)); err != nil {
		t.Fatal(err)
	}
	// Clear the inode slot but keep the name: a dangling entry, plus
	// block-map bits the dead file still holds.
	fs.mu.Lock()
	ino, _, err := fs.ResolveLocked("/f", true)
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
	checkRepairConverges(t, fs, "dangling-entry")
}

func TestRepairCorrectsLinkCount(t *testing.T) {
	fs, _ := newTestFS(t)
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	ino, in, err := fs.ResolveLocked("/f", true)
	if err == nil {
		in.Links = 9
		err = fs.StoreLocked(ino, in)
	}
	if err == nil {
		err = fs.commitLocked()
	}
	fs.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	checkRepairConverges(t, fs, "link-count")
	fi, err := fs.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Links != 1 {
		t.Fatalf("links after repair = %d, want 1", fi.Links)
	}
}
