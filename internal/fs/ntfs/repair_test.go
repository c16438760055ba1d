package ntfs

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

func TestRepairReclaimsOrphanRecord(t *testing.T) {
	fs, _ := newTestFS(t)
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/f", 0, make([]byte, 2*BlockSize)); err != nil {
		t.Fatal(err)
	}
	// Drop the directory entry but keep the record in use: an orphan.
	fs.mu.Lock()
	root, err := fs.LoadLocked(RootRec)
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
	checkRepairConverges(t, fs, "orphan-record")
}

func TestRepairRemovesDanglingEntry(t *testing.T) {
	fs, _ := newTestFS(t)
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/f", 0, make([]byte, 2*BlockSize)); err != nil {
		t.Fatal(err)
	}
	// Clear the MFT record but keep the name: a dangling entry, plus the
	// bitmap bits the dead file still holds.
	fs.mu.Lock()
	rec, _, err := fs.ResolveLocked("/f", true)
	if err == nil {
		err = fs.clearRecord(rec)
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
	rec, r, err := fs.ResolveLocked("/f", true)
	if err == nil {
		r.Links = 9
		err = fs.StoreLocked(rec, r)
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
