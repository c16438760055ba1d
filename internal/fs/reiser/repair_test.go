package reiser

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

func TestRepairReclaimsOrphanObject(t *testing.T) {
	fs, _ := newTestFS(t)
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/f", 0, make([]byte, 2*BlockSize)); err != nil {
		t.Fatal(err)
	}
	// Drop the directory entry but keep the object: an orphan whose items
	// still occupy the tree.
	fs.mu.Lock()
	if err := fs.DirRemoveLocked(rootRef(), statData{}, "f"); err != nil {
		fs.mu.Unlock()
		t.Fatal(err)
	}
	if err := fs.commitLocked(); err != nil {
		fs.mu.Unlock()
		t.Fatal(err)
	}
	fs.mu.Unlock()
	checkRepairConverges(t, fs, "orphan-object")
}

func TestRepairRemovesDanglingEntry(t *testing.T) {
	fs, _ := newTestFS(t)
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/f", 0, make([]byte, 2*BlockSize)); err != nil {
		t.Fatal(err)
	}
	// Delete the object's items but keep the name: a dangling entry.
	fs.mu.Lock()
	r, _, err := fs.ResolveLocked("/f", true)
	if err == nil {
		err = fs.FreeLocked(r, statData{})
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
	r, sd, err := fs.ResolveLocked("/f", true)
	if err == nil {
		sd.Links = 9
		err = fs.StoreLocked(r, sd)
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
