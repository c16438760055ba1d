package ext3

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// setLinks rewrites the stored link count of the object at path and
// commits it, the way a corrupted inode would carry it.
func setLinks(t *testing.T, fs *FS, path string, links uint16) uint32 {
	t.Helper()
	ino, in, err := fs.ResolveLocked(path, false)
	if err != nil {
		t.Fatal(err)
	}
	in.Links = links
	if err := fs.StoreLocked(ino, in); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	return ino
}

// TestUnlinkOfZeroLinkCount: stock ext3 has no sanity check on the link
// count (§5.1), so unlinking a file whose count is already zero succeeds
// and the count underflows. FixBugs (and so ixt3) refuses it, records the
// detection, and leaves the entry where it was.
func TestUnlinkOfZeroLinkCount(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
		want error
	}{
		{"stock", Options{}, nil},
		{"FixBugs", Options{FixBugs: true}, vfs.ErrCorrupt},
		{"ixt3", AllIron(), vfs.ErrCorrupt},
	} {
		_, _, rec, fs := ironStack(t, c.opts)
		if err := fs.Create("/f", 0o644); err != nil {
			t.Fatal(err)
		}
		setLinks(t, fs, "/f", 0)
		rec.Reset()
		if err := fs.Unlink("/f"); !errors.Is(err, c.want) {
			t.Fatalf("%s: Unlink = %v, want %v", c.name, err, c.want)
		}
		_, serr := fs.Lstat("/f")
		if c.want == nil {
			if !errors.Is(serr, vfs.ErrNotExist) {
				t.Errorf("%s: the name survived a successful unlink: %v", c.name, serr)
			}
			if rec.Detections().Has(iron.DSanity) {
				t.Errorf("%s: stock ext3 detected the bad count:\n%s", c.name, rec.Summary())
			}
			continue
		}
		if serr != nil {
			t.Errorf("%s: the refused unlink removed the entry: %v", c.name, serr)
		}
		if !rec.Detections().Has(iron.DSanity) || !rec.Recoveries().Has(iron.RPropagate) {
			t.Errorf("%s: refusal not recorded as DSanity/RPropagate:\n%s", c.name, rec.Summary())
		}
	}
}

// TestRenameOverFileWhoseFreeFails: stock ext3 frees a replaced file after
// both entries have moved, and swallows an I/O error freeing its blocks
// (§5.1). The rename itself happens: the old name is gone and the new name
// reaches the source's inode. The fault is on the block bitmap: an
// unreadable indirect block is absorbed by the prune itself and never
// reaches the rename.
func TestRenameOverFileWhoseFreeFails(t *testing.T) {
	_, fdev, _, fs := ironStack(t, Options{})
	for _, p := range []string{"/src", "/target"} {
		if err := fs.Create(p, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Write("/target", 0, make([]byte, 2*BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	src, err := fs.Stat("/src")
	if err != nil {
		t.Fatal(err)
	}
	_, tIn, err := fs.ResolveLocked("/target", true)
	if err != nil || tIn.Direct[0] == 0 {
		t.Fatalf("target maps no block: %+v, %v", tIn, err)
	}
	bm := int64(fs.gds[fs.lay.groupOf(int64(tIn.Direct[0]))].DataBitmap)
	fs = remountCold(t, fs)
	fdev.Arm(&faultinject.Fault{Class: iron.ReadFailure, Range: faultinject.BlockRange{Start: bm, End: bm + 1}, Sticky: true})

	if err := fs.Rename("/src", "/target"); err != nil {
		t.Fatalf("Rename = %v, want stock ext3's swallowed success", err)
	}
	if _, err := fs.Lstat("/src"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("/src after the rename: %v, want ErrNotExist", err)
	}
	got, err := fs.Lstat("/target")
	if err != nil || got.Ino != src.Ino {
		t.Errorf("/target after the rename = ino %d, %v; want ino %d", got.Ino, err, src.Ino)
	}
}

// TestHugeDirectorySizeWalksOnlyWhatItMaps: a directory whose size field is
// the largest ext3 accepts, over one mapped block, is listed and searched
// at the cost of what it maps: the walk skips each unallocated indirect
// tree whole instead of mapping every logical block below the size.
func TestHugeDirectorySizeWalksOnlyWhatItMaps(t *testing.T) {
	fs, _ := newTestFS(t, Options{})
	if err := fs.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/d/f", 0o644); err != nil {
		t.Fatal(err)
	}
	ino, in, err := fs.ResolveLocked("/d", true)
	if err != nil {
		t.Fatal(err)
	}
	in.Size = uint64(MaxFileSize)
	if err := fs.StoreLocked(ino, in); err != nil {
		t.Fatal(err)
	}
	// Mapping each of the 2^27 logical blocks one by one took about 1.1 s
	// per call on a 2-core x86-64 host; the bound is a tenth of that.
	const bound = 110 * time.Millisecond
	start := time.Now()
	ents, err := fs.ReadDir("/d")
	if took := time.Since(start); err != nil || len(ents) != 1 || ents[0].Name != "f" || took > bound {
		t.Errorf("ReadDir = %v, %v in %v; want [f] within %v", ents, err, took, bound)
	}
	start = time.Now()
	_, err = fs.Stat("/d/missing")
	if took := time.Since(start); !errors.Is(err, vfs.ErrNotExist) || took > bound {
		t.Errorf("lookup of a missing name = %v in %v; want ErrNotExist within %v", err, took, bound)
	}
}

// TestTruncateOverUnreadableIndirect: a cold truncate of a 13-block file
// whose indirect block cannot be read. The read failure aborts the journal
// either way, so nothing of the truncate reaches the media. Stock ext3
// notices the failure and carries on (§5.1): the truncate succeeds, and
// the volume it goes on serving has leaked the indirect block. FixBugs
// returns the error instead, and the volume it goes on serving still
// holds every block the unchanged inode maps.
func TestTruncateOverUnreadableIndirect(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
		fail bool
	}{
		{"stock", Options{}, false},
		{"FixBugs", Options{FixBugs: true}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, fdev, _, fs := ironStack(t, c.opts)
			if err := fs.Create("/f", 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Write("/f", 0, make([]byte, 13*BlockSize)); err != nil {
				t.Fatal(err)
			}
			_, in, err := fs.ResolveLocked("/f", true)
			if err != nil || in.Ind == 0 {
				t.Fatalf("/f maps no indirect block: %+v, %v", in, err)
			}
			fs = remountCold(t, fs)
			fdev.Arm(&faultinject.Fault{Class: iron.ReadFailure, Range: faultinject.BlockRange{Start: int64(in.Ind), End: int64(in.Ind) + 1}, Sticky: true})
			err = fs.Truncate("/f", 0)
			fdev.Disarm()
			if (err != nil) != c.fail {
				t.Fatalf("Truncate = %v, want an error: %v", err, c.fail)
			}
			if got := fs.Health(); got != vfs.ReadOnly {
				t.Errorf("health = %v, want ReadOnly", got)
			}
			probs, err := fs.CheckConsistency()
			if !c.fail {
				if err != nil || len(probs) != 1 || !strings.Contains(probs[0].String(), "unreachable") {
					t.Errorf("stock truncate's leak: %v, %v; want the indirect block unreachable", probs, err)
				}
			} else if err != nil || len(probs) != 0 {
				t.Errorf("the volume after the failed truncate: %v, %v; want it consistent", probs, err)
			}
			if err := New(fdev, c.opts, iron.NewRecorder()).Oracle(); err != nil {
				t.Errorf("the media after the truncate: %v", err)
			}
		})
	}
}
