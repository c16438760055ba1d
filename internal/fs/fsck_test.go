package fs

import (
	"errors"
	"reflect"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/fsck"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// buildVolume formats the named file system and populates it with enough
// structure (directories, files, data) that bitmap damage lands on both
// used and free space.
func buildVolume(t *testing.T, name string, d *disk.Disk) {
	t.Helper()
	if err := Mkfs(name, d, Options{}); err != nil {
		t.Fatal(err)
	}
	fsys, err := Mount(name, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fsys.Mkdir("/dir", 0o755); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 3*4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	for _, p := range []string{"/a", "/dir/b", "/dir/c"} {
		if err := fsys.Create(p, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := fsys.Write(p, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := fsys.Unmount(); err != nil {
		t.Fatal(err)
	}
}

// TestFsckConverges is the registry-level contract: damage the
// allocation bitmaps of every file system, then Check → Repair → Check
// must converge to a clean image the FS's own oracle accepts.
func TestFsckConverges(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			d := newDisk(t)
			buildVolume(t, name, d)
			flipped, err := DamageBitmaps(name, d, 6)
			if err != nil || flipped == 0 {
				t.Fatalf("DamageBitmaps: %d, %v", flipped, err)
			}
			res, err := Fsck(name, d, Options{}, FsckConfig{Parallel: 1, Repair: true})
			if err != nil {
				t.Fatalf("Fsck: %v (result %+v)", err, res)
			}
			if len(res.Problems) == 0 {
				t.Fatal("damaged image checked clean")
			}
			if res.Repair == nil || !res.Repair.AllFixed() {
				t.Fatalf("repair did not fix everything: %+v", res.Repair)
			}
			if !res.CleanAfter {
				t.Fatal("post-repair check still reports problems")
			}
			if err := Check(name, d, Options{}); err != nil {
				t.Fatalf("oracle rejects repaired image: %v", err)
			}
		})
	}
}

// TestFsckSerialParallelIdentical pins the pFSCK determinism contract:
// for every file system and a damaged image, the parallel check returns
// the identical problem list as the serial one. Run under -race this is
// also the data-race test for the parallel scan.
func TestFsckSerialParallelIdentical(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			d := newDisk(t)
			buildVolume(t, name, d)
			if _, err := DamageBitmaps(name, d, 9); err != nil {
				t.Fatal(err)
			}
			fsys, err := Mount(name, d, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer fsys.Unmount()
			rep, ok := AsRepairer(fsys)
			if !ok {
				t.Fatalf("%s does not implement Repairer", name)
			}
			serial, _, err := rep.CheckParallel(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(serial) == 0 {
				t.Fatal("damaged image checked clean")
			}
			for _, workers := range []int{2, 4, 7} {
				par, stats, err := rep.CheckParallel(workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial, par) {
					t.Fatalf("workers=%d: problem list diverged\nserial:   %v\nparallel: %v",
						workers, serial, par)
				}
				if len(stats.Phases) == 0 {
					t.Fatalf("workers=%d: no phase stats", workers)
				}
			}
		})
	}
}

// TestFsckCleanImage: a freshly built volume checks clean through the
// driver, and no repair report is produced.
func TestFsckCleanImage(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			d := newDisk(t)
			buildVolume(t, name, d)
			res, err := Fsck(name, d, Options{}, FsckConfig{Parallel: 4, Repair: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Problems) != 0 || !res.CleanAfter || res.Repair != nil {
				t.Fatalf("clean image: %+v", res)
			}
		})
	}
}

// TestRepairFailurePolicy pins what a repair that cannot write does, per
// file system: the device starts failing every write the moment the
// reconciliation begins. The journaling file systems that check write
// errors stop per their §5 policy with nothing claimed Fixed, and — the
// part three of them got wrong — neither the degraded mount nor a fresh
// mount of the image may then report fewer problems than the damage that
// is still on disk: a failed repair must not leave its rebuilt bitmaps in
// the cache.
func TestRepairFailurePolicy(t *testing.T) {
	type row struct {
		err    error // Repair's error
		health vfs.HealthState
		create error // a following Create's error
	}
	rows := map[string]row{
		"reiserfs": {vfs.ErrPanicked, vfs.Panicked, vfs.ErrPanicked},
		"jfs":      {vfs.ErrPanicked, vfs.Panicked, vfs.ErrPanicked}, // a log write failure is a §5.3 crash
		"ntfs":     {vfs.ErrIO, vfs.ReadOnly, vfs.ErrReadOnly},
		"ixt3":     {vfs.ErrIO, vfs.ReadOnly, vfs.ErrReadOnly},
		// §5.1: stock ext3 ignores write errors. The repair "succeeds",
		// the volume stays healthy, and the damage stays on disk.
		"ext3": {nil, vfs.Healthy, nil},
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			want := rows[name]
			d := newDisk(t)
			buildVolume(t, name, d)
			if _, err := DamageBitmaps(name, d, 6); err != nil {
				t.Fatal(err)
			}
			before, err := Fsck(name, d, Options{}, FsckConfig{})
			if err != nil || len(before.Problems) == 0 {
				t.Fatalf("pre-repair check: %d problems, %v", len(before.Problems), err)
			}
			fd := faultinject.New(d, nil)
			fsys, err := Mount(name, fd, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rep, _ := AsRepairer(fsys)
			SetRepairHooks(fsys, &fsck.RepairHooks{Begin: func() {
				fd.Arm(&faultinject.Fault{Class: iron.WriteFailure, Sticky: true})
			}})
			report, err := rep.Repair()
			if !errors.Is(err, want.err) {
				t.Fatalf("Repair error = %v, want %v", err, want.err)
			}
			if !reflect.DeepEqual(report.Found, before.Problems) {
				t.Fatalf("Found = %v, want %v", report.Found, before.Problems)
			}
			if h, _ := Health(fsys); h != want.health {
				t.Fatalf("health = %v, want %v", h, want.health)
			}
			if err := fsys.Create("/after", 0o644); !errors.Is(err, want.create) {
				t.Fatalf("Create after repair = %v, want %v", err, want.create)
			}
			fresh, err := Fsck(name, d, Options{}, FsckConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh.Problems, before.Problems) {
				t.Fatalf("fresh fsck of the image = %v, want the pre-repair list %v", fresh.Problems, before.Problems)
			}
			if want.err == nil {
				if len(report.Unrecovered) != 0 || !reflect.DeepEqual(report.Fixed, report.Found) {
					t.Fatalf("ext3 ignores the write errors and claims everything fixed; got %+v", report)
				}
				return
			}
			if len(report.Fixed) != 0 || !reflect.DeepEqual(report.Unrecovered, report.Found) {
				t.Fatalf("failed repair must fix nothing: %+v", report)
			}
			again, err := rep.CheckConsistency()
			if err != nil {
				t.Fatalf("re-check on the degraded mount: %v", err)
			}
			if !reflect.DeepEqual(again, before.Problems) {
				t.Fatalf("same-mount re-check = %v, want the pre-repair list %v", again, before.Problems)
			}
		})
	}
}
