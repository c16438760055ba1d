package fs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/fs/ext3"
	"ironfs/internal/fs/jfs"
	"ironfs/internal/fs/reiser"
	"ironfs/internal/fsck"
	"ironfs/internal/iron"
	"ironfs/internal/namei"
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

// freeCounters locates each file system's free counters on the raw image:
// the block type the resolver gives the block holding one, the byte
// offsets of its copies there (jfs's bmap descriptor stores Free twice,
// and mount checks that they agree), its width, and the problem a skew
// must raise. ntfs keeps no free counter.
var freeCounters = map[string][]struct {
	bt    iron.BlockType
	offs  []int
	width int
	kind  string
}{
	"ext3":     {{ext3.BTGDesc, []int{24}, 4, "free-blocks"}, {ext3.BTGDesc, []int{28}, 4, "free-inodes"}},
	"ixt3":     {{ext3.BTGDesc, []int{24}, 4, "free-blocks"}, {ext3.BTGDesc, []int{28}, 4, "free-inodes"}},
	"reiserfs": {{reiser.BTSuper, []int{16}, 8, "free-blocks"}},
	"jfs":      {{jfs.BTBMapDesc, []int{16, 24}, 8, "free-blocks"}, {jfs.BTIMapCtl, []int{16}, 8, "free-inodes"}},
}

// TestFsckFreeCounts: on a clean image with one free counter skewed, the
// check reports the counter against the bitmap as a typed problem, and
// Check → Repair → Check converges to an image the oracle accepts.
func TestFsckFreeCounts(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			counters, ok := freeCounters[name]
			if !ok {
				t.Skipf("%s keeps no free counter", name)
			}
			for _, ctr := range counters {
				d := newDisk(t)
				buildVolume(t, name, d)
				skewCounter(t, name, d, ctr.bt, ctr.offs, ctr.width)
				res, err := Fsck(name, d, Options{}, FsckConfig{Parallel: 1, Repair: true})
				if err != nil {
					t.Fatalf("%s: Fsck: %v (result %+v)", ctr.kind, err, res)
				}
				if len(res.Problems) != 1 || res.Problems[0].Kind != ctr.kind {
					t.Fatalf("skewed %s counter: problems %v, want one %q", ctr.bt, res.Problems, ctr.kind)
				}
				if res.Repair == nil || !res.Repair.AllFixed() || !res.CleanAfter {
					t.Fatalf("%s: repair %+v, clean after %v", ctr.kind, res.Repair, res.CleanAfter)
				}
				if err := Check(name, d, Options{}); err != nil {
					t.Fatalf("%s: oracle rejects repaired image: %v", ctr.kind, err)
				}
			}
		})
	}
}

// skewCounter adds one to the little-endian counter of the given width at
// each of offs in the first block the resolver classifies as bt.
func skewCounter(t *testing.T, name string, raw *disk.Disk, bt iron.BlockType, offs []int, width int) {
	t.Helper()
	e, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	res := e.resolver(raw)
	for blk := int64(0); blk < raw.NumBlocks(); blk++ {
		if res.Classify(blk) != bt {
			continue
		}
		buf := make([]byte, raw.BlockSize())
		if err := raw.ReadRaw(blk, buf); err != nil {
			t.Fatal(err)
		}
		for _, off := range offs {
			for i := off; i < off+width; i++ {
				if buf[i]++; buf[i] != 0 {
					break
				}
			}
		}
		if err := raw.WriteBlock(blk, buf); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("no %s block on the %s image", bt, name)
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

// sparseVolume formats and mounts the named file system on a 16 MiB disk
// and creates /f, written with one byte at off — or, past the format's
// size limit, at its last byte.
func sparseVolume(t *testing.T, name string, off int64) (*disk.Disk, vfs.FileSystem, int64) {
	t.Helper()
	d := newDisk(t)
	if err := Mkfs(name, d, Options{}); err != nil {
		t.Fatal(err)
	}
	fsys, err := Mount(name, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lim, ok := fileLimits[name]; ok && off >= lim {
		off = lim - 1
	}
	if err := fsys.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Write("/f", off, []byte("x")); err != nil {
		t.Fatal(err)
	}
	return d, fsys, off
}

// TestSparseTruncateChecksClean: a sparse file cut back to its last byte's
// offset and then to nothing frees every block it mapped. ext3 and ixt3
// used to leak the indirect block the first cut emptied: its range began
// below the cut, so it stayed allocated while its parent was freed.
func TestSparseTruncateChecksClean(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			d, fsys, off := sparseVolume(t, name, 1<<30)
			for _, size := range []int64{off, 0} {
				if err := fsys.Truncate("/f", size); err != nil {
					t.Fatal(err)
				}
			}
			if err := fsys.Unmount(); err != nil {
				t.Fatal(err)
			}
			if err := Check(name, d, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSparseFileChecksClean: a file larger than the volume, legal where its
// blocks are holes, checks clean and needs no repair. ext3 and ixt3 used
// to stop the census's block walk at the volume's size, so the file's one
// data block went unclaimed and its size was called damage.
func TestSparseFileChecksClean(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			d, fsys, _ := sparseVolume(t, name, 64<<20)
			if err := fsys.Unmount(); err != nil {
				t.Fatal(err)
			}
			if err := Check(name, d, Options{}); err != nil {
				t.Fatal(err)
			}
			res, err := Fsck(name, d, Options{}, FsckConfig{Parallel: 1, Repair: true})
			if err != nil || len(res.Problems) != 0 || !res.CleanAfter {
				t.Fatalf("Fsck: %v, problems %v, clean after %v", err, res.Problems, res.CleanAfter)
			}
		})
	}
}

// TestFsckBadSize: an ext3 inode whose size field is past MaxFileSize is
// one typed bad-size problem, not a check that stops on it, and repair
// cuts the size back to the end of the inode's last mapped block, as
// e2fsck does: a file keeps its bytes, a directory its entries.
func TestFsckBadSize(t *testing.T) {
	const oddSize = 3*4096 + 17
	le := binary.LittleEndian
	for _, name := range []string{"ext3", "ixt3"} {
		for _, c := range []struct {
			what  string
			match func(slot []byte) bool // picks the inode to corrupt
			size  int64                  // its size after repair
		}{
			{"file", func(s []byte) bool { return le.Uint64(s[12:]) == oddSize }, 4 * 4096},
			{"directory", func() func([]byte) bool {
				dirs := 0 // the root comes first in the table, /dir second
				return func(s []byte) bool {
					if le.Uint16(s[0:])&namei.ModeTypeMsk == namei.ModeDir {
						dirs++
						return dirs == 2
					}
					return false
				}
			}(), 4096},
		} {
			t.Run(name+"/"+c.what, func(t *testing.T) {
				d := newDisk(t)
				buildVolume(t, name, d)
				fsys, err := Mount(name, d, Options{})
				if err != nil {
					t.Fatal(err)
				}
				payload := txnPayload(0x5A, 4)[:oddSize]
				writeFile(t, fsys, "/odd", payload)
				if err := fsys.Unmount(); err != nil {
					t.Fatal(err)
				}
				setInodeSize(t, name, d, c.match, 1<<62)

				res, err := Fsck(name, d, Options{}, FsckConfig{Parallel: 1, Repair: true})
				if err != nil {
					t.Fatalf("Fsck: %v (result %+v)", err, res)
				}
				if len(res.Problems) != 1 || res.Problems[0].Kind != "bad-size" {
					t.Fatalf("problems %v, want one bad-size", res.Problems)
				}
				if res.Repair == nil || !res.Repair.AllFixed() || !res.CleanAfter {
					t.Fatalf("repair %+v, clean after %v", res.Repair, res.CleanAfter)
				}
				if err := Check(name, d, Options{}); err != nil {
					t.Fatalf("oracle rejects the repaired image: %v", err)
				}
				again, err := Mount(name, d, Options{})
				if err != nil {
					t.Fatal(err)
				}
				path := map[string]string{"file": "/odd", "directory": "/dir"}[c.what]
				if fi, err := again.Stat(path); err != nil || fi.Size != c.size {
					t.Fatalf("%s after repair: size %d, %v; want %d", path, fi.Size, err, c.size)
				}
				got := make([]byte, oddSize)
				if n, err := again.Read("/odd", 0, got); err != nil || n != oddSize || !bytes.Equal(got, payload) {
					t.Fatalf("/odd after repair reads %d bytes, %v, equal %v", n, err, bytes.Equal(got, payload))
				}
				if ents, err := again.ReadDir("/dir"); err != nil || len(ents) != 2 {
					t.Fatalf("/dir after repair lists %v, %v; want b and c", ents, err)
				}
			})
		}
	}
}

// setInodeSize writes size into the size field of the one inode slot on
// the image that match picks.
func setInodeSize(t *testing.T, name string, raw *disk.Disk, match func(slot []byte) bool, size uint64) {
	t.Helper()
	res, err := NewResolver(name, raw)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	buf := make([]byte, raw.BlockSize())
	for blk := int64(0); blk < raw.NumBlocks(); blk++ {
		if res.Classify(blk) != ext3.BTInode {
			continue
		}
		if err := raw.ReadRaw(blk, buf); err != nil {
			t.Fatal(err)
		}
		hit := false
		for off := 0; off < len(buf); off += ext3.InodeSize {
			if slot := buf[off : off+ext3.InodeSize]; match(slot) {
				binary.LittleEndian.PutUint64(slot[12:], size)
				found, hit = found+1, true
			}
		}
		if hit {
			if err := raw.WriteBlock(blk, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	if found != 1 {
		t.Fatalf("%d inodes match, want 1", found)
	}
}
