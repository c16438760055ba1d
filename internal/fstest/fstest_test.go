package fstest

// The harness must be able to fail: these tests feed it deliberately
// broken file systems and demand a divergence report — a test of the
// tests, so the green model runs elsewhere mean something.

import (
	"strings"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/fs/ext3"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

func goodFS(t *testing.T) vfs.FileSystem {
	t.Helper()
	d, err := disk.New(modelBlocks, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ext3.Mkfs(d, ext3.Options{}); err != nil {
		t.Fatal(err)
	}
	fs := ext3.New(d, ext3.Options{}, nil)
	if err := fs.Mount(); err != nil {
		t.Fatal(err)
	}
	return fs
}

// lyingFS wraps a correct file system but silently truncates every write
// to half its length — a subtle corruption the harness must notice.
type lyingFS struct {
	vfs.FileSystem
}

func (l *lyingFS) Write(path string, off int64, data []byte) (int, error) {
	if len(data) > 1 {
		if _, err := l.FileSystem.Write(path, off, data[:len(data)/2]); err != nil {
			return 0, err
		}
	} else if _, err := l.FileSystem.Write(path, off, data); err != nil {
		return 0, err
	}
	return len(data), nil // claims the full write happened
}

// forgetfulFS drops every third create.
type forgetfulFS struct {
	vfs.FileSystem
	n int
}

func (f *forgetfulFS) Create(path string, mode uint16) error {
	f.n++
	if f.n%3 == 0 {
		return nil // claims success, does nothing
	}
	return f.FileSystem.Create(path, mode)
}

// selfRenameFS has the bug a rename to its own name once had on every
// file system: the file is unlinked and reported missing.
type selfRenameFS struct {
	vfs.FileSystem
}

func (f *selfRenameFS) Rename(oldpath, newpath string) error {
	if oldpath == newpath && f.FileSystem.Unlink(oldpath) == nil {
		return vfs.ErrNotExist
	}
	return f.FileSystem.Rename(oldpath, newpath)
}

// tailCutFS has the bug reiserfs's truncate once had: a file stored inline
// (only ever written within the first 2048 bytes) that a truncate grew
// panics when cut to a size still past its inline data.
type tailCutFS struct {
	vfs.FileSystem
	// inline is each inline file's data length, by inode.
	inline map[uint32]int64
}

func (f *tailCutFS) Create(path string, mode uint16) error {
	err := f.FileSystem.Create(path, mode)
	if st, serr := f.FileSystem.Stat(path); err == nil && serr == nil {
		delete(f.inline, st.Ino)
	}
	return err
}

func (f *tailCutFS) Write(path string, off int64, data []byte) (int, error) {
	if st, err := f.FileSystem.Stat(path); err == nil {
		_, ok := f.inline[st.Ino]
		if end := max(off+int64(len(data)), st.Size); (ok || st.Size == 0) && end <= 2048 {
			f.inline[st.Ino] = end
		} else {
			delete(f.inline, st.Ino)
		}
	}
	return f.FileSystem.Write(path, off, data)
}

func (f *tailCutFS) Truncate(path string, size int64) error {
	if st, err := f.FileSystem.Stat(path); err == nil {
		if n, ok := f.inline[st.Ino]; ok {
			if n < size && size < st.Size {
				return vfs.ErrPanicked
			}
			f.inline[st.Ino] = min(n, size)
		}
	}
	return f.FileSystem.Truncate(path, size)
}

func TestHarnessPassesCorrectFS(t *testing.T) {
	if _, err := Run(goodFS(t), 99); err != nil {
		t.Fatalf("correct file system failed the harness: %v", err)
	}
}

func TestHarnessCatchesShortWrites(t *testing.T) {
	_, err := Run(&lyingFS{goodFS(t)}, 3)
	if err == nil {
		t.Fatal("the harness missed a file system that truncates writes")
	}
	if !strings.Contains(err.Error(), "divergence") {
		t.Fatalf("unexpected failure mode: %v", err)
	}
}

func TestHarnessCatchesLostCreates(t *testing.T) {
	if _, err := Run(&forgetfulFS{FileSystem: goodFS(t)}, 5); err == nil {
		t.Fatal("the harness missed a file system that drops creates")
	}
}

// TestHarnessCatchesNamespaceMutants: each bug below once passed every
// per-file-system model run and was caught only by a hand-written
// conformance row. Some seed of the eight CheckModel runs must catch it.
func TestHarnessCatchesNamespaceMutants(t *testing.T) {
	for _, c := range []struct {
		name string
		wrap func(vfs.FileSystem) vfs.FileSystem
		op   string // the op the divergence must name
	}{
		{"self-rename unlinks", func(f vfs.FileSystem) vfs.FileSystem { return &selfRenameFS{f} }, "rename("},
		{"cut of a grown tail panics", func(f vfs.FileSystem) vfs.FileSystem {
			return &tailCutFS{FileSystem: f, inline: map[uint32]int64{}}
		}, "truncate("},
	} {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				_, err := Run(c.wrap(goodFS(t)), seed)
				if err != nil && !strings.Contains(err.Error(), c.op) {
					t.Fatalf("seed %d: not the mutant's divergence: %v", seed, err)
				}
				if err != nil {
					t.Logf("seed %d: %v", seed, err)
					return
				}
			}
			t.Fatal("no seed caught the mutant")
		})
	}
}

func TestCrashSweepCatchesFlakyFsync(t *testing.T) {
	// A "file system" whose fsync only really commits every other call
	// claims durability it doesn't have; some crash point must expose a
	// lost file.
	target := ExploreTarget{
		Name: "ext3-flaky-fsync",
		Mkfs: func(dev disk.Device) error { return ext3.Mkfs(dev, ext3.Options{}) },
		New: func(dev disk.Device, rec *iron.Recorder) vfs.FileSystem {
			return &flakyFsyncFS{FileSystem: ext3.New(dev, ext3.Options{}, rec)}
		},
	}
	points, err := SweepCrashes(target)
	if err == nil {
		t.Fatal("the crash sweep passed a file system whose fsync is a lie")
	}
	t.Logf("after %d crash points: %v", points, err)
}

// flakyFsyncFS claims success on odd fsync calls without doing anything.
type flakyFsyncFS struct {
	vfs.FileSystem
	n int
}

func (f *flakyFsyncFS) Fsync(path string) error {
	f.n++
	if f.n%2 == 1 {
		return nil // durability lie
	}
	return f.FileSystem.Fsync(path)
}
