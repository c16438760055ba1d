package fs

import (
	"fmt"
	"testing"

	"ironfs/internal/vfs"
)

// lookupFixture mounts name (noatime, so a read stages nothing) and builds
// /a/b holding entries two-block files; it returns the file system and the
// path of the last file created — the one a linear directory scan reaches
// last.
func lookupFixture(tb testing.TB, name string, entries int) (vfs.FileSystem, string) {
	tb.Helper()
	v, err := MountVolume(MountOpts{FS: name, Opts: Options{NoAtime: true}, Blocks: 8192})
	if err != nil {
		tb.Fatal(err)
	}
	for _, dir := range []string{"/a", "/a/b"} {
		if err := v.FS.Mkdir(dir, 0o755); err != nil {
			tb.Fatal(err)
		}
	}
	body := make([]byte, 2*4096)
	var path string
	for i := 0; i < entries; i++ {
		path = fmt.Sprintf("/a/b/file%04d", i)
		if err := v.FS.Create(path, 0o644); err != nil {
			tb.Fatal(err)
		}
		if _, err := v.FS.Write(path, 0, body); err != nil {
			tb.Fatal(err)
		}
	}
	if err := v.FS.Sync(); err != nil {
		tb.Fatal(err)
	}
	return v.FS, path
}

// TestLookupAllocs gates the file-system layer's share of the host cost of
// a cached read: on every file system alike, a cache-resident 4 KiB read
// of /a/b/fileNNNN — and a Stat, Lstat or Open of it — allocates nothing.
// The path splits into a stack array and every object on the path is a
// node passed by value, so nothing is allocated per component, per tree
// node, per directory block or per directory entry, and the count does not
// depend on how many entries the directory holds.
func TestLookupAllocs(t *testing.T) {
	buf := make([]byte, 4096)
	ops := []struct {
		name string
		run  func(vfs.FileSystem, string) error
	}{
		{"Read", func(fsys vfs.FileSystem, path string) error {
			n, err := fsys.Read(path, 0, buf)
			if err == nil && n != len(buf) {
				return fmt.Errorf("short read %d", n)
			}
			return err
		}},
		{"Stat", func(fsys vfs.FileSystem, path string) error { _, err := fsys.Stat(path); return err }},
		{"Lstat", func(fsys vfs.FileSystem, path string) error { _, err := fsys.Lstat(path); return err }},
		{"Open", func(fsys vfs.FileSystem, path string) error { return fsys.Open(path) }},
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			for _, entries := range []int{8, 64} {
				fsys, path := lookupFixture(t, name, entries)
				for _, op := range ops {
					var err error
					call := func() {
						if e := op.run(fsys, path); e != nil {
							err = e
						}
					}
					call() // warm the cache
					n := testing.AllocsPerRun(100, call)
					if err != nil {
						t.Fatalf("%s %s: %v", op.name, path, err)
					}
					if n != 0 {
						t.Errorf("cached %s in a %d-entry directory: %v allocs, want 0", op.name, entries, n)
					}
				}
			}
		})
	}
}

// BenchmarkPathLookup prices one path resolution (Stat of a file two
// directories deep in a 64-entry directory) on a warm cache.
func BenchmarkPathLookup(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			fsys, path := lookupFixture(b, name, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fsys.Stat(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
