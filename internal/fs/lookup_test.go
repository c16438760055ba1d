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

// lookupAllocs pins what a cache-resident 4 KiB read of /a/b/fileNNNN
// allocates, on every file system alike: vfs.SplitPath's four (the
// strings.Split result, then the parts slice growing to 1, 2 and 4) and one
// inode/stat struct per object on the path, the root included. Nothing per
// tree node, per directory block or per directory entry on the way.
const lookupAllocs = 4 + 4

// TestLookupAllocs gates the file-system layer's share of the host cost of
// a cached read (ROADMAP item 1b): the count is exact per file system and
// does not depend on how many entries the directory holds.
func TestLookupAllocs(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			buf := make([]byte, 4096)
			measure := func(entries int) float64 {
				fsys, path := lookupFixture(t, name, entries)
				read := func() {
					if n, err := fsys.Read(path, 0, buf); err != nil || n != len(buf) {
						t.Fatalf("Read(%s) = %d, %v", path, n, err)
					}
				}
				read() // warm the cache
				return testing.AllocsPerRun(100, read)
			}
			small, large := measure(8), measure(64)
			if large != lookupAllocs {
				t.Errorf("cached 4 KiB read in a 64-entry directory: %v allocs, pinned at %v", large, lookupAllocs)
			}
			if small != large {
				t.Errorf("allocs depend on directory size: %v with 8 entries, %v with 64", small, large)
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
