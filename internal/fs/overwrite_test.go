package fs

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ironfs/internal/stat"
)

// partialOverwrite mounts name with four files of 512 blocks — 2 048 in
// all, the cache's size, so with the metadata beside them most blocks have
// left the cache by the time the cycle comes back — and returns one op: a
// 5-byte overwrite inside the next block of the cycle, a read-for-modify,
// with a Sync every 64 writes.
func partialOverwrite(tb testing.TB, name string) func() {
	tb.Helper()
	const files, blocks = 4, 512
	v, err := MountVolume(MountOpts{FS: name, Opts: raOptions(name), Blocks: 16384})
	if err != nil {
		tb.Fatal(err)
	}
	body := raFile("over", blocks)
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/o%d", i)
		if err := v.FS.Create(paths[i], 0o644); err != nil {
			tb.Fatal(err)
		}
		if _, err := v.FS.Write(paths[i], 0, body); err != nil {
			tb.Fatal(err)
		}
	}
	if err := v.FS.Sync(); err != nil {
		tb.Fatal(err)
	}
	patch := []byte("patch")
	i := 0
	return func() {
		p, blk := paths[i/blocks%files], i%blocks
		off := int64(blk*txnBlock + i*97%(txnBlock-len(patch)))
		if n, err := v.FS.Write(p, off, patch); err != nil || n != len(patch) {
			tb.Fatalf("write %s at %d: %d, %v", p, off, n, err)
		}
		i++
		if i%64 == 0 {
			if err := v.FS.Sync(); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestPartialOverwriteAllocs: a partial overwrite reads the block it
// patches into a frame of the cache's (bcache.Cache.Modify), which the
// write stages and the commit recycles, so once frames circulate the
// read-for-modify allocates no 4 KiB buffer of its own. partialOverwrite's
// op is priced in bytes after a warm-up cycle: a read-for-modify that
// makes a buffer on every miss costs 2.6–4.1 KiB an op on ext3, ixt3 and
// jfs, which the bound fails.
func TestPartialOverwriteAllocs(t *testing.T) {
	const ops, bound = 2048, 1 << 10
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			op := partialOverwrite(t, name)
			for range ops {
				op()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range ops {
				op()
			}
			runtime.ReadMemStats(&after)
			per := float64(after.TotalAlloc-before.TotalAlloc) / ops
			t.Logf("%.0f bytes, %.2f allocations per op", per, float64(after.Mallocs-before.Mallocs)/ops)
			if per > bound {
				t.Errorf("%.0f bytes per partial overwrite, want at most %d", per, bound)
			}
		})
	}
}

// BenchmarkPartialOverwrite prices partialOverwrite's op on every file
// system; run with -benchmem for the bytes a read-for-modify allocates.
func BenchmarkPartialOverwrite(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			op := partialOverwrite(b, name)
			for range 2048 {
				op()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// TestPartialOverwriteLooksUpOnce: a 5-byte overwrite of a block the cache
// does not hold reads it from the device once and counts one miss — the
// read-for-modify's one lookup — on every file system; ixt3 also reads its
// parity block, two of each. The file's metadata is brought back by a read
// of its first block, so the overwrite of its second misses on data alone.
func TestPartialOverwriteLooksUpOnce(t *testing.T) {
	want := map[string][2]int64{"ext3": {1, 1}, "reiserfs": {1, 1}, "jfs": {1, 1}, "ntfs": {1, 1}, "ixt3": {2, 2}}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			reg := stat.NewRegistry()
			defer stat.SetDefault(stat.SetDefault(reg))
			v, err := MountVolume(MountOpts{FS: name, Opts: raOptions(name)})
			if err != nil {
				t.Fatal(err)
			}
			if err := v.FS.Create("/f", 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := v.FS.Write("/f", 0, raFile("/f", 2)); err != nil {
				t.Fatal(err)
			}
			dropCaches(t, v.FS)
			if n, err := v.FS.Read("/f", 0, make([]byte, txnBlock)); err != nil || n != txnBlock {
				t.Fatalf("read block 0: %d, %v", n, err)
			}
			reads, misses := v.Disk.Stats().Reads, countMisses(reg)
			if n, err := v.FS.Write("/f", txnBlock+100, []byte("patch")); err != nil || n != 5 {
				t.Fatalf("overwrite: %d, %v", n, err)
			}
			got := [2]int64{v.Disk.Stats().Reads - reads, countMisses(reg) - misses}
			if got != want[name] {
				t.Errorf("a 5-byte overwrite of an uncached block cost %d device reads and %d misses, want %d and %d",
					got[0], got[1], want[name][0], want[name][1])
			}
			patched := raBlock("/f", 1)
			copy(patched[100:], "patch")
			buf := make([]byte, txnBlock)
			if n, err := v.FS.Read("/f", txnBlock, buf); err != nil || n != txnBlock || !bytes.Equal(buf, patched) {
				t.Fatalf("the overwritten block reads back wrong: %d, %v", n, err)
			}
		})
	}
}

// countMisses sums reg's bcache miss counters over every shard.
func countMisses(reg *stat.Registry) int64 {
	var n int64
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Key, "bcache_ops_total{op=miss,") {
			n += c.Value
		}
	}
	return n
}
