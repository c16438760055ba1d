package fs

import (
	"fmt"
	"runtime"
	"testing"

	"ironfs/internal/sched"
)

// commitLoop mounts name on the scheduled stack and returns one iteration
// of a steady create / write one block / fsync / unlink loop, which
// commits once.
func commitLoop(tb testing.TB, name string) func() {
	tb.Helper()
	v, err := MountVolume(MountOpts{FS: name, Opts: txnOptions(name), Blocks: 8192,
		QueueDepth: 32, SchedPolicy: sched.PolicyAdaptive})
	if err != nil {
		tb.Fatal(err)
	}
	body := txnPayload(0xC4, 1)
	i := 0
	return func() {
		path := fmt.Sprintf("/c%d", i%8)
		i++
		if err := v.FS.Create(path, 0o644); err != nil {
			tb.Fatal(err)
		}
		if n, err := v.FS.Write(path, 0, body); err != nil || n != len(body) {
			tb.Fatalf("write %s: %d, %v", path, n, err)
		}
		if err := v.FS.Fsync(path); err != nil {
			tb.Fatal(err)
		}
		if err := v.FS.Unlink(path); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestCommitAllocs: once the journal's frames circulate, every 4 KiB block
// the commit path writes comes from the frame pool, not from a fresh
// allocation: the frozen copies, the log's records and header blocks,
// jfs's packed log blocks, ReiserFS's node images, the written data block
// (and ixt3's parity block) and the scheduler's queued copies; the plans'
// request and type slices are kept across commits too. commitLoop is priced in bytes per iteration: 195–520
// bytes, 257–627 under -race. The bound sits 1.4 KiB above the most,
// so one fresh 4 KiB block per commit fails it on every file system;
// copying every frozen block into a new one, as a freeze once did, costs
// 16–37 KiB more.
func TestCommitAllocs(t *testing.T) {
	const warm, loops, bound = 200, 400, 2 << 10
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			loop := commitLoop(t, name)
			for range warm {
				loop()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range loops {
				loop()
			}
			runtime.ReadMemStats(&after)
			per := float64(after.TotalAlloc-before.TotalAlloc) / loops
			t.Logf("%.0f bytes, %.1f allocations per iteration", per, float64(after.Mallocs-before.Mallocs)/loops)
			if per > bound {
				t.Errorf("%.0f bytes per committed iteration, want at most %d", per, bound)
			}
		})
	}
}

// BenchmarkCommitLoop prices commitLoop's iteration, one commit each, on
// every file system; run with -benchmem for bytes per committed operation.
func BenchmarkCommitLoop(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			loop := commitLoop(b, name)
			for range 200 {
				loop()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loop()
			}
		})
	}
}
