package fs

import (
	"fmt"
	"runtime"
	"testing"

	"ironfs/internal/sched"
)

// TestCommitAllocs: once the journal's frames circulate, a commit copies
// its frozen payloads into frames of the running transaction's, not into
// fresh 4 KiB blocks. A steady create / write one block / fsync / unlink
// loop on the scheduled stack is priced in bytes per iteration, each of
// which commits once. Each bound sits less than 4 KiB above what the loop
// allocates (the per-operation staging images and the log's descriptor
// and commit records), so one fresh frozen block per commit fails it;
// copying every frozen block into a new one, as a freeze once did, costs
// 16–37 KiB more.
func TestCommitAllocs(t *testing.T) {
	const warm, loops = 200, 400
	bound := map[string]float64{"ext3": 21 << 10, "ixt3": 25 << 10, "reiserfs": 56 << 10, "jfs": 42 << 10, "ntfs": 64 << 10}
	body := txnPayload(0xC4, 1)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			v, err := MountVolume(MountOpts{FS: name, Opts: txnOptions(name), Blocks: 8192,
				QueueDepth: 32, SchedPolicy: sched.PolicyAdaptive})
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			loop := func() {
				path := fmt.Sprintf("/c%d", i%8)
				i++
				if err := v.FS.Create(path, 0o644); err != nil {
					t.Fatal(err)
				}
				if n, err := v.FS.Write(path, 0, body); err != nil || n != len(body) {
					t.Fatalf("write %s: %d, %v", path, n, err)
				}
				if err := v.FS.Fsync(path); err != nil {
					t.Fatal(err)
				}
				if err := v.FS.Unlink(path); err != nil {
					t.Fatal(err)
				}
			}
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
			if per > bound[name] {
				t.Errorf("%.0f bytes per committed iteration, want at most %.0f", per, bound[name])
			}
		})
	}
}
