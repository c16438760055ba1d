package workload

import (
	"encoding/json"
	"os"
	"testing"
)

// TestFsckBenchMatchesPin reruns the fsck study and holds it to the
// committed BENCH_2.json, every row whole. Both runs are deterministic to
// the nanosecond: the CPU term is the per-phase unit counts and worker
// folds of the scan, and the disk term is the serial scan's reads in the
// serial order whatever the worker count, because every parallel stage
// reads its blocks in serially before it fans out. The parallel scan must
// also beat the serial one by at least 2x on every file system.
func TestFsckBenchMatchesPin(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_2.json")
	if err != nil {
		t.Fatal(err)
	}
	var pin BenchJSON
	if err := json.Unmarshal(raw, &pin); err != nil {
		t.Fatal(err)
	}
	if len(pin.Fsck) != 5 {
		t.Fatalf("BENCH_2.json has %d fsck rows, want one per file system", len(pin.Fsck))
	}
	const floor = 2
	for _, want := range pin.Fsck {
		t.Run(want.FS, func(t *testing.T) {
			row, err := RunFsckBench(want.FS, want.Parallel.Workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := row.JSON(); got != want {
				t.Errorf("row moved:\n got %+v\nwant %+v", got, want)
			}
			if row.Par.DiskTime != row.Serial.DiskTime {
				t.Errorf("parallel disk time %v, serial %v", row.Par.DiskTime, row.Serial.DiskTime)
			}
			if got := row.Speedup(); got < floor {
				t.Errorf("speedup %.2fx is under the %dx floor", got, floor)
			}
		})
	}
}
