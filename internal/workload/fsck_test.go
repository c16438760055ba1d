package workload

import (
	"encoding/json"
	"os"
	"testing"
)

// TestFsckBenchMatchesPin reruns the fsck study and holds it to the
// committed BENCH_2.json. The serial run is deterministic to the
// nanosecond — simulated disk time, and a CPU term that is the per-phase
// unit counts and worker folds of the scan — so it must match exactly, as
// must the parallel run's problem count and CPU term. The parallel run's
// disk time depends on the order goroutines reach the disk arm, so it is
// held only through the speedup floors the parallel scan is graded
// against.
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
	floors := map[string]float64{"reiserfs": 2, "jfs": 2, "ntfs": 2}
	for _, want := range pin.Fsck {
		t.Run(want.FS, func(t *testing.T) {
			row, err := RunFsckBench(want.FS, want.Parallel.Workers)
			if err != nil {
				t.Fatal(err)
			}
			got := row.JSON()
			if got.Flips != want.Flips || got.Serial != want.Serial {
				t.Errorf("serial run moved:\n got %+v\nwant %+v", got.Serial, want.Serial)
			}
			if got.Parallel.Workers != want.Parallel.Workers || got.Parallel.Problems != want.Parallel.Problems ||
				got.Parallel.CPUTimeNs != want.Parallel.CPUTimeNs {
				t.Errorf("parallel run moved:\n got %+v\nwant %+v", got.Parallel, want.Parallel)
			}
			if got.Speedup < floors[want.FS] {
				t.Errorf("speedup %.2fx is under the %.1fx floor", got.Speedup, floors[want.FS])
			}
		})
	}
}
