package workload

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestTable6MatchesPin reruns the full Table 6 sweep and the space study
// and holds them to the committed BENCH_0.json (ironbench -space -json).
// Both are deterministic to the nanosecond and the block, so every cell's
// simulated time and every space row must match exactly; the sweep must
// also still draw §6.2's conclusions. Every Mc row last moved 60–83 ms
// faster per cell when the superblock began to carry its own checksum: a
// superblock write no longer rewrites a checksum-table block too.
func TestTable6MatchesPin(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_0.json")
	if err != nil {
		t.Fatal(err)
	}
	var pin BenchJSON
	if err := json.Unmarshal(raw, &pin); err != nil {
		t.Fatal(err)
	}
	if pin.Table6 == nil || len(pin.Table6.Rows) != len(Variants()) || len(pin.Space) != len(Profiles()) {
		t.Fatalf("BENCH_0.json holds no full Table 6 and space study")
	}
	tb, err := RunTable6(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := tb.JSON()
	if !reflect.DeepEqual(got.Benchmarks, pin.Table6.Benchmarks) {
		t.Fatalf("benchmarks %v, pinned %v", got.Benchmarks, pin.Table6.Benchmarks)
	}
	for i, want := range pin.Table6.Rows {
		row := got.Rows[i]
		if row.Variant != want.Variant {
			t.Errorf("row %d is %q, pinned %q", i, row.Variant, want.Variant)
			continue
		}
		for _, b := range got.Benchmarks {
			if g, w := row.Cells[b].SimTimeNs, want.Cells[b].SimTimeNs; g != w {
				t.Errorf("row %d (%s) %s: %d ns, pinned %d", i, row.Variant, b, g, w)
			}
		}
	}
	table6Conclusions(t, tb)

	for i, p := range Profiles() {
		r, err := RunSpaceStudy(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if r.JSON() != pin.Space[i] {
			t.Errorf("space %s: %+v, pinned %+v", p.Name, r.JSON(), pin.Space[i])
		}
	}
}
