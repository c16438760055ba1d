package workload

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestSweepDeterministic is the property BENCH_5.json stands on: two runs
// of the same sweep configuration produce identical results — ops, exact
// sim time, and the full latency distribution down to p999. The goroutine
// multi-client study cannot promise this; the virtual-time dispatcher must.
func TestSweepDeterministic(t *testing.T) {
	cfg := SweepConfig{FS: "reiserfs", Workload: CreateHeavy, Clients: 16, QueueDepth: 8, Quick: true}
	a, err := RunSweepPoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweepPoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(SweepRow{Baseline: a, Concurrent: a}.JSON())
	bj, _ := json.Marshal(SweepRow{Baseline: b, Concurrent: b}.JSON())
	if !bytes.Equal(aj, bj) {
		t.Fatalf("two identical sweep runs diverged:\n%s\n%s", aj, bj)
	}
	if a.Ops == 0 || a.SimTime == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
}

// TestSweepLadderFits runs the heaviest configuration — 256 createheavy
// clients — on the two file systems with fixed-size record tables, proving
// the live-window discipline keeps them inside capacity.
func TestSweepLadderFits(t *testing.T) {
	if testing.Short() {
		t.Skip("256-client ladder point is not a -short test")
	}
	for _, name := range []string{"jfs", "ntfs"} {
		rep, err := RunSweepPoint(SweepConfig{
			FS: name, Workload: CreateHeavy, Clients: 256, QueueDepth: 32, Quick: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Ops != 256*(1+swQuickFiles*3+swQuickFiles-swLiveWindow) {
			t.Fatalf("%s: completed %d ops", name, rep.Ops)
		}
	}
}

// TestSweepSpeedupGate is the one statement of the sweep-scale floor:
// reiserfs createheavy under 64 clients must beat the serial baseline by
// ≥ 2.5×, and both runs' latency quantiles must be plausible order
// statistics. scripts/check.sh runs it (go test) and separately holds the
// quick sweep's serialization byte-identical across two runs.
func TestSweepSpeedupGate(t *testing.T) {
	base, err := RunSweepPoint(SweepConfig{FS: "reiserfs", Workload: CreateHeavy, Clients: 1, QueueDepth: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	conc, err := RunSweepPoint(SweepConfig{FS: "reiserfs", Workload: CreateHeavy, Clients: 64, QueueDepth: 32, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	row := SweepRow{Baseline: base, Concurrent: conc}
	if s := row.Speedup(); s < 2.5 {
		t.Fatalf("reiserfs createheavy speedup at 64 clients = %.2fx, want >= 2.5x", s)
	}
	j := row.JSON()
	for _, run := range []MultiClientRunJSON{j.Baseline, j.Concurrent} {
		if !(0 < run.P50Ns && run.P50Ns <= run.P99Ns && run.P99Ns <= run.P999Ns) {
			t.Errorf("implausible latency quantiles at %d clients: p50=%d p99=%d p999=%d",
				run.Clients, run.P50Ns, run.P99Ns, run.P999Ns)
		}
	}
}
