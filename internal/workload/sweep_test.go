package workload

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"ironfs/internal/fs"
)

// opsPerClient is one client's exact operation count: every client
// completes its full script or the run errors, so a shortfall means lost
// operations.
func opsPerClient(wl string, quick bool) int {
	if wl == SeqRead {
		passes := swReadPasses
		if quick {
			passes = swQuickReadPasses
		}
		return passes * mcDocFiles * (mcDocSize / mcReadChunk)
	}
	files := swFilesPerClient
	if quick {
		files = swQuickFiles
	}
	// mkdir, then create/write/fsync per file, and an unlink for every
	// file that falls out of the live window.
	return 1 + files*3 + files - swLiveWindow
}

// TestSweepDeterministic is the property BENCH_5.json stands on: two runs
// of the same sweep configuration produce identical results — ops, exact
// sim time, and the full latency distribution down to p999.
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

// TestMultiClientAllFS runs both workloads with four modeled clients over
// the scheduler for every registered file system and holds the exact op
// count. The goroutine soak of each file system's locking is
// TestMountVolumeConcurrentClients in internal/fs.
func TestMultiClientAllFS(t *testing.T) {
	const clients, depth = 4, 16
	for _, name := range fs.Names() {
		for _, wl := range MultiClientWorkloads() {
			t.Run(name+"/"+wl, func(t *testing.T) {
				rep, err := RunSweepPoint(SweepConfig{
					FS: name, Workload: wl, Clients: clients, QueueDepth: depth, Quick: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if want := clients * opsPerClient(wl, true); rep.Ops != want {
					t.Errorf("Ops = %d, want %d", rep.Ops, want)
				}
				if rep.Lat.Count() != int64(rep.Ops) {
					t.Errorf("latency histogram holds %d samples, want %d", rep.Lat.Count(), rep.Ops)
				}
				if rep.SimTime <= 0 || rep.OpsPerSec <= 0 {
					t.Errorf("SimTime = %v, OpsPerSec = %v", rep.SimTime, rep.OpsPerSec)
				}
				// The scheduler actually saw traffic: mount/populate and
				// the workload write through it at depth > 1.
				if rep.Sched.Enqueued == 0 {
					t.Errorf("scheduler enqueued nothing at depth %d", depth)
				}
			})
		}
	}
}

// TestMultiClientSerialBaseline pins the baseline configuration's shape:
// one client, depth 1, zero scheduler queueing.
func TestMultiClientSerialBaseline(t *testing.T) {
	rep, err := RunSweepPoint(SweepConfig{FS: "ext3", Workload: CreateHeavy, Clients: 1, QueueDepth: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := opsPerClient(CreateHeavy, true); rep.Ops != want {
		t.Errorf("Ops = %d, want %d", rep.Ops, want)
	}
	if rep.Sched.Enqueued != 0 || rep.Sched.Dispatched != 0 {
		t.Errorf("depth-1 scheduler queued I/O: %+v", rep.Sched)
	}
}

// TestMultiClientComparison checks the sweep runner's row shape on one
// cheap configuration: one row per workload, each against a one-client,
// depth-1 baseline.
func TestMultiClientComparison(t *testing.T) {
	rows, err := RunSweep([]string{"ext3"}, []int{4}, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(MultiClientWorkloads()) {
		t.Fatalf("%d rows, want one per workload", len(rows))
	}
	for i, row := range rows {
		if row.Concurrent.Workload != MultiClientWorkloads()[i] {
			t.Errorf("row %d is %s", i, row.Concurrent.Workload)
		}
		if row.Baseline.Clients != 1 || row.Baseline.QueueDepth != 1 {
			t.Errorf("baseline config %+v", row.Baseline)
		}
		if row.Concurrent.Clients != 4 || row.Concurrent.QueueDepth != 16 {
			t.Errorf("concurrent config %+v", row.Concurrent)
		}
		if row.Speedup() <= 0 {
			t.Errorf("speedup = %v", row.Speedup())
		}
	}
}

// TestMultiClientUnknown rejects bad names cleanly.
func TestMultiClientUnknown(t *testing.T) {
	if _, err := RunSweepPoint(SweepConfig{FS: "xfs", Workload: SeqRead}); err == nil {
		t.Fatal("unknown fs accepted")
	}
	if _, err := RunSweepPoint(SweepConfig{FS: "ext3", Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
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
		if rep.Ops != 256*opsPerClient(CreateHeavy, true) {
			t.Fatalf("%s: completed %d ops", name, rep.Ops)
		}
	}
}

// TestSweepSpeedupGate is the one statement of the sweep's floors.
//
// A fresh quick run holds reiserfs createheavy under 64 clients to ≥ 2.5×
// its serial baseline. The committed BENCH_5.json — which scripts/check.sh
// holds byte-identical to a fresh full sweep — holds the 4-client rung to
// the multi-client floors, and every run in it to plausible latency order
// statistics.
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
		t.Errorf("reiserfs createheavy speedup at 64 clients = %.2fx, want >= 2.5x", s)
	}
	rows := []SweepRowJSON{row.JSON()}

	raw, err := os.ReadFile("../../BENCH_5.json")
	if err != nil {
		t.Fatal(err)
	}
	var pin BenchJSON
	if err := json.Unmarshal(raw, &pin); err != nil {
		t.Fatal(err)
	}
	if want := len(fs.Names()) * len(MultiClientWorkloads()) * len(SweepClients()); len(pin.Sweep) != want {
		t.Fatalf("BENCH_5.json has %d rows, want %d (every file system × workload × ladder rung)", len(pin.Sweep), want)
	}
	floor := map[[2]string]float64{
		{"ext3", SeqRead}: 2.0, {"ext3", CreateHeavy}: 2.0,
		{"ixt3", SeqRead}: 2.0, {"ixt3", CreateHeavy}: 2.0,
		{"reiserfs", CreateHeavy}: 2.5, {"jfs", CreateHeavy}: 2.0,
		{"ntfs", CreateHeavy}: 1.5,
	}
	held := 0
	for _, r := range pin.Sweep {
		if r.Baseline.Clients != 1 || r.Baseline.QueueDepth != 1 || r.Concurrent.QueueDepth != 32 {
			t.Errorf("%s %s at %d clients: baseline %d clients at depth %d, concurrent depth %d; want 1 at 1, 32",
				r.FS, r.Workload, r.Clients, r.Baseline.Clients, r.Baseline.QueueDepth, r.Concurrent.QueueDepth)
		}
		if r.Clients != 4 {
			continue
		}
		want, ok := floor[[2]string{r.FS, r.Workload}]
		if !ok {
			continue
		}
		held++
		if r.Speedup < want {
			t.Errorf("%s %s: speedup %.2fx at 4 clients, want >= %.1fx", r.FS, r.Workload, r.Speedup, want)
		}
		t.Logf("%-9s %-12s %.2fx", r.FS, r.Workload, r.Speedup)
	}
	if held != len(floor) {
		t.Errorf("BENCH_5.json's 4-client rung covers %d of the %d floors", held, len(floor))
	}

	for _, r := range append(rows, pin.Sweep...) {
		for _, run := range []MultiClientRunJSON{r.Baseline, r.Concurrent} {
			if !(0 < run.P50Ns && run.P50Ns <= run.P99Ns && run.P99Ns <= run.P999Ns) {
				t.Errorf("%s %s at %d clients: implausible latency quantiles p50=%d p99=%d p999=%d",
					r.FS, r.Workload, run.Clients, run.P50Ns, run.P99Ns, run.P999Ns)
			}
		}
	}
}
