package fstest_test

// External test package: the concrete crash targets live in
// internal/fingerprint, which imports fstest — an in-package test here
// would cycle.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ironfs/internal/faultinject"
	"ironfs/internal/fingerprint"
	"ironfs/internal/fstest"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/crash_counts.golden from this run")

// TestCrashStateCountsGolden pins the exploration *coverage* — how many
// writes, crash points, and crash states each (fs, workload) cell visits
// under the default policy — against a golden file. Outcome counts are
// deliberately not pinned (legitimate behavior changes may move them); a
// shrink in coverage, though, means the harness quietly stopped exploring
// and must fail the build. Regenerate with: go test ./internal/fstest
// -run Golden -update
//
// A state count can grow on purpose: ntfs's rows rose (mkfiles 514 → 576,
// churn 257 → 291) when its restart-area update moved into the barrier
// epoch of the transaction's own log blocks, which gives each of those
// cut points one more pending write to subset.
func TestCrashStateCountsGolden(t *testing.T) {
	// Match cmd/ironcrash defaults: torn writes are part of the model.
	cfg := fstest.ExploreConfig{Policy: faultinject.EnumPolicy{Torn: true}}
	var b strings.Builder
	fmt.Fprintf(&b, "# target workload writes points states (default policy, torn writes on)\n")
	for _, tgt := range fingerprint.CrashTargets() {
		for _, w := range fstest.Workloads() {
			res, err := fstest.Explore(tgt, w, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", tgt.Name, w.Name, err)
			}
			fmt.Fprintf(&b, "%s %s %d %d %d\n", res.Target, res.Workload, res.Writes, res.Points, res.States)
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "crash_counts.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("crash-state coverage drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExploreDeterministic runs the cheapest cell twice with parallel
// workers and requires bit-identical results — the acceptance bar for
// "deterministic for a fixed seed", and a -race workout for the worker
// partitioning.
func TestExploreDeterministic(t *testing.T) {
	tgt, err := fingerprint.CrashTargetByName("reiserfs")
	if err != nil {
		t.Fatal(err)
	}
	var churn fstest.ExploreWorkload
	for _, w := range fstest.Workloads() {
		if w.Name == "churn" {
			churn = w
		}
	}
	if churn.Run == nil {
		t.Fatal("churn workload missing")
	}
	// Trace on: per-state evidence traces must be as deterministic as the
	// verdicts they justify (DeepEqual below covers every event).
	cfg := fstest.ExploreConfig{Workers: 4, Trace: true}
	cfg.Policy.Torn = true
	a, err := fstest.Explore(tgt, churn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fstest.Explore(tgt, churn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config, different results:\n%s\n%s", a, b)
	}
}

// TestHeadlinePair is the acceptance criterion in miniature: stock ext3
// without its ordering point suffers silent corruption under crash-state
// exploration; ixt3's transactional checksum reduces every such state to a
// detected, refused replay.
func TestHeadlinePair(t *testing.T) {
	if testing.Short() {
		t.Skip("full exploration in -short mode")
	}
	cfg := fstest.ExploreConfig{}
	cfg.Policy.Torn = true
	for _, w := range fstest.Workloads() {
		nb, err := fingerprint.CrashTargetByName("ext3-nobarrier")
		if err != nil {
			t.Fatal(err)
		}
		res, err := fstest.Explore(nb, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Silent == 0 {
			t.Errorf("ext3-nobarrier/%s: expected silent corruption, found none (%s)", w.Name, res)
		}
		ix, err := fingerprint.CrashTargetByName("ixt3")
		if err != nil {
			t.Fatal(err)
		}
		res, err = fstest.Explore(ix, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Silent != 0 || res.Inconsistent != 0 {
			t.Errorf("ixt3/%s: undetected damage survived Tc: %s", w.Name, res)
		}
		if res.Detected == 0 {
			t.Errorf("ixt3/%s: expected some detected-and-contained states, found none (%s)", w.Name, res)
		}
	}
}

// TestExploreBarrierEvidence: the "barrier inexpressible" claims must rest
// on observed cache-layer barrier events, not inference. Stock ext3's
// commit path issues an ordering barrier between journal payload and
// commit block; the NoBarrier variant omits exactly that one, so for the
// same workload it must seal strictly fewer epochs — and the trace-derived
// count must agree with the cache's own epoch counter in both.
func TestExploreBarrierEvidence(t *testing.T) {
	var mkfiles fstest.ExploreWorkload
	for _, w := range fstest.Workloads() {
		if w.Name == "mkfiles" {
			mkfiles = w
		}
	}
	if mkfiles.Run == nil {
		t.Fatal("mkfiles workload missing")
	}
	cfg := fstest.ExploreConfig{MaxPoints: 2, Trace: true}

	run := func(name string) *fstest.ExploreResult {
		tgt, err := fingerprint.CrashTargetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fstest.Explore(tgt, mkfiles, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Barriers != res.Epochs {
			t.Fatalf("%s: trace counted %d barriers but the cache sealed %d epochs; the trace is lying",
				name, res.Barriers, res.Epochs)
		}
		return res
	}

	stock := run("ext3")
	nobar := run("ext3-nobarrier")
	if stock.Barriers <= nobar.Barriers {
		t.Fatalf("observed barriers: ext3=%d ext3-nobarrier=%d; stock must issue strictly more ordering points",
			stock.Barriers, nobar.Barriers)
	}

	// Per-state evidence must be present and labeled.
	if len(nobar.StateResults) != nobar.States {
		t.Fatalf("StateResults has %d entries for %d states", len(nobar.StateResults), nobar.States)
	}
	for _, sr := range nobar.StateResults {
		if sr.Outcome == "" || len(sr.Trace) == 0 {
			t.Fatalf("state %s lacks evidence (outcome=%q, %d events)", sr.State, sr.Outcome, len(sr.Trace))
		}
		if sr.Epoch < 0 || sr.Epoch > nobar.Epochs {
			t.Fatalf("state %s claims epoch %d of %d", sr.State, sr.Epoch, nobar.Epochs)
		}
	}
}
