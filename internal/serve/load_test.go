package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"ironfs/internal/faultinject"
)

// TestFairnessProperty is the headline SFQ property: a light 10:1-weighted
// tenant's p99 beside a closed-loop flood stays within the scenario's bound
// of its solo p99, and the flood still gets the bulk of the throughput.
func TestFairnessProperty(t *testing.T) {
	rep, err := RunLoad(LoadConfig{Scenario: "fairness", FS: "ext3",
		Seed: faultinject.DefaultSeed, Quick: true})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	f := rep.Fairness
	if f == nil {
		t.Fatal("no fairness report")
	}
	if f.HeavyOps <= f.LightOps {
		t.Fatalf("flood starved: heavy %d ops <= light %d", f.HeavyOps, f.LightOps)
	}
	if f.LightNoisyP99Ns <= 0 || f.LightSoloP99Ns <= 0 {
		t.Fatalf("degenerate percentiles: solo %d noisy %d", f.LightSoloP99Ns, f.LightNoisyP99Ns)
	}
}

// TestAvailabilityDuringRepair checks the online-scrub contract: the
// bystander tenant's throughput under a capped scrub stays within
// share+margin of its scrub-free baseline, and the scrub really fixes
// the damage.
func TestAvailabilityDuringRepair(t *testing.T) {
	rep, err := RunLoad(LoadConfig{Scenario: "repair", FS: "ext3",
		Seed: faultinject.DefaultSeed, Quick: true})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	r := rep.Repair
	if r == nil {
		t.Fatal("no repair report")
	}
	if r.Problems == 0 || r.Repaired == 0 {
		t.Fatalf("scrub found %d problems, repaired %d — damage did not bite", r.Problems, r.Repaired)
	}
	if want := 1 - r.Share - 0.10; r.ThroughputRatio < want {
		t.Fatalf("bystander throughput ratio %.3f < %.3f (share %.2f + 10%% margin)",
			r.ThroughputRatio, want, r.Share)
	}
}

// TestReadOnlyRouting runs the readonly scenario end to end: after stock
// ext3's journal abort, reads succeed and every write refusal is typed.
func TestReadOnlyRouting(t *testing.T) {
	rep, err := RunLoad(LoadConfig{Scenario: "readonly", FS: "ext3",
		Seed: faultinject.DefaultSeed, Quick: true})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
}

// TestLoadDeterminism re-runs the scale scenario and requires the two
// reports to be byte-identical once serialized — the property CI also
// enforces on the ironload binary.
func TestLoadDeterminism(t *testing.T) {
	run := func() []byte {
		rep, err := RunLoad(LoadConfig{Scenario: "scale", FS: "ext3",
			Seed: faultinject.DefaultSeed, Quick: true})
		if err != nil {
			t.Fatalf("RunLoad: %v", err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("scale scenario not deterministic:\nrun1: %.200s\nrun2: %.200s", a, b)
	}
}

// TestLoadPinHolds reads the committed BENCH_4.json — the full-size ironload
// run that check.sh and CI regenerate and cmp against it — and holds what it
// records to the margins the scenarios are graded on: the four scenarios,
// no violation in any, a flood that gets the bulk of the throughput without
// degrading the light tenant eightfold, typed refusals only on a read-only
// volume, a repair that finishes inside its I/O share, and a scale sweep of
// at least 1024 tenants on 16 volumes with ordered quantiles.
func TestLoadPinHolds(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_4.json")
	if err != nil {
		t.Fatal(err)
	}
	var pin struct {
		Ironload []*LoadReport `json:"ironload"`
	}
	if err := json.Unmarshal(raw, &pin); err != nil {
		t.Fatal(err)
	}
	by := map[string]*LoadReport{}
	var names []string
	for _, r := range pin.Ironload {
		by[r.Scenario] = r
		names = append(names, r.Scenario)
		if len(r.Violations) > 0 {
			t.Errorf("%s: pinned with violations %v", r.Scenario, r.Violations)
		}
	}
	if want := Scenarios(); !slices.Equal(names, want) {
		t.Fatalf("BENCH_4.json holds scenarios %v, want %v", names, want)
	}
	if by["fairness"].Fairness == nil || by["readonly"].ReadOnly == nil || by["repair"].Repair == nil || by["scale"].Scale == nil {
		t.Fatal("a scenario is pinned without its report")
	}
	if f := by["fairness"].Fairness; !(f.HeavyOps > f.LightOps && f.LightOps > 0) || f.DegradeRatio < 1 || f.DegradeRatio >= 8 {
		t.Errorf("fairness: %+v", *f)
	}
	if ro := by["readonly"].ReadOnly; ro.Health != "read-only" || ro.ReadsOK <= 0 || ro.WritesTyped <= 0 || ro.WritesOther != 0 {
		t.Errorf("readonly: %+v", *ro)
	}
	if rp := by["repair"].Repair; rp.Phase != "done" || rp.Problems <= 0 || rp.Repaired != rp.Problems ||
		rp.UsedFrac > rp.Share*1.5 || rp.ThroughputRatio < 1-rp.Share-0.10 {
		t.Errorf("repair: %+v", *rp)
	}
	if sc := by["scale"].Scale; sc.Tenants < 1024 || sc.Volumes < 16 ||
		!(0 < sc.AggP50Ns && sc.AggP50Ns <= sc.AggP99Ns && sc.AggP99Ns <= sc.AggP999Ns) {
		t.Errorf("scale: %+v", *sc)
	}
}
