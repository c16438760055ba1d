package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"testing"

	"ironfs/internal/faultinject"
	"ironfs/internal/fs"
	"ironfs/internal/sched"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclaredMetricsMatchBenchmarkJSON holds metrics.go and BENCHMARK.json
// in step: same workloads, same metric names, units and directions.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(b.EndToEnd), len(b.PerLayer))
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %v, the program %v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated metric name %q", m.Name)
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("no setup_s among the end-to-end metrics")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %v, the program %v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated metric name %q", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestQuickRunsRepeatExactly runs every workload twice at -quick size and
// requires what the contract requires of a full run: correct outputs, only
// declared metric names, and simulated values and counts that are
// identical from one run to the next.
func TestQuickRunsRepeatExactly(t *testing.T) {
	declared := map[string]metricDef{}
	for _, d := range endToEnd {
		declared[d.name] = d
	}
	for _, d := range perLayer {
		declared[d.name] = d
	}
	run := func(def workloadDef) *result {
		r, err := runWorkload(def, runConfig{seed: defaultSeed, trace: true, quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct {
			t.Errorf("%s: not correct: %v", def.name, r.Problems)
		}
		return r
	}
	for _, def := range workloads {
		a, b := run(def), run(def)
		for _, values := range []struct{ a, b map[string]float64 }{{a.EndToEnd, b.EndToEnd}, {a.PerLayer, b.PerLayer}} {
			for name, va := range values.a {
				d, ok := declared[name]
				if !ok {
					t.Errorf("%s reports %s, which metrics.go does not declare", def.name, name)
					continue
				}
				if vb := values.b[name]; d.clock == clockSim && va != vb {
					t.Errorf("%s: %s read %v, then %v", def.name, name, va, vb)
				}
			}
		}
		for _, d := range endToEnd {
			if a.EndToEnd[d.name] == 0 {
				t.Errorf("%s: end-to-end metric %s is zero or missing", def.name, d.name)
			}
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([2, 4, 4, 5, 7, 9, 10, 12, 13, 20], n=4)
	q1, q2, q3 := quartiles([]float64{13, 2, 9, 4, 20, 5, 4, 7, 12, 10})
	if q1 != 4 || q2 != 8 || q3 != 12.25 {
		t.Errorf("quartiles = %v %v %v, want 4 8 12.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100}
	slower := []float64{80, 81, 79, 80, 80, 81, 79, 80}
	noisy := []float64{100, 140, 70, 100, 120, 80, 100, 130}
	sim := metricDef{"sim_ops_per_s", "1/s", "higher", clockSim, 0.01}
	host := metricDef{"host_ops_per_s", "1/s", "higher", clockHost, 0.10}
	count := metricDef{"disk.reads", "count", "lower", clockSim, 0}
	for _, c := range []struct {
		d      metricDef
		a, b   float64
		sa, sb []float64
		want   string
	}{
		{sim, 100, 100, nil, nil, verdictSame},
		{sim, 100, 99.5, nil, nil, verdictChanged},
		{sim, 100, 98, nil, nil, verdictRegressed},
		{count, 100, 200, nil, nil, verdictChanged},
		{host, 100, 95, steady, steady, verdictUnchanged},
		{host, 100, 80, steady, slower, verdictRegressed},
		{host, 80, 100, slower, steady, verdictImproved},
		{host, 100, 95, steady, noisy, verdictUnresolved},
	} {
		if got := judge(c.d, c.a, c.b, c.sa, c.sb); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.d.name, c.a, c.b, got, c.want)
		}
	}
}

// TestCutterMatchesCrashDevice holds the benchmark's one-run cutter to the
// repository's crash model: the image and the acknowledged set it records at
// a mark must be those a faultinject.CrashDevice with that limit leaves.
func TestCutterMatchesCrashDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(defaultSeed))
	var clients []*client
	for id := 0; id < 4; id++ {
		clients = append(clients, &client{ops: churnOps(rng, id, 4)})
	}
	for _, name := range fsNames {
		opts := crashOptions(name)
		clean, err := buildImage(towerSpec{fs: name, opts: &opts, blocks: crashBlocks}, func(*tower) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		total, _, err := crashChurn(name, clean, clients, nil)
		if err != nil {
			t.Fatal(err)
		}
		marks := []int64{total / 3, 2 * total / 3}
		_, shots, err := crashChurn(name, clean, clients, marks)
		if err != nil {
			t.Fatal(err)
		}
		for i, limit := range marks {
			d, err := restoredDisk(clean)
			if err != nil {
				t.Fatal(err)
			}
			cd := faultinject.NewCrashDevice(d, limit)
			s := sched.New(cd, sched.Config{QueueDepth: queueDepth, Policy: sched.PolicyAdaptive})
			fsys, err := fs.New(name, s, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := fsys.Mount(); err != nil {
				t.Fatal(err)
			}
			acks := newAckRecord()
			// The record stops where the crash lands: the cutter's photograph
			// holds what had been issued and what had returned by then.
			roundRobin(fsys, clients,
				func(o *op) {
					if !cd.Crashed() {
						acks.issue(o)
					}
				},
				func(o *op, err error) {
					if !cd.Crashed() {
						acks.done(o, err)
					}
				})
			if !cd.Crashed() {
				t.Fatalf("%s: CrashDevice(%d) never crashed", name, limit)
			}
			if !bytes.Equal(d.Snapshot(), shots[i].image) {
				t.Errorf("%s: image at write %d differs from CrashDevice's", name, limit)
			}
			if !reflect.DeepEqual(acks.acked, shots[i].acked) {
				t.Errorf("%s: acknowledged set at write %d differs from CrashDevice's", name, limit)
			}
		}
	}
}
