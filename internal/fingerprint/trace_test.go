package fingerprint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/iron"
	"ironfs/internal/trace"
)

var updateTraceGolden = flag.Bool("update-trace", false, "rewrite testdata/trace.golden from this run")

// traceScenario runs one fixed, fast scenario with tracing: ext3, the
// "read" workload, a sticky read failure on a data block.
func traceScenario(t *testing.T, img *disk.Image, cfg Config) Scenario {
	t.Helper()
	target, ok := ByName("ext3")
	if !ok {
		t.Fatal("ext3 target missing")
	}
	var w Workload
	for _, cand := range Workloads() {
		if cand.Label == "d" {
			w = cand
		}
	}
	if w.Run == nil {
		t.Fatal("read workload missing")
	}
	s, err := runScenario(target, cfg, w, img, "data", iron.ReadFailure)
	if err != nil {
		t.Fatal(err)
	}
	if s.Fired == 0 {
		t.Fatal("the data read fault never fired; the trace below proves nothing")
	}
	if len(s.Trace) == 0 {
		t.Fatal("Config.Trace set but the scenario carries no trace")
	}
	return s
}

func traceImage(t *testing.T, cfg Config) *disk.Image {
	t.Helper()
	target, _ := ByName("ext3")
	img, err := buildImage(target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestScenarioTraceDeterministic: two identical runs must produce
// byte-identical NDJSON — the property that makes traces diffable evidence
// rather than logs.
func TestScenarioTraceDeterministic(t *testing.T) {
	cfg := Config{Trace: true}.withDefaults()
	img := traceImage(t, cfg)
	a, err := trace.EncodeNDJSON(traceScenario(t, img, cfg).Trace)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.EncodeNDJSON(traceScenario(t, img, cfg).Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical scenario runs produced different traces")
	}
}

// TestTraceGolden pins the scenario's exact NDJSON bytes. Any change to
// event schema, field order, emission points, or the simulated timing model
// moves this file and must be reviewed (regenerate with -update-trace).
func TestTraceGolden(t *testing.T) {
	cfg := Config{Trace: true}.withDefaults()
	s := traceScenario(t, traceImage(t, cfg), cfg)
	got, err := trace.EncodeNDJSON(s.Trace)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "trace.golden")
	if *updateTraceGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d events)", path, len(s.Trace))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-trace to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		// Summarize the divergence instead of dumping both streams.
		gotEvs := s.Trace
		wantEvs, derr := trace.ReadNDJSON(bytes.NewReader(want))
		if derr != nil {
			t.Fatalf("trace drifted from golden and golden is undecodable: %v", derr)
		}
		d := trace.Diff(trace.Summarize(wantEvs), trace.Summarize(gotEvs))
		t.Fatalf("trace drifted from golden (%d -> %d events). Counter deltas:\n%s", len(wantEvs), len(gotEvs), d)
	}
}

// TestRunAttachesTraces: Run with Trace set attaches evidence to every
// applicable scenario and none to gray cells; without Trace, none at all.
func TestRunAttachesTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("full fingerprint run in -short mode")
	}
	target, _ := ByName("reiserfs")
	res, err := Run(target, Config{Faults: []iron.FaultClass{iron.ReadFailure}, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Scenarios {
		if s.Applicable && len(s.Trace) == 0 {
			t.Fatalf("applicable scenario %s/%s/%s has no trace", s.Workload, s.Block, s.Fault)
		}
		if !s.Applicable && len(s.Trace) != 0 {
			t.Fatalf("gray cell %s/%s/%s carries a trace", s.Workload, s.Block, s.Fault)
		}
	}
}
