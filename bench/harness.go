package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"
)

var errWrongBytes = errors.New("bench: read returned wrong bytes without an error")

// Repetition counts. Host time on this two-core box is noisy and the
// noise is one-sided (a repetition is only ever slowed down), so host
// metrics are estimated by the lower quartile of at least minReps
// repetitions; see README.md for the measured spreads behind the choice.
const (
	minReps    = 11
	quickReps  = 2
	tracedReps = 3
	// Set-up is repeated at least minSetups times and until setupBudget has
	// been spent on it (at most maxSetups times): it is short and noisy, so
	// a quick one needs more readings than a slow one for a steady median.
	minSetups   = 4 // the fewest that give -compare a spread
	maxSetups   = 7
	setupBudget = 2500 * time.Millisecond
	// selfTimeTolerance is how far the per-layer self times may miss the
	// traced repetition's wall time.
	selfTimeTolerance = 0.02
)

// repResult is what one repetition of a workload produced.
type repResult struct {
	ops, failed, wrong int64
	// cost is the host cost of the measured phases alone.
	cost hostCost
	// sim holds every metric read from the simulated clock or counted by
	// the stack. All of it must repeat exactly.
	sim map[string]float64
	// host holds noisy per-layer numbers that need no spans.
	host map[string]float64
	// problems are correctness violations: a failed consistency check, an
	// unhealthy volume, a lost acknowledged write.
	problems []string
	firstErr error
}

func newRepResult() *repResult {
	return &repResult{sim: map[string]float64{}, host: map[string]float64{}}
}

func (r *repResult) problem(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// instance is a workload after set-up: images built, op streams generated.
type instance interface {
	// rep runs one repetition from the snapshots. rec is nil for an
	// untraced repetition (the stack fs.MountVolume builds) and a span
	// recorder for a traced one (the hand-built tower with shims).
	rep(rec *spanRec) (*repResult, error)
}

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	name  string
	why   string
	setup func(seed int64, quick bool) (instance, error)
}

// runConfig selects how a workload is run.
type runConfig struct {
	seed    int64
	seconds float64 // measuring budget for the untraced repetitions
	trace   bool    // also run the traced repetitions
	quick   bool
	spans   string // NDJSON file for the last traced repetition's spans
}

// result is one workload's report.
type result struct {
	Name       string `json:"name"`
	Reps       int    `json:"reps"`
	TracedReps int    `json:"traced_reps"`
	// OpsPerRep is also the number of latency samples behind the
	// simulated quantiles.
	OpsPerRep int64    `json:"ops_per_rep"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Wrong     int64    `json:"wrong_bytes"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	FirstErr  string   `json:"first_error,omitempty"`
	// EndToEnd and PerLayer map metric name to value; a metric that does
	// not apply to the workload is absent.
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer"`
	// Samples are the per-repetition values of the host metrics, kept so
	// -compare can tell a change from the spread between repetitions.
	Samples map[string][]float64 `json:"samples"`
}

// lowerQuartile returns the nearest-rank first quartile of xs.
func lowerQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s[max(int(math.Ceil(float64(len(s))*0.25)), 1)-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// sameSim reports the first metric on which two repetitions' simulated
// results differ.
func sameSim(a, b map[string]float64) error {
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return fmt.Errorf("%s = %v, first repetition had %v", k, w, v)
		}
	}
	if len(a) != len(b) {
		return fmt.Errorf("%d simulated metrics, first repetition had %d", len(b), len(a))
	}
	return nil
}

// runWorkload sets the workload up, warms it, and measures it.
func runWorkload(def workloadDef, cfg runConfig) (*result, error) {
	res := &result{Name: def.name, EndToEnd: map[string]float64{},
		PerLayer: map[string]float64{}, Samples: map[string][]float64{}}

	// Set-up is timed several times over and reported as the median; each
	// starts from a collected heap, like a measured phase.
	var inst instance
	setupStart := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(setupStart) < setupBudget); i++ {
		inst = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = def.setup(cfg.seed, cfg.quick); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		res.Samples["setup_s"] = append(res.Samples["setup_s"], time.Since(t0).Seconds())
		if cfg.quick {
			break
		}
	}
	res.EndToEnd["setup_s"] = median(res.Samples["setup_s"])

	// One untimed repetition lets lazy initialisation and the heap settle;
	// its simulated results are the reference every later one must equal.
	ref, err := inst.rep(nil)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", def.name, err)
	}
	res.OpsPerRep = ref.ops
	account := func(r *repResult, label string) {
		res.Wrong += r.wrong
		for _, p := range r.problems {
			res.Problems = append(res.Problems, label+": "+p)
		}
		if res.FirstErr == "" && r.firstErr != nil {
			res.FirstErr = r.firstErr.Error()
		}
		if err := sameSim(ref.sim, r.sim); err != nil {
			res.Problems = append(res.Problems, label+": not deterministic: "+err.Error())
		}
	}
	account(ref, "warm-up")

	reps := minReps
	if cfg.quick {
		reps = quickReps
	}
	var hostNs []float64
	hostLayer := map[string][]float64{}
	var gcCycles, heapPeak float64
	start := time.Now()
	for i := 0; i < reps || (!cfg.quick && time.Since(start).Seconds() < cfg.seconds); i++ {
		r, err := inst.rep(nil)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", def.name, i, err)
		}
		account(r, fmt.Sprintf("repetition %d", i))
		res.Reps++
		res.Attempted += r.ops
		res.Failed += r.failed
		ops := float64(r.ops)
		hostNs = append(hostNs, float64(r.cost.ns))
		res.Samples["host_ops_per_s"] = append(res.Samples["host_ops_per_s"], ops/(float64(r.cost.ns)/1e9))
		res.Samples["allocs_per_op"] = append(res.Samples["allocs_per_op"], float64(r.cost.mallocs)/ops)
		res.Samples["alloc_bytes_per_op"] = append(res.Samples["alloc_bytes_per_op"], float64(r.cost.bytes)/ops)
		for k, v := range r.host {
			hostLayer[k] = append(hostLayer[k], v)
		}
		gcCycles += float64(r.cost.gcCycles)
		heapPeak = max(heapPeak, float64(r.cost.heapSysBytes))
	}
	ops := float64(ref.ops)
	res.EndToEnd["host_ops_per_s"] = ops / (lowerQuartile(hostNs) / 1e9)
	res.EndToEnd["allocs_per_op"] = median(res.Samples["allocs_per_op"])
	res.EndToEnd["alloc_bytes_per_op"] = median(res.Samples["alloc_bytes_per_op"])
	isLayer := map[string]bool{}
	for _, d := range perLayer {
		isLayer[d.name] = true
	}
	for k, v := range ref.sim {
		if isLayer[k] {
			res.PerLayer[k] = v
		} else {
			res.EndToEnd[k] = v
		}
	}
	res.PerLayer["fail_share"] = ratio(float64(res.Failed), float64(res.Attempted))
	for k, v := range hostLayer {
		res.PerLayer[k] = lowerQuartile(v)
	}
	res.PerLayer["host.gc_cycles"] = gcCycles / float64(res.Reps)
	res.PerLayer["host.heap_peak_mb"] = heapPeak / (1 << 20)

	if cfg.trace {
		if err := runTraced(inst, cfg, res, account, lowerQuartile(hostNs)); err != nil {
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
	}
	res.Correct = res.Wrong == 0 && len(res.Problems) == 0
	return res, nil
}

// runTraced runs the traced repetitions and derives the span-based
// per-layer metrics: each layer's host self time per client op, per-verb
// host medians, and the overhead tracing itself added.
func runTraced(inst instance, cfg runConfig, res *result, account func(*repResult, string), untracedNs float64) error {
	n := tracedReps
	if cfg.quick {
		n = 1
	}
	samples := map[string][]float64{}
	var wall []float64
	for i := 0; i < n; i++ {
		rec := newSpanRec(1 << 20)
		r, err := inst.rep(rec)
		if err != nil {
			return fmt.Errorf("traced repetition %d: %w", i, err)
		}
		label := fmt.Sprintf("traced repetition %d", i)
		account(r, label)
		res.TracedReps++
		self, roots := rec.selfTimes()
		var sum int64
		for l, ns := range self {
			sum += ns
			if ns > 0 { // a layer with no spans is not in this workload's stack
				k := layerNames[l] + ".host_self_ns_per_op"
				samples[k] = append(samples[k], float64(ns)/float64(r.ops))
			}
		}
		// The root spans cover the measured phases, so the self times must
		// add up to the wall time measured around the same phases; what is
		// left over is the measurement's own boundary.
		if miss := math.Abs(float64(sum)-float64(r.cost.ns)) / float64(r.cost.ns); sum != roots || miss > selfTimeTolerance {
			res.Problems = append(res.Problems, fmt.Sprintf(
				"%s: layer self times sum to %d ns, root spans %d ns, wall %d ns", label, sum, roots, r.cost.ns))
		}
		for _, v := range clientVerbs {
			if d := rec.hostByVerb(lFS, v); len(d) > 0 {
				k := "fs." + verbNames[v] + ".host_ns_p50"
				samples[k] = append(samples[k], float64(quantile(d, 0.50)))
			}
		}
		if d := rec.hostByVerb(lServe, vSubmit); len(d) > 0 {
			samples["serve.submit.host_ns_p50"] = append(samples["serve.submit.host_ns_p50"], float64(quantile(d, 0.50)))
		}
		if d := rec.hostByVerb(lServe, vDispatch); len(d) > 0 {
			samples["serve.dispatch.host_ns_p50"] = append(samples["serve.dispatch.host_ns_p50"], float64(quantile(d, 0.50)))
			samples["serve.dispatch.host_ns_p99"] = append(samples["serve.dispatch.host_ns_p99"], float64(quantile(d, 0.99)))
		}
		wall = append(wall, float64(r.cost.ns))
		res.PerLayer["trace.spans"] = float64(len(rec.spans))
		if cfg.spans != "" && i == n-1 {
			if err := rec.writeNDJSON(cfg.spans, res.Name); err != nil {
				return err
			}
		}
	}
	for k, v := range samples {
		res.PerLayer[k] = lowerQuartile(v)
	}
	res.PerLayer["trace.overhead_share"] = lowerQuartile(wall)/untracedNs - 1
	return nil
}
