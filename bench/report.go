package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"time"
)

// printResult prints one workload's metrics by name, each with its unit,
// and "-" where a metric does not apply to the workload.
func printResult(w io.Writer, r *result, took time.Duration) {
	fmt.Fprintf(w, "== %s: %d repetitions + %d traced, %d ops each (the latency sample count), %.1f s\n",
		r.Name, r.Reps, r.TracedReps, r.OpsPerRep, took.Seconds())
	row := func(d metricDef, values map[string]float64) {
		v, ok := values[d.name]
		s := "-"
		if ok {
			s = strconv.FormatFloat(v, 'f', -1, 64)
		}
		fmt.Fprintf(w, "  %-34s %-5s %22s %s\n", d.name, d.clock, s, d.unit)
	}
	fmt.Fprintf(w, " end to end\n")
	for _, d := range endToEnd {
		row(d, r.EndToEnd)
	}
	for _, d := range conditional {
		row(d, r.PerLayer)
	}
	fmt.Fprintf(w, " per layer\n")
	for _, d := range layerMetrics {
		row(d, r.PerLayer)
	}
	fmt.Fprintf(w, " attempted %d, failed %d, wrong bytes %d, correct %v\n", r.Attempted, r.Failed, r.Wrong, r.Correct)
	if r.FirstErr != "" {
		fmt.Fprintf(w, " first op error: %s\n", r.FirstErr)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, " PROBLEM %s\n", p)
	}
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method Python's statistics.quantiles(xs, n=4) uses (exclusive), so a
// spread computed here is the spread the benchmark's consumer computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	sort.Float64s(s)
	m := len(s)
	at := func(k int) float64 {
		pos := float64(k*(m+1)) / 4 // 1-based, fractional
		j := min(max(int(pos), 1), m-1)
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median; with too few
// samples to say, it is unbounded, so that nothing is resolved on them.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return math.Inf(1)
	}
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Verdicts -compare gives a (workload, metric) pair.
const (
	verdictSame       = "same"       // simulated value or count, identical
	verdictChanged    = "changed"    // simulated value or count moved, within its bound or ungated
	verdictUnchanged  = "unchanged"  // host value within its bound
	verdictImproved   = "improved"   // better by more than the bound
	verdictRegressed  = "REGRESSED"  // worse by more than the bound
	verdictUnresolved = "unresolved" // spread between repetitions exceeds the bound
	verdictInfo       = "info"       // ungated host value
)

// worse reports whether b is worse than a by more than the share bound.
func worse(d metricDef, a, b, bound float64) bool {
	if d.better == "higher" {
		return b < a*(1-bound)
	}
	return b > a*(1+bound) || (a == 0 && b > 0)
}

// allBetter reports whether every sample of b is better than every sample
// of a.
func allBetter(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if d.better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

// judge compares one metric of one workload across two reports.
func judge(d metricDef, a, b float64, sa, sb []float64) string {
	if d.clock == clockSim {
		switch {
		case a == b:
			return verdictSame
		case d.bound > 0 && worse(d, a, b, d.bound):
			return verdictRegressed
		}
		return verdictChanged
	}
	if d.bound == 0 {
		return verdictInfo
	}
	// A spread wider than the bound cannot resolve a change of the bound's
	// size: say so, unless every repetition of B beats every one of A.
	if max(spread(sa), spread(sb)) > d.bound {
		if allBetter(d, sa, sb) {
			return verdictImproved
		}
		return verdictUnresolved
	}
	switch {
	case worse(d, a, b, d.bound):
		return verdictRegressed
	case worse(d, b, a, d.bound):
		return verdictImproved
	}
	return verdictUnchanged
}

// compareReports prints one row per (workload, metric) with both values,
// the ratio B/A and a verdict, and reports whether anything regressed.
func compareReports(w io.Writer, pathA, pathB string) (bool, error) {
	ra, err := loadReport(pathA)
	if err != nil {
		return false, err
	}
	rb, err := loadReport(pathB)
	if err != nil {
		return false, err
	}
	if ra.Seed != rb.Seed || ra.Quick != rb.Quick {
		fmt.Fprintf(w, "note: A is seed %#x quick=%v, B is seed %#x quick=%v; simulated values are comparable only for the same seed and size\n",
			ra.Seed, ra.Quick, rb.Seed, rb.Quick)
	}
	counts := map[string]int{}
	fmt.Fprintf(w, "%-15s %-34s %20s %20s %10s  %s\n", "workload", "metric", "A", "B", "B/A", "verdict")
	for _, a := range ra.Workloads {
		var b *result
		for _, r := range rb.Workloads {
			if r.Name == a.Name {
				b = r
			}
		}
		if b == nil {
			continue
		}
		for _, d := range slices.Concat(endToEnd, perLayer) {
			va, oka := a.EndToEnd[d.name]
			vb, okb := b.EndToEnd[d.name]
			if !oka && !okb {
				va, oka = a.PerLayer[d.name]
				vb, okb = b.PerLayer[d.name]
			}
			if !oka || !okb {
				continue
			}
			verdict := judge(d, va, vb, a.Samples[d.name], b.Samples[d.name])
			counts[verdict]++
			fmt.Fprintf(w, "%-15s %-34s %20s %20s %10.4f  %s\n", a.Name, d.name,
				strconv.FormatFloat(va, 'g', 10, 64), strconv.FormatFloat(vb, 'g', 10, 64),
				ratio(vb, va), verdict)
		}
	}
	fmt.Fprintf(w, "%d same, %d changed, %d unchanged, %d improved, %d unresolved, %d regressed, %d ungated host values\n",
		counts[verdictSame], counts[verdictChanged], counts[verdictUnchanged], counts[verdictImproved], counts[verdictUnresolved], counts[verdictRegressed], counts[verdictInfo])
	return counts[verdictRegressed] > 0, nil
}
