package hunt

import (
	"reflect"
	"testing"

	"ironfs/internal/fstest"
)

// The generator's enumeration is the hunt's coverage claim: it must be
// exhaustive at the stated bounds, deterministic per seed, and every
// sequence it emits must be valid on the model (replay never errors).

func TestSequencesExhaustiveCounts(t *testing.T) {
	for _, tc := range []struct {
		maxOps int
		want   int
	}{
		{1, 0},  // one op can't be both a mutation and a persist
		{2, 76}, // the -quick corpus
	} {
		got := len(Sequences(Bounds{MaxOps: tc.maxOps, MaxSeqs: -1}))
		if got != tc.want {
			t.Errorf("MaxOps=%d: %d sequences, want %d", tc.maxOps, got, tc.want)
		}
	}
	// The default corpus samples from the length<=3 enumeration.
	full := Sequences(Bounds{MaxOps: 3, MaxSeqs: -1})
	if len(full) < 1000 {
		t.Fatalf("MaxOps=3 full enumeration suspiciously small: %d", len(full))
	}
	sampled := Sequences(Bounds{MaxOps: 3})
	if len(sampled) != 400 {
		t.Errorf("default sample: %d sequences, want 400", len(sampled))
	}
}

func TestSequencesDeterministic(t *testing.T) {
	for _, b := range []Bounds{
		{MaxOps: 2, MaxSeqs: -1},
		{MaxOps: 3, MaxSeqs: 50},
		{MaxOps: 3, MaxSeqs: 50, Seed: 99},
	} {
		a, c := Sequences(b), Sequences(b)
		if !reflect.DeepEqual(a, c) {
			t.Errorf("bounds %+v: two calls disagree", b)
		}
	}
	// Distinct seeds must draw distinct samples (else the seed is dead).
	a := Sequences(Bounds{MaxOps: 3, MaxSeqs: 50, Seed: 1})
	c := Sequences(Bounds{MaxOps: 3, MaxSeqs: 50, Seed: 2})
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 1 and 2 drew the same sample")
	}
}

func TestSequencesValidAndInteresting(t *testing.T) {
	for _, seq := range Sequences(Bounds{MaxOps: 2, MaxSeqs: -1}) {
		tr := fstest.NewModel()
		for i, op := range seq {
			if !valid(tr, op) {
				t.Fatalf("sequence [%s]: op %d %s invalid on model", seq, i, op)
			}
			tr.Apply(op, i)
		}
		if !interesting(seq) {
			t.Errorf("sequence [%s] lacks a mutation or a persist", seq)
		}
	}
}

func TestSampledSequencesAreFromEnumeration(t *testing.T) {
	full := map[string]bool{}
	for _, seq := range Sequences(Bounds{MaxOps: 3, MaxSeqs: -1}) {
		full[seq.String()] = true
	}
	for _, seq := range Sequences(Bounds{MaxOps: 3, MaxSeqs: 50}) {
		if !full[seq.String()] {
			t.Errorf("sampled sequence [%s] not in the full enumeration", seq)
		}
	}
}

func TestExploreWorkloadsThinning(t *testing.T) {
	ws := ExploreWorkloads(Bounds{MaxOps: 2, MaxSeqs: -1}, 5)
	if len(ws) != 5 {
		t.Fatalf("thinned to %d workloads, want 5", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if seen[w.Name] {
			t.Errorf("duplicate workload name %s", w.Name)
		}
		seen[w.Name] = true
	}
}
