package fsck

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestMapResultsIndexedByTask(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 4, 7, 16, 100} {
		got := Map(workers, 9, func(i int) int { return i * i })
		want := []int{0, 1, 4, 9, 16, 25, 36, 49, 64}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: got %v, want %v", workers, got, want)
		}
	}
}

func TestMapZeroTasks(t *testing.T) {
	if got := Map(4, 0, func(i int) int { t.Fatal("task ran"); return 0 }); len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

func TestMapRunsEveryTaskOnce(t *testing.T) {
	var n atomic.Int64
	Map(5, 123, func(i int) struct{} { n.Add(1); return struct{}{} })
	if n.Load() != 123 {
		t.Errorf("ran %d tasks, want 123", n.Load())
	}
}

// TestMapDeterministicMerge is the property the parallel fsck rests on:
// merging per-task results in task order yields the same stream for any
// worker count.
func TestMapDeterministicMerge(t *testing.T) {
	serial := Map(1, 50, func(i int) string { return fmt.Sprintf("t%d", i) })
	for _, workers := range []int{2, 3, 8} {
		par := Map(workers, 50, func(i int) string { return fmt.Sprintf("t%d", i) })
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("workers=%d diverged from serial", workers)
		}
	}
}

func TestStatsAdd(t *testing.T) {
	var s Stats
	s.Add("verify", 2, []int64{10, 20, 30, 40, 50})
	p := s.Phases[0]
	// Static assignment: worker 0 gets tasks 0,2,4; worker 1 gets 1,3.
	if !reflect.DeepEqual(p.Units, []int64{90, 60}) {
		t.Errorf("units = %v, want [90 60]", p.Units)
	}
	if p.Total() != 150 || p.Max() != 90 {
		t.Errorf("total=%d max=%d", p.Total(), p.Max())
	}
}

func TestReportPredicates(t *testing.T) {
	var r Report
	if !r.Clean() || !r.AllFixed() {
		t.Error("empty report should be clean and fully repaired")
	}
	r.Found = []Problem{{Kind: "k", Detail: "d"}}
	r.Unrecovered = r.Found
	if r.Clean() || r.AllFixed() {
		t.Error("unrecovered report misclassified")
	}
	if got := r.Found[0].String(); got != "k: d" {
		t.Errorf("String() = %q", got)
	}
}
