package fsck

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ironfs/internal/bcache"
	"ironfs/internal/vfs"
)

// fakeTarget is a scripted file system: each scan reports the next entry
// of scans (the last one repeats), and every call is logged.
type fakeTarget struct {
	unmounted    bool
	mountErr     error
	scans        [][]Problem
	scanErr      error // returned by the scan numbered scanErrAt (0-based)
	scanErrAt    int
	reconcileErr error
	nscans       int
	log          []string
}

func (f *fakeTarget) Mount() error        { f.log = append(f.log, "mount"); return f.mountErr }
func (f *fakeTarget) MountedLocked() bool { return !f.unmounted }
func (f *fakeTarget) AbortLocked()        { f.log = append(f.log, "abort") }
func (f *fakeTarget) ReconcileLocked() error {
	f.log = append(f.log, "reconcile")
	return f.reconcileErr
}
func (f *fakeTarget) ScanLocked(s *Scan) error {
	f.log = append(f.log, "scan")
	i := f.nscans
	f.nscans++
	if len(f.scans) > 0 {
		s.Problems = append(s.Problems, f.scans[min(i, len(f.scans)-1)]...)
	}
	if f.scanErr != nil && i == f.scanErrAt {
		return f.scanErr
	}
	return nil
}

// harness builds a driver over f with logging hooks and one cached block.
func harness(f *fakeTarget) (*Driver, *bcache.Cache) {
	cache := bcache.New(8)
	cache.Put(7, make([]byte, 4), true)
	var mu sync.Mutex
	d := New(f, Volume{Label: "fake", Mu: &mu, Health: new(vfs.Health), Cache: cache, Lazy: []string{"lazy"}})
	d.SetRepairHooks(&RepairHooks{
		Begin: func() { f.log = append(f.log, "begin") },
		End:   func() { f.log = append(f.log, "end") },
	})
	return &d, cache
}

func probs(kinds ...string) []Problem {
	var out []Problem
	for _, k := range kinds {
		out = append(out, Problem{Kind: k, Detail: "d"})
	}
	return out
}

func TestRepairReconcileErrorDiscardsAndAborts(t *testing.T) {
	boom := errors.New("boom")
	f := &fakeTarget{scans: [][]Problem{probs("a", "b")}, reconcileErr: boom}
	d, cache := harness(f)
	rep, err := d.Repair()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if want := "scan begin reconcile end abort"; strings.Join(f.log, " ") != want {
		t.Fatalf("sequence = %v, want %s", f.log, want)
	}
	if cache.Len() != 0 {
		t.Fatal("the cache still holds what the failed pass staged")
	}
	if len(rep.Fixed) != 0 || !reflect.DeepEqual(rep.Unrecovered, rep.Found) || len(rep.Found) != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRepairScanErrorStagesNothing(t *testing.T) {
	boom := errors.New("boom")
	f := &fakeTarget{scans: [][]Problem{probs("a")}, scanErr: boom}
	d, cache := harness(f)
	rep, err := d.Repair()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if want := "scan"; strings.Join(f.log, " ") != want {
		t.Fatalf("sequence = %v, want %s", f.log, want)
	}
	if cache.Len() != 1 {
		t.Fatal("a failed scan must not touch the cache")
	}
	if len(rep.Fixed) != 0 || !reflect.DeepEqual(rep.Unrecovered, probs("a")) {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRepairRescanErrorFixesNothing(t *testing.T) {
	boom := errors.New("boom")
	f := &fakeTarget{scans: [][]Problem{probs("a"), nil}, scanErr: boom, scanErrAt: 1}
	d, _ := harness(f)
	rep, err := d.Repair()
	if !errors.Is(err, boom) || len(rep.Fixed) != 0 || !reflect.DeepEqual(rep.Unrecovered, probs("a")) {
		t.Fatalf("report = %+v, err = %v", rep, err)
	}
}

func TestRepairSplitsFixedFromUnrecovered(t *testing.T) {
	f := &fakeTarget{scans: [][]Problem{probs("a", "wild", "b"), probs("wild")}}
	d, cache := harness(f)
	rep, err := d.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if want := "scan begin reconcile end scan"; strings.Join(f.log, " ") != want {
		t.Fatalf("sequence = %v, want %s", f.log, want)
	}
	if !reflect.DeepEqual(rep.Fixed, probs("a", "b")) || !reflect.DeepEqual(rep.Unrecovered, probs("wild")) {
		t.Fatalf("report = %+v", rep)
	}
	if cache.Len() != 1 {
		t.Fatal("a committed repair must leave the cache alone")
	}
}

func TestRepairCleanScanDoesNothing(t *testing.T) {
	f := &fakeTarget{}
	d, _ := harness(f)
	rep, err := d.Repair()
	if err != nil || !rep.Clean() || !rep.AllFixed() {
		t.Fatalf("report = %+v, err = %v", rep, err)
	}
	if want := "scan"; strings.Join(f.log, " ") != want {
		t.Fatalf("sequence = %v, want %s", f.log, want)
	}
}

func TestRepairGates(t *testing.T) {
	f := &fakeTarget{unmounted: true, scans: [][]Problem{probs("a")}}
	d, _ := harness(f)
	if _, err := d.Repair(); !errors.Is(err, vfs.ErrNotMounted) {
		t.Fatalf("unmounted: %v", err)
	}
	if _, err := d.CheckConsistency(); !errors.Is(err, vfs.ErrNotMounted) {
		t.Fatalf("unmounted check: %v", err)
	}
	f.unmounted = false
	d.v.Health.Degrade(vfs.ReadOnly, "test", errors.New("ro"))
	if _, err := d.Repair(); !errors.Is(err, vfs.ErrReadOnly) {
		t.Fatalf("read-only: %v", err)
	}
	if len(f.log) != 0 {
		t.Fatalf("a gated repair reached the target: %v", f.log)
	}
	if got, err := d.CheckConsistency(); err != nil || len(got) != 1 {
		t.Fatalf("a read-only volume can still be checked: %v, %v", got, err)
	}
}

func TestOracle(t *testing.T) {
	f := &fakeTarget{scans: [][]Problem{probs("lazy", "real", "lazy", "other")}}
	d, _ := harness(f)
	err := d.Oracle()
	if !errors.Is(err, vfs.ErrInconsistent) || !strings.HasSuffix(err.Error(), ": fake: 2 problems, first: real: d") {
		t.Fatalf("err = %v", err)
	}
	if want := "mount scan"; strings.Join(f.log, " ") != want {
		t.Fatalf("sequence = %v, want %s", f.log, want)
	}

	f = &fakeTarget{scans: [][]Problem{probs("lazy")}}
	d, _ = harness(f)
	if err := d.Oracle(); err != nil {
		t.Fatalf("only lazily kept counters are stale: %v", err)
	}

	boom := errors.New("boom")
	f = &fakeTarget{mountErr: boom}
	d, _ = harness(f)
	if err := d.Oracle(); !errors.Is(err, boom) || errors.Is(err, vfs.ErrInconsistent) || err.Error() != "fake oracle mount: boom" {
		t.Fatalf("err = %v", err)
	}
	f = &fakeTarget{scans: [][]Problem{probs("real")}, scanErr: boom}
	d, _ = harness(f)
	if err := d.Oracle(); !errors.Is(err, boom) || errors.Is(err, vfs.ErrInconsistent) || err.Error() != "fake oracle scan: boom" {
		t.Fatalf("err = %v", err)
	}
}
