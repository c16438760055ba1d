package fstest

import (
	"fmt"
	"runtime"
	"sync"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/trace"
	"ironfs/internal/vfs"
)

// The record and grade steps every crash harness shares: Explore's
// structural matrix, the fsync sweep and internal/hunt all record a
// workload once on a CrashDevice, then restore each crash state's disk
// from the base image, write the state's share of the log onto it, remount
// (running recovery) and grade it.

// Recording is one workload recorded on a CrashDevice.
type Recording struct {
	Target ExploreTarget
	// Blocks is the volume size.
	Blocks int64
	// Base is the media image before the workload.
	Base *disk.Image
	// Log is every write that landed during the workload, and Epochs the
	// number of barrier epochs it sealed.
	Log    []faultinject.WriteRecord
	Epochs int
}

// Record formats a fresh volume of the given size for t, lets prep ready
// the raw disk (nil = nothing to do), snapshots it as the base image, and
// runs workload on a recording CrashDevice over it.
func Record(t ExploreTarget, blocks int64, prep func(*disk.Disk) error, workload func(*faultinject.CrashDevice) error) (*Recording, error) {
	d, err := disk.New(blocks, disk.DefaultGeometry(), nil)
	if err != nil {
		return nil, err
	}
	if err := t.Mkfs(d); err != nil {
		return nil, fmt.Errorf("%s mkfs: %w", t.Name, err)
	}
	if prep != nil {
		if err := prep(d); err != nil {
			return nil, err
		}
	}
	r := &Recording{Target: t, Blocks: blocks, Base: d.Image()}
	cd := faultinject.NewCrashDevice(d, -1)
	if err := workload(cd); err != nil {
		return nil, err
	}
	r.Log, r.Epochs = cd.Log(), cd.Epochs()
	return r, nil
}

// SeqRun is one Sequence recorded over the baseline image, with the
// oracle's log spans filled in.
type SeqRun struct {
	*Recording
	Seq    Sequence
	Oracle *Oracle
}

// RecordSeq formats a fresh volume of the given size for t, populates the
// baseline on it and unmounts cleanly — so the image every crash state is
// rebuilt from already owes the oracle one durable file — then replays seq
// on a recording CrashDevice and fills the oracle's log spans. It returns
// nil (no error) for a sequence that produces no writes at all.
func RecordSeq(t ExploreTarget, blocks int64, seq Sequence) (*SeqRun, error) {
	baseline := func(d *disk.Disk) error {
		pfs := t.New(d, iron.NewRecorder())
		if err := pfs.Mount(); err != nil {
			return fmt.Errorf("%s baseline mount: %w", t.Name, err)
		}
		if err := Preamble(pfs); err != nil {
			return fmt.Errorf("%s baseline populate: %w", t.Name, err)
		}
		if err := pfs.Unmount(); err != nil {
			return fmt.Errorf("%s baseline unmount: %w", t.Name, err)
		}
		return nil
	}
	o := NewOracle(seq)
	rec, err := Record(t, blocks, baseline, func(cd *faultinject.CrashDevice) error {
		fsys := t.New(cd, iron.NewRecorder())
		if err := fsys.Mount(); err != nil {
			return fmt.Errorf("%s mount: %w", t.Name, err)
		}
		for i, op := range seq {
			start := int(cd.Written())
			if err := op.Issue(fsys, i); err != nil {
				return fmt.Errorf("%s replay op %d %s: %w", t.Name, i, op, err)
			}
			o.setLogSpan(i, start, int(cd.Written()), cd.Epochs())
		}
		return nil
	})
	if err != nil || len(rec.Log) == 0 {
		return nil, err
	}
	return &SeqRun{Recording: rec, Seq: seq, Oracle: o}, nil
}

// Graded is what the grade step saw of one crash state.
type Graded struct {
	// MountErr is the recovery mount's refusal; when it is set nothing
	// else ran.
	MountErr error
	// CheckErr is the structural oracle's verdict: nil for a sound image,
	// an error wrapping vfs.ErrInconsistent for damage, any other error
	// when the oracle's own scan was refused.
	CheckErr error
	// Detected reports whether the file system flagged damage during the
	// recovery mount, the probe or the check.
	Detected bool
	// Trace is the evidence of the recovery mount and check, when traced.
	Trace []trace.Event
}

// Grade restores a disk from r.Base, writes crash state st onto it,
// mounts it with a fresh recorder (running recovery), runs probe on the
// mounted file system (nil = none), and then the structural check (if the
// target has one). A non-empty mark traces the grading, under that mark.
func (r *Recording) Grade(st faultinject.CrashState, p faultinject.EnumPolicy, mark string, probe func(vfs.FileSystem)) (Graded, error) {
	var g Graded
	d, err := disk.New(r.Blocks, disk.DefaultGeometry(), nil)
	if err != nil {
		return g, err
	}
	if err := d.RestoreImage(r.Base); err != nil {
		return g, err
	}
	if err := faultinject.ApplyCrashState(d, r.Log, st, p); err != nil {
		return g, err
	}
	// A fresh recorder: any detection here means the file system saw the
	// damage.
	rec := iron.NewRecorder()
	var tr *trace.Tracer
	if mark != "" {
		tr = trace.New(func() int64 { return int64(d.Clock().Now()) })
		d.SetTracer(tr)
		tr.BridgeRecorder(rec)
		tr.Mark(mark)
	}
	fsys := r.Target.New(d, rec)
	if g.MountErr = fsys.Mount(); g.MountErr == nil {
		if probe != nil {
			probe(fsys)
		}
		if r.Target.Check != nil {
			g.CheckErr = r.Target.Check(d)
		}
		for _, e := range rec.Events() {
			if e.Detection != iron.DZero {
				g.Detected = true
				break
			}
		}
	}
	if tr.Enabled() {
		g.Trace = tr.Events()
	}
	return g, nil
}

// Spread runs job(i) for every i in [0, n) over at most 8 workers
// (workers <= 0 means GOMAXPROCS). Items are striped over workers, so a
// job writing only its own result slot is race-free and the results are
// deterministic. A worker stops at its first error; Spread returns the
// first worker's.
func Spread(n, workers int, job func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, 8)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < n; i += workers {
				if errs[wk] = job(i); errs[wk] != nil {
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
