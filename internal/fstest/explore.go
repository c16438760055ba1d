package fstest

import (
	"bytes"
	"errors"
	"fmt"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/sched"
	"ironfs/internal/trace"
	"ironfs/internal/vfs"
)

// Crash-state exploration: record a workload once on a CrashDevice, then
// for every write in its log enumerate the crash states the write-cache
// model admits — reordered and torn subsets of the unsealed epoch —
// write each state onto a disk restored copy-on-write from the base
// image, remount (running journal recovery), and grade the result with a
// per-FS consistency oracle. The grading separates the paper's §6.2
// headline cleanly: a file system that trusts write ordering replays
// garbage silently; one with transactional checksums detects it.

// ExploreTarget binds one file system into the harness. The concrete
// targets live in internal/fingerprint (fstest cannot import the fs
// packages — their in-package tests import fstest).
type ExploreTarget struct {
	// Name labels the target in reports ("ext3", "ixt3", ...).
	Name string
	// DiskBlocks overrides the device size for this target (0 = config).
	DiskBlocks int64
	// Mkfs formats a fresh device.
	Mkfs func(dev disk.Device) error
	// New binds an instance reporting into rec.
	New func(dev disk.Device, rec *iron.Recorder) vfs.FileSystem
	// Check is the consistency oracle: nil for a structurally sound
	// image, an error wrapping vfs.ErrInconsistent for silent damage,
	// any other error when the file system itself refused the image.
	Check func(dev disk.Device) error
}

// ExploreWorkload is a deterministic mutation sequence run on the recording
// device to generate the write stream under exploration.
type ExploreWorkload struct {
	Name string
	Run  func(fs vfs.FileSystem) error
}

// Workloads returns the standard exploration workloads: "mkfiles" (create,
// write, fsync ×3 — the journal commit path), "churn" (mkdir, create,
// rename, unlink — the metadata-heavy path), plus the hunt-generator
// vocabulary cases: "renameover" (rename onto an existing target),
// "linkchurn" (hard-link then unlink the source), and "appendsync"
// (append after an fsync, splitting the file's durability across commits).
func Workloads() []ExploreWorkload {
	return []ExploreWorkload{
		{Name: "mkfiles", Run: func(fs vfs.FileSystem) error {
			for i := 0; i < 3; i++ {
				p := fmt.Sprintf("/durable%d", i)
				if err := fs.Create(p, 0o644); err != nil {
					return err
				}
				if _, err := fs.Write(p, 0, crashPayload(i)); err != nil {
					return err
				}
				if err := fs.Fsync(p); err != nil {
					return err
				}
			}
			return nil
		}},
		{Name: "churn", Run: func(fs vfs.FileSystem) error {
			if err := fs.Mkdir("/d", 0o755); err != nil {
				return err
			}
			for i := 0; i < 2; i++ {
				p := fmt.Sprintf("/d/f%d", i)
				if err := fs.Create(p, 0o644); err != nil {
					return err
				}
				if _, err := fs.Write(p, 0, crashPayload(i)); err != nil {
					return err
				}
			}
			if err := fs.Rename("/d/f0", "/d/g0"); err != nil {
				return err
			}
			if err := fs.Unlink("/d/f1"); err != nil {
				return err
			}
			return fs.Sync()
		}},
		{Name: "renameover", Run: func(fs vfs.FileSystem) error {
			// Both names exist and are fsync'd, then the source is renamed
			// over the target: the target's old inode must be replaced
			// atomically, never half-gone.
			for i, p := range []string{"/old", "/new"} {
				if err := fs.Create(p, 0o644); err != nil {
					return err
				}
				if _, err := fs.Write(p, 0, crashPayload(i)); err != nil {
					return err
				}
				if err := fs.Fsync(p); err != nil {
					return err
				}
			}
			if err := fs.Rename("/old", "/new"); err != nil {
				return err
			}
			return fs.Sync()
		}},
		{Name: "linkchurn", Run: func(fs vfs.FileSystem) error {
			// Hard-link then unlink the source: the inode survives under
			// the second name, so its data must never ride on the first
			// name's fate.
			if err := fs.Create("/src", 0o644); err != nil {
				return err
			}
			if _, err := fs.Write("/src", 0, crashPayload(0)); err != nil {
				return err
			}
			if err := fs.Link("/src", "/dst"); err != nil {
				return err
			}
			if err := fs.Fsync("/src"); err != nil {
				return err
			}
			if err := fs.Unlink("/src"); err != nil {
				return err
			}
			return fs.Sync()
		}},
		{Name: "appendsync", Run: func(fs vfs.FileSystem) error {
			// Append after an fsync: the first commit covers the head of
			// the file, the second the tail — a crash between them must
			// keep the fsync'd head intact.
			if err := fs.Create("/log", 0o644); err != nil {
				return err
			}
			head := crashPayload(0)
			if _, err := fs.Write("/log", 0, head); err != nil {
				return err
			}
			if err := fs.Fsync("/log"); err != nil {
				return err
			}
			if _, err := fs.Write("/log", int64(len(head)), crashPayload(1)); err != nil {
				return err
			}
			return fs.Fsync("/log")
		}},
	}
}

// crashPayload is the content the workloads above write: i picks the byte
// and the length.
func crashPayload(i int) []byte {
	return bytes.Repeat([]byte{byte('A' + i)}, 3000+i*1000)
}

// ExploreConfig bounds a run.
type ExploreConfig struct {
	// DiskBlocks sizes the device (default 1024; targets may override).
	DiskBlocks int64
	// Stride samples every Nth write as a crash point (default 1).
	Stride int
	// MaxPoints caps the number of crash points (0 = all). Points are
	// spread evenly over the write stream when capped.
	MaxPoints int
	// Policy is the crash-state enumeration policy (zero = defaults).
	Policy faultinject.EnumPolicy
	// Workers sets the worker-goroutine count (default GOMAXPROCS, max 8;
	// see Spread).
	Workers int
	// QueueDepth inserts the I/O scheduler between the file system and
	// the crash device during the workload phase, with the given queue
	// depth. Depth ≤ 1 (the default) is a strict passthrough — the logged
	// write stream, and therefore the whole crash matrix, is byte-for-byte
	// what it was before the scheduler existed. Depths > 1 let the
	// exploration ask what write-behind queueing does to crash consistency.
	QueueDepth int
	// Trace attaches an evidence trace to every graded crash state (the
	// recovery mount and oracle scan, with detections bridged in) and the
	// full workload trace to the result. Off by default: per-state traces
	// are memory-heavy at full exploration scale.
	Trace bool
}

func (c ExploreConfig) withDefaults() ExploreConfig {
	if c.DiskBlocks == 0 {
		c.DiskBlocks = 1024
	}
	if c.Stride <= 0 {
		c.Stride = 1
	}
	return c
}

// ExploreResult is the graded outcome of one (target, workload) cell.
type ExploreResult struct {
	Target   string
	Workload string
	// Writes is the total logged write count; Points of them were used
	// as crash points; States is the total crash states materialized.
	Writes, Points, States int
	// Consistent: mount succeeded, oracle passed, nothing detected.
	// Detected: mount succeeded and the oracle passed, but the file
	// system flagged and contained damage along the way.
	// Refused: the file system rejected the image (mount failed, or a
	// sanity check aborted the oracle's scan).
	// Inconsistent: the oracle found structural damage. Silent counts
	// the subset the file system never flagged — undetected corruption.
	Consistent, Detected, Refused, Inconsistent, Silent int
	// FirstSilent describes the first silently corrupt state (state
	// order, so deterministic), empty if none.
	FirstSilent string
	// Barriers counts the ordering points the workload actually issued,
	// taken from observed cache-layer barrier events in the workload
	// trace — the evidence behind "this variant cannot express ordering"
	// claims (ext3-nobarrier must show 0 here, stock ext3 several).
	Barriers int
	// Epochs is the number of sealed write-cache epochs (== Barriers; kept
	// separately because it comes from the crash device's own counter, so
	// a mismatch means the trace itself is wrong).
	Epochs int
	// WorkloadTrace is the workload phase's evidence trace (nil unless
	// ExploreConfig.Trace).
	WorkloadTrace []trace.Event
	// States' per-state evidence (nil unless ExploreConfig.Trace), in
	// deterministic state order.
	StateResults []StateResult
}

// StateResult is the per-crash-state evidence attached when tracing.
type StateResult struct {
	// State renders the crash state ("p42 m=1011 torn").
	State string
	// Epoch is the open (unsealed) epoch the crash struck in.
	Epoch int
	// Outcome is the verdict: consistent, detected, refused,
	// inconsistent, or silent.
	Outcome string
	// Detail carries the oracle's error or refusal reason, if any.
	Detail string
	// Trace is the recovery mount + oracle scan evidence trace.
	Trace []trace.Event
}

// String renders one matrix row.
func (r *ExploreResult) String() string {
	return fmt.Sprintf("%-14s %-8s writes=%-4d barriers=%-3d points=%-4d states=%-5d ok=%-5d detected=%-4d refused=%-4d inconsistent=%-4d silent=%d",
		r.Target, r.Workload, r.Writes, r.Barriers, r.Points, r.States,
		r.Consistent, r.Detected, r.Refused, r.Inconsistent, r.Silent)
}

// Explore records the workload on the target once, on a CrashDevice, and
// grades every enumerated crash state of its write log. The run is
// deterministic for a fixed config and race-free: states are striped over
// workers, each state gets a disk of its own restored from the shared
// base image, and results land in indexed slots.
func Explore(t ExploreTarget, w ExploreWorkload, cfg ExploreConfig) (*ExploreResult, error) {
	cfg = cfg.withDefaults()
	blocks := cfg.DiskBlocks
	if t.DiskBlocks != 0 {
		blocks = t.DiskBlocks
	}

	// The workload phase is always traced: the cache-layer barrier events
	// are the observed evidence for epoch/ordering claims, and the phase
	// is single-run (cheap) unlike the per-state grading below.
	var wtr *trace.Tracer
	traceDisk := func(d *disk.Disk) error {
		wtr = trace.New(func() int64 { return int64(d.Clock().Now()) })
		d.SetTracer(wtr)
		return nil
	}
	r, err := Record(t, blocks, traceDisk, func(cd *faultinject.CrashDevice) error {
		rec := iron.NewRecorder()
		wtr.BridgeRecorder(rec)
		// The scheduler sits above the crash device so a drain delivers
		// its batch into the open epoch exactly as direct writes would; at
		// the default depth 1 it is a strict passthrough.
		fs := t.New(sched.New(cd, sched.Config{QueueDepth: cfg.QueueDepth}), rec)
		wtr.Mark(fmt.Sprintf("explore fs=%s workload=%s", t.Name, w.Name))
		if err := fs.Mount(); err != nil {
			return fmt.Errorf("%s mount: %w", t.Name, err)
		}
		if err := w.Run(fs); err != nil {
			return fmt.Errorf("%s workload %s: %w", t.Name, w.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	log := r.Log
	if len(log) == 0 {
		return nil, fmt.Errorf("%s workload %s: no writes logged", t.Name, w.Name)
	}
	workloadEvents := wtr.Events()
	barriers := 0
	for _, e := range workloadEvents {
		if e.Layer == trace.LayerCache && e.Kind == trace.KindBarrier {
			barriers++
		}
	}

	// Pick crash points: every Stride-th write, evenly thinned to
	// MaxPoints if capped.
	var points []int
	for i := 0; i < len(log); i += cfg.Stride {
		points = append(points, i)
	}
	if cfg.MaxPoints > 0 && len(points) > cfg.MaxPoints {
		thinned := make([]int, cfg.MaxPoints)
		for i := range thinned {
			thinned[i] = points[i*len(points)/cfg.MaxPoints]
		}
		points = thinned
	}

	// Enumerate up front so states can be partitioned over workers.
	var states []faultinject.CrashState
	for _, p := range points {
		states = append(states, faultinject.EnumerateCrashStates(log, p, cfg.Policy)...)
	}

	type verdict struct {
		outcome, detail string
		events          []trace.Event // evidence, only under cfg.Trace
	}
	verdicts := make([]verdict, len(states))
	err = Spread(len(states), cfg.Workers, func(i int) error {
		st := states[i]
		mark := ""
		if cfg.Trace {
			mark = fmt.Sprintf("crash-state fs=%s workload=%s state=%s epoch=%d",
				t.Name, w.Name, st, log[st.Point].Epoch)
		}
		g, err := r.Grade(st, cfg.Policy, mark, nil)
		if err != nil {
			return err
		}
		v := verdict{events: g.Trace}
		switch {
		case g.MountErr != nil:
			v.outcome, v.detail = "refused", g.MountErr.Error()
		case g.CheckErr == nil && g.Detected:
			v.outcome = "detected"
		case g.CheckErr == nil:
			v.outcome = "consistent"
		case errors.Is(g.CheckErr, vfs.ErrInconsistent) && g.Detected:
			v.outcome, v.detail = "inconsistent", g.CheckErr.Error()
		case errors.Is(g.CheckErr, vfs.ErrInconsistent):
			v.outcome, v.detail = "silent", fmt.Sprintf("%s: %v", st, g.CheckErr)
		default:
			// The oracle's own mount/scan hit a detected failure.
			v.outcome, v.detail = "refused", g.CheckErr.Error()
		}
		verdicts[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &ExploreResult{
		Target: t.Name, Workload: w.Name,
		Writes: len(log), Points: len(points), States: len(states),
		Barriers: barriers, Epochs: r.Epochs,
	}
	if cfg.Trace {
		res.WorkloadTrace = workloadEvents
		res.StateResults = make([]StateResult, len(states))
		for i, v := range verdicts {
			res.StateResults[i] = StateResult{
				State:   states[i].String(),
				Epoch:   log[states[i].Point].Epoch,
				Outcome: v.outcome,
				Detail:  v.detail,
				Trace:   v.events,
			}
		}
	}
	for _, v := range verdicts {
		switch v.outcome {
		case "consistent":
			res.Consistent++
		case "detected":
			res.Detected++
		case "refused":
			res.Refused++
		case "inconsistent":
			res.Inconsistent++
		case "silent":
			res.Inconsistent++
			res.Silent++
			if res.FirstSilent == "" {
				res.FirstSilent = v.detail
			}
		}
	}
	return res, nil
}
