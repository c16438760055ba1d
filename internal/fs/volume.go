package fs

import (
	"fmt"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/sched"
	"ironfs/internal/trace"
	"ironfs/internal/vfs"
)

// MountOpts parameterizes MountVolume. The zero value plus an FS name is a
// complete specification: a fresh 4096-block disk, no fault layer, no
// scheduler queueing, freshly formatted and mounted.
type MountOpts struct {
	// FS names the registered file system ("ext3", "reiserfs", ...).
	FS string
	// Opts is the file system's option set, validated by the registry.
	Opts Options
	// Label attributes the volume in error messages and metrics — the
	// serving tier uses volume IDs, harnesses use target labels. Empty
	// defaults to the FS name.
	Label string
	// Blocks sizes the volume's disk (default 4096 blocks = 16 MiB).
	Blocks int64
	// Clock drives the volume's simulated time. Nil creates a private
	// clock; a server hosting many volumes passes one shared clock so
	// cross-volume latencies are comparable.
	Clock *disk.Clock
	// Image restores a flat disk snapshot instead of formatting. Outside
	// tests only bench/ sets it; every other caller sets Base.
	Image []byte
	// Base restores a disk Image instead of formatting: the volume shares
	// its tracks and copies one only at its first write to it.
	Base *disk.Image
	// Faults inserts a fault-injection layer (armed later via
	// Volume.Faults) over the FS's gray-box resolver, which is built only
	// for it (NewResolver builds one for a volume without the layer).
	Faults bool
	// Seed seeds the fault layer's corruption-noise RNG (0 = default).
	Seed int64
	// QueueDepth configures the C-LOOK scheduler above the device
	// (≤ 1 = strict passthrough, no scheduler layer inserted).
	QueueDepth int
	// SchedPolicy selects the scheduler's drain dispatch order (zero =
	// sched.PolicyCLOOK, the historical behavior; sched.PolicyAdaptive
	// switches C-LOOK vs deadline by queue pressure). Ignored at
	// QueueDepth ≤ 1.
	SchedPolicy sched.Policy
	// ReadAhead enables sequential read-ahead on Read, on all five file
	// systems: a miss that continues a stream the cache already holds
	// prefetches up to this many blocks (0 = off, the historical
	// behavior).
	ReadAhead int
	// Recorder receives IRON policy events (may be nil).
	Recorder *iron.Recorder
	// Trace attaches an evidence tracer to the disk before the upper
	// layers are constructed, so they discover it via trace.Of.
	Trace bool
	// NoMount leaves the file system constructed but unmounted, for
	// harnesses that crash or fingerprint the mount path itself.
	NoMount bool
}

// Volume is one mounted file system with its whole device tower — the
// handle every harness and the serving tier construct stacks through. The
// tower, bottom to top: Disk → (Tracer) → (Faults) → (Sched) → FS, with
// Dev naming whatever ended up directly beneath the file system.
type Volume struct {
	// Name is the registered FS name; Label is the caller's attribution
	// label (defaults to Name).
	Name  string
	Label string
	// Opts is the validated option set the volume was built with.
	Opts Options

	Disk     *disk.Disk
	Clock    *disk.Clock
	Tracer   *trace.Tracer
	Faults   *faultinject.Device
	Sched    *sched.Scheduler
	Dev      disk.Device
	FS       vfs.FileSystem
	Resolver faultinject.TypeResolver // the fault layer's; nil without one
	Recorder *iron.Recorder
}

// MountVolume is the one-call constructor for a complete stack: it builds
// the disk (fresh or from a snapshot), attaches tracer, fault layer and
// scheduler as requested, formats when no image was given, constructs the
// named file system, and mounts it. Every error is wrapped with the
// volume's label so multi-volume configuration failures are attributable.
func MountVolume(o MountOpts) (*Volume, error) {
	label := o.Label
	if label == "" {
		label = o.FS
	}
	fail := func(err error) (*Volume, error) {
		return nil, fmt.Errorf("fs: volume %s (%s): %w", label, o.FS, err)
	}
	e, err := lookup(o.FS)
	if err != nil {
		return fail(err)
	}
	if err := e.validate(o.Opts); err != nil {
		return fail(err)
	}

	blocks := o.Blocks
	if blocks == 0 {
		blocks = 4096
	}
	clk := o.Clock
	if clk == nil {
		clk = disk.NewClock()
	}
	d, err := disk.New(blocks, disk.DefaultGeometry(), clk)
	if err != nil {
		return fail(err)
	}
	switch {
	case o.Base != nil:
		err = d.RestoreImage(o.Base)
	case o.Image != nil:
		err = d.Restore(o.Image)
	}
	if err != nil {
		return fail(err)
	}

	v := &Volume{
		Name: o.FS, Label: label, Opts: o.Opts,
		Disk: d, Clock: d.Clock(), Recorder: o.Recorder,
	}
	if o.Trace {
		v.Tracer = trace.New(func() int64 { return int64(d.Clock().Now()) })
		d.SetTracer(v.Tracer)
		v.Tracer.BridgeRecorder(o.Recorder)
	}
	var dev disk.Device = d
	if o.Faults {
		v.Resolver = e.resolver(d)
		seed := o.Seed
		if seed == 0 {
			seed = faultinject.DefaultSeed
		}
		v.Faults = faultinject.NewSeeded(dev, v.Resolver, seed)
		dev = v.Faults
	}
	if o.QueueDepth > 1 {
		v.Sched = sched.New(dev, sched.Config{QueueDepth: o.QueueDepth, Policy: o.SchedPolicy})
		dev = v.Sched
	}
	v.Dev = dev

	if o.Base == nil && o.Image == nil {
		// Format through the raw disk: mkfs traffic is setup, not
		// workload, so it bypasses fault injection and queueing.
		if err := e.mkfs(d, o.Opts); err != nil {
			return fail(err)
		}
	}
	v.FS = e.newFS(dev, o.Opts, o.Recorder)
	if o.ReadAhead > 0 {
		if r, ok := v.FS.(interface{ SetReadAhead(int) }); ok {
			r.SetReadAhead(o.ReadAhead)
		}
	}
	if !o.NoMount {
		if err := v.FS.Mount(); err != nil {
			return fail(err)
		}
	}
	return v, nil
}

// Health reports the volume's RStop state (Healthy → ReadOnly → Panicked).
func (v *Volume) Health() vfs.HealthState {
	st, _ := Health(v.FS)
	return st
}

// Transitions reports the volume's degrade log — every downward health
// move with the subsystem and cause that forced it.
func (v *Volume) Transitions() []vfs.Transition {
	ts, _ := Transitions(v.FS)
	return ts
}

// HealthCause returns the cause of the volume's most recent degrade, or ""
// while healthy.
func (v *Volume) HealthCause() string {
	ts := v.Transitions()
	if len(ts) == 0 {
		return ""
	}
	return ts[len(ts)-1].Cause
}

// Repairer exposes the volume's online check/repair surface, if the file
// system implements one (all five built-ins do).
//
//iron:traceok accessor over AsRepairer, not a repair phase
func (v *Volume) Repairer() (Repairer, bool) { return AsRepairer(v.FS) }

// Checker returns the volume's offline consistency oracle, bound to the
// volume's option set.
func (v *Volume) Checker() (Checker, error) { return NewChecker(v.Name, v.Opts) }

// Unmount cleanly unmounts the file system, draining the scheduler.
func (v *Volume) Unmount() error { return v.FS.Unmount() }
