package fsck

import (
	"fmt"
	"slices"
	"sync"

	"ironfs/internal/bcache"
	"ironfs/internal/trace"
	"ironfs/internal/vfs"
)

// Target is one file system as the check-and-repair driver sees it — the
// journal.Committer cut: the driver owns the sequencing, the file system
// keeps what is its own. Every Locked method runs with the volume lock
// held.
type Target interface {
	// Mount brings the volume up (replaying any journal) for the oracle.
	Mount() error
	// MountedLocked reports whether the volume is mounted.
	MountedLocked() bool
	// ScanLocked enumerates the volume's objects, directory entries and
	// block pointers into s and verifies its allocation maps against
	// them. It modifies nothing. An error means the file system itself
	// flagged damage (a read failed, a sanity check fired); s keeps what
	// was found up to that point.
	ScanLocked(s *Scan) error
	// ReconcileLocked stages and commits every fix the file system has.
	// An error means some part of the reconciliation did not reach disk.
	ReconcileLocked() error
	// AbortLocked runs after a failed ReconcileLocked, the driver having
	// emptied the block cache: forget the running transaction, so nothing
	// the pass staged can ride a later commit, and apply the file
	// system's §5 stop.
	AbortLocked()
}

// Volume is what a file system hands its driver once, at construction.
type Volume struct {
	// Label names the file system in oracle errors.
	Label string
	// Mu is the volume lock every entry point takes.
	//
	//iron:lockorder 10 the owning file system's big lock under its driver-side name
	Mu sync.Locker
	// Health gates repairs: a degraded volume is not written to.
	Health *vfs.Health
	Tracer *trace.Tracer
	// Cache is emptied when a repair fails: whatever the pass staged or
	// froze must not be readable afterwards, and what was committed
	// before it is on disk.
	Cache *bcache.Cache
	// Lazy lists problem kinds the oracle ignores: counters the file
	// system writes outside the journal, legitimately stale after a crash.
	Lazy []string
}

// Driver is the one check-and-repair sequence. A file system embeds it —
// which makes it a fs.Repairer — and implements Target.
type Driver struct {
	v     Volume
	t     Target
	hooks *RepairHooks
}

// New returns the driver for target t on volume v.
func New(t Target, v Volume) Driver { return Driver{v: v, t: t} }

// scanLocked runs one scan.
func (d *Driver) scanLocked(workers int) ([]Problem, Stats, error) {
	if !d.t.MountedLocked() {
		return nil, Stats{}, vfs.ErrNotMounted
	}
	s := newScan(workers, d.v.Tracer)
	err := d.t.ScanLocked(s)
	return s.Problems, s.Stats, err
}

// CheckConsistency scans the volume and reports every cross-block
// inconsistency without modifying anything.
func (d *Driver) CheckConsistency() ([]Problem, error) {
	probs, _, err := d.CheckParallel(1)
	return probs, err
}

// CheckParallel is CheckConsistency with the scan's stages fanned out over
// `workers` goroutines. The problem list is identical to the serial scan's
// for any worker count; Stats reports per-phase, per-worker work.
func (d *Driver) CheckParallel(workers int) ([]Problem, Stats, error) {
	d.v.Mu.Lock()
	defer d.v.Mu.Unlock()
	return d.scanLocked(workers)
}

// Oracle is the crash-exploration consistency oracle: mount the volume
// (replaying its journal) and scan it. Damage the file system itself
// flagged — a refused mount, a sanity check firing during the scan — comes
// back as its own error; damage it accepted silently comes back wrapped in
// vfs.ErrInconsistent.
func (d *Driver) Oracle() error {
	if err := d.t.Mount(); err != nil {
		return fmt.Errorf("%s oracle mount: %w", d.v.Label, err)
	}
	probs, err := d.CheckConsistency()
	if err != nil {
		return fmt.Errorf("%s oracle scan: %w", d.v.Label, err)
	}
	probs = slices.DeleteFunc(probs, func(p Problem) bool { return slices.Contains(d.v.Lazy, p.Kind) })
	if len(probs) > 0 {
		return fmt.Errorf("%w: %s: %d problems, first: %s", vfs.ErrInconsistent, d.v.Label, len(probs), probs[0])
	}
	return nil
}

// Repair scans the volume and fixes what the file system can fix,
// transactionally: either the reconciliation commits — a re-scan then
// splits Found into Fixed and, for problems with no automatic fix,
// Unrecovered — or the cache is emptied, the running transaction is
// dropped and the volume stops per its §5 policy with everything Found
// left Unrecovered. The image is consistent-or-degraded, never
// half-repaired-and-healthy.
func (d *Driver) Repair() (Report, error) {
	d.v.Mu.Lock()
	defer d.v.Mu.Unlock()
	var rep Report
	if !d.t.MountedLocked() {
		return rep, vfs.ErrNotMounted
	}
	if err := d.v.Health.CheckWrite(); err != nil {
		return rep, err
	}
	probs, _, err := d.scanLocked(1)
	rep.Found = probs
	if err != nil {
		// The scan itself failed; nothing was staged, but the found
		// problems (if any) are not fixable this pass.
		rep.Unrecovered = probs
		return rep, err
	}
	if len(probs) == 0 {
		return rep, nil
	}
	d.v.Tracer.Phase("fsck:reconcile", fmt.Sprintf("problems=%d", len(probs)))
	d.hooks.enter()
	err = d.t.ReconcileLocked()
	d.hooks.exit()
	if err != nil {
		d.v.Cache.Reset()
		d.t.AbortLocked()
		rep.Unrecovered = probs
		return rep, err
	}
	after, _, err := d.scanLocked(1)
	if err != nil {
		rep.Unrecovered = probs
		return rep, err
	}
	rep.Unrecovered = after
	rep.Fixed = Subtract(probs, after)
	return rep, nil
}

// SetRepairHooks installs hooks bracketing future repair transactions
// (nil uninstalls). Harness-only: install while the volume is quiet, not
// during a concurrent repair.
//
//iron:traceok hook installer, not a repair phase: runs while the volume is quiet and touches no blocks
func (d *Driver) SetRepairHooks(h *RepairHooks) {
	d.v.Mu.Lock()
	defer d.v.Mu.Unlock()
	d.hooks = h
}
