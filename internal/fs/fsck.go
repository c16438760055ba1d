package fs

// This file is ironfsck's registry face. Every registered file system
// implements the Repairer surface — a structural consistency scan
// (serial or pFSCK-style parallel) and a transactional repair pass — and
// this file exposes the one-call Fsck driver the CLI, CI, and the
// benchmark all share, plus a deterministic damage injector for
// exercising them.

import (
	"fmt"

	"ironfs/internal/disk"
	"ironfs/internal/fs/ext3"
	"ironfs/internal/fs/jfs"
	"ironfs/internal/fs/ntfs"
	"ironfs/internal/fs/reiser"
	"ironfs/internal/fsck"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// Repairer is the unified check-and-repair surface (the paper's §3.3
// RRepair, "checking across blocks ... similar to fsck"). All five
// built-in file systems implement it by embedding the one fsck.Driver
// (ixt3 shares ext3's concrete type); what each supplies to the driver is
// its fsck.Target.
//
// CheckParallel's contract is the load-bearing one: the problem list is
// identical to CheckConsistency's for any worker count — parallelism
// reorders disk accesses, never the verdict.
type Repairer interface {
	// CheckConsistency scans the volume and reports every cross-block
	// inconsistency without modifying anything.
	CheckConsistency() ([]fsck.Problem, error)
	// CheckParallel is the same scan with the verify stages fanned out
	// over `workers` goroutines; workers <= 1 is byte-identical serial.
	CheckParallel(workers int) ([]fsck.Problem, fsck.Stats, error)
	// Repair fixes what the scan found, transactionally: the volume ends
	// consistent-or-degraded, never half-repaired-and-healthy.
	Repair() (fsck.Report, error)
}

// AsRepairer extracts the Repairer surface from an instance produced by
// this registry.
//
//iron:traceok interface assertion, not a repair phase; the phases behind it trace themselves
func AsRepairer(fsys vfs.FileSystem) (Repairer, bool) {
	r, ok := fsys.(Repairer)
	return r, ok
}

// RepairHooker is implemented by file systems whose repair transactions
// can be bracketed with harness hooks (the ironhunt fsck
// crash-idempotence mode): fsck.Driver again, so all five built-ins.
type RepairHooker interface {
	SetRepairHooks(*fsck.RepairHooks)
}

// SetRepairHooks installs repair hooks on fsys if it supports them, and
// reports whether it did.
//
//iron:traceok hook installation, not a repair phase; hooked transactions trace in the FS
func SetRepairHooks(fsys vfs.FileSystem, h *fsck.RepairHooks) bool {
	r, ok := fsys.(RepairHooker)
	if ok {
		r.SetRepairHooks(h)
	}
	return ok
}

// FsckConfig selects how Fsck runs.
type FsckConfig struct {
	// Parallel is the worker count for the check's verify stages; <= 1
	// runs the serial mode the goldens pin.
	Parallel int
	// Repair applies fixes after the check and re-checks.
	Repair bool
}

// FsckResult is one Fsck run's outcome.
type FsckResult struct {
	// FS names the file system checked.
	FS string
	// Problems is the check's verdict (pre-repair when Repair is set).
	Problems []fsck.Problem
	// Stats is the check's per-phase work accounting.
	Stats fsck.Stats
	// Repair is the repair report, nil unless a repair ran.
	Repair *fsck.Report
	// CleanAfter reports whether the final check (post-repair when one
	// ran) found nothing.
	CleanAfter bool
}

// Fsck is the one-call driver: mount the named file system over dev
// (replaying any journal), run the consistency check, optionally repair
// and re-check, and unmount. The mount is the same code path the
// workloads use, so fsck sees exactly what a foreground mount would.
func Fsck(name string, dev disk.Device, opts Options, cfg FsckConfig) (FsckResult, error) {
	res := FsckResult{FS: name}
	fsys, err := Mount(name, dev, opts)
	if err != nil {
		return res, err
	}
	defer func() {
		//iron:policy harness §3.3 the post-verdict unmount is best-effort: a repair that degraded the volume read-only has already reported so
		_ = fsys.Unmount()
	}()
	rep, ok := AsRepairer(fsys)
	if !ok {
		return res, fmt.Errorf("fs: %s does not implement check and repair", name)
	}
	probs, stats, err := rep.CheckParallel(cfg.Parallel)
	res.Problems, res.Stats = probs, stats
	if err != nil {
		return res, err
	}
	res.CleanAfter = len(probs) == 0
	if !cfg.Repair || len(probs) == 0 {
		return res, nil
	}
	r, err := rep.Repair()
	res.Repair = &r
	if err != nil {
		return res, err
	}
	after, err := rep.CheckConsistency()
	if err != nil {
		return res, err
	}
	res.CleanAfter = len(after) == 0
	return res, nil
}

// bitmapClass describes one allocation-bitmap block type of a file system
// and the bit range inside such blocks that is safe and meaningful to
// flip: low inode-style bits address real table slots, mid-range
// block-style bits address real data blocks, and both stay clear of
// format tails the checks deliberately ignore.
type bitmapClass struct {
	bt       iron.BlockType
	min, max int64 // flip bits in [min, max)
}

// fsckBitmapClasses maps each registered name to its allocation bitmaps.
var fsckBitmapClasses = map[string][]bitmapClass{
	"ext3":     {{ext3.BTBitmap, 16, 512}, {ext3.BTIBitmap, 2, 48}},
	"ixt3":     {{ext3.BTBitmap, 16, 512}, {ext3.BTIBitmap, 2, 48}},
	"reiserfs": {{reiser.BTBitmap, 128, 1024}},
	"jfs":      {{jfs.BTBMap, 128, 1024}, {jfs.BTIMap, 2, 48}},
	"ntfs":     {{ntfs.BTVolBmp, 128, 1024}, {ntfs.BTMFTBmp, 2, 48}},
}

// DamageBitmaps flips `flips` bits across the named file system's
// allocation-bitmap blocks on the raw image — the classic fsck workload:
// structural damage the mount accepts silently but the cross-block check
// must catch and the repair must reconcile. Blocks are located with the
// FS's own gray-box resolver; flip positions are deterministic, so the
// same image damaged twice is identical. Returns the number of bits
// flipped.
//
//iron:txok deliberate corruption injector for fsck tests; it writes raw garbage by design
func DamageBitmaps(name string, raw *disk.Disk, flips int) (int, error) {
	e, err := lookup(name)
	if err != nil {
		return 0, err
	}
	classes := fsckBitmapClasses[name]
	if len(classes) == 0 {
		return 0, fmt.Errorf("fs: no bitmap classes for %q", name)
	}
	resolver := e.resolver(raw)
	type target struct {
		blk int64
		cl  bitmapClass
	}
	var targets []target
	for blk := int64(0); blk < raw.NumBlocks(); blk++ {
		bt := resolver.Classify(blk)
		for _, cl := range classes {
			if bt == cl.bt {
				targets = append(targets, target{blk, cl})
				break
			}
		}
	}
	if len(targets) == 0 {
		return 0, fmt.Errorf("fs: %s: resolver found no bitmap blocks", name)
	}
	perBlock := map[int64]int64{}
	buf := make([]byte, raw.BlockSize())
	done := 0
	for i := 0; i < flips; i++ {
		t := targets[i%len(targets)]
		span := t.cl.max - t.cl.min
		k := perBlock[t.blk]
		perBlock[t.blk]++
		if k >= span {
			continue // block's flip budget exhausted
		}
		bit := t.cl.min + (k*37)%span // 37 is coprime with the spans: no repeats
		if err := raw.ReadRaw(t.blk, buf); err != nil {
			return done, err
		}
		buf[bit/8] ^= 1 << uint(bit%8)
		if err := raw.WriteBlock(t.blk, buf); err != nil {
			return done, err
		}
		done++
	}
	return done, nil
}
