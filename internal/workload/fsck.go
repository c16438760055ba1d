package workload

import (
	"fmt"

	"ironfs/internal/disk"
	"ironfs/internal/fs"
	"ironfs/internal/fsck"
)

// The fsck benchmark: how long does a full consistency check of a damaged
// volume take, serially versus with the pFSCK-style parallel pipeline?
//
// Timing uses the same virtual-machine model as the other studies. Disk
// time is the simulated clock delta around the check. Every parallel
// stage reads its blocks in serially, in task order, before it fans out
// (fsck.Stage's load), so the disk sees the serial check's reads in the
// serial order and the delta is the same for any worker count. CPU time
// comes from the check's own per-phase work accounting: each
// examined unit (a table slot, a bitmap block's worth of bits) charges
// fsckCPUPerUnit to its worker's core, and a phase's wall cost is its
// slowest worker (fsck.Phase.Max). With one worker that degenerates to the
// exact serial sum, so the comparison is measured, not assumed.
//
// The parallel check returns the identical problem list — that is pinned
// by tests and re-verified here — so the speedup buys no accuracy loss.

const (
	// fsckFiles/fsckFileBlocks populate the volume so the census walks a
	// real tree.
	fsckFiles      = 48
	fsckFileBlocks = 3
	// fsckFlips is the bitmap damage injected before checking.
	fsckFlips = 24
	// fsckCPUPerUnit charges each examined unit's share of hashing,
	// cross-referencing, and range checks — the CPU half that pFSCK
	// parallelizes.
	fsckCPUPerUnit = 40 * disk.Microsecond
)

// FsckRun is one timed check.
type FsckRun struct {
	// Workers is the worker count the check ran with.
	Workers int
	// Problems is the number of problems found.
	Problems int
	// DiskTime is the simulated clock delta (I/O and queueing).
	DiskTime disk.Duration
	// CPUTime is the virtual-CPU critical path across the check's phases.
	CPUTime disk.Duration
	// Elapsed is DiskTime + CPUTime, the run's virtual wall time.
	Elapsed disk.Duration
}

// FsckRow compares the serial and parallel check of one file system over
// identically damaged images.
type FsckRow struct {
	FS     string
	Flips  int
	Serial FsckRun
	Par    FsckRun
}

// Speedup is the serial-to-parallel elapsed ratio.
func (r FsckRow) Speedup() float64 {
	if r.Par.Elapsed == 0 {
		return 0
	}
	return float64(r.Serial.Elapsed) / float64(r.Par.Elapsed)
}

// fsckImage builds a populated volume, unmounts it cleanly, and injects
// deterministic bitmap damage. The image lets both runs start from the
// identical media.
func fsckImage(name string) (*disk.Image, error) {
	vol, err := fs.MountVolume(fs.MountOpts{FS: name, Blocks: benchDiskBlocks, Label: "fsck-bench"})
	if err != nil {
		return nil, fmt.Errorf("fsck bench: %w", err)
	}
	d, fsys := vol.Disk, vol.FS
	payload := make([]byte, fsckFileBlocks*4096)
	for i := range payload {
		payload[i] = byte(i % 253)
	}
	for i := 0; i < fsckFiles; i++ {
		if i%8 == 0 {
			if err := fsys.Mkdir(fmt.Sprintf("/d%d", i/8), 0o755); err != nil {
				return nil, err
			}
		}
		p := fmt.Sprintf("/d%d/f%d", i/8, i)
		if err := fsys.Create(p, 0o644); err != nil {
			return nil, err
		}
		if _, err := fsys.Write(p, 0, payload); err != nil {
			return nil, err
		}
	}
	if err := fsys.Unmount(); err != nil {
		return nil, err
	}
	if n, err := fs.DamageBitmaps(name, d, fsckFlips); err != nil || n == 0 {
		return nil, fmt.Errorf("fsck bench %s: damage: %d flips, %v", name, n, err)
	}
	return d.Image(), nil
}

// fsckTimedCheck cold-mounts the image and times one check.
func fsckTimedCheck(name string, img *disk.Image, workers int) (FsckRun, []fsck.Problem, error) {
	run := FsckRun{Workers: workers}
	vol, err := fs.MountVolume(fs.MountOpts{
		FS: name, Blocks: benchDiskBlocks, Base: img, Label: "fsck-bench",
	})
	if err != nil {
		return run, nil, fmt.Errorf("fsck bench: %w", err)
	}
	clk, fsys := vol.Clock, vol.FS
	defer func() {
		//iron:policy harness §6.2 the timed check is over by unmount time; the benchmark's measurement window has closed
		_ = fsys.Unmount()
	}()
	rep, ok := fs.AsRepairer(fsys)
	if !ok {
		return run, nil, fmt.Errorf("fsck bench: %s has no Repairer", name)
	}
	start := clk.Now()
	probs, stats, err := rep.CheckParallel(workers)
	if err != nil {
		return run, nil, fmt.Errorf("fsck bench %s: check: %w", name, err)
	}
	run.DiskTime = clk.Now() - start
	for _, ph := range stats.Phases {
		run.CPUTime += disk.Duration(ph.Max()) * fsckCPUPerUnit
	}
	run.Elapsed = run.DiskTime + run.CPUTime
	run.Problems = len(probs)
	return run, probs, nil
}

// RunFsckBench builds one damaged image of the named file system and
// checks it serially and with `workers` workers. The two problem lists
// must agree — a divergence is an error, not a data point.
func RunFsckBench(name string, workers int) (FsckRow, error) {
	row := FsckRow{FS: name, Flips: fsckFlips}
	img, err := fsckImage(name)
	if err != nil {
		return row, err
	}
	var serialProbs, parProbs []fsck.Problem
	if row.Serial, serialProbs, err = fsckTimedCheck(name, img, 1); err != nil {
		return row, err
	}
	if row.Par, parProbs, err = fsckTimedCheck(name, img, workers); err != nil {
		return row, err
	}
	if len(serialProbs) != len(parProbs) {
		return row, fmt.Errorf("fsck bench %s: serial found %d problems, parallel %d",
			name, len(serialProbs), len(parProbs))
	}
	for i := range serialProbs {
		if serialProbs[i] != parProbs[i] {
			return row, fmt.Errorf("fsck bench %s: problem %d diverged: %q vs %q",
				name, i, serialProbs[i], parProbs[i])
		}
	}
	return row, nil
}
