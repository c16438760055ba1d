// Package fsck is the check-and-repair skeleton every file system runs on
// (the paper's §3.1 "checking across blocks ... similar to fsck" and §3.3
// RRepair). What differs between ext3, ReiserFS, JFS and NTFS is what a
// volume is made of and how a fix is staged — not how a scan's stages are
// merged, what makes a block pointer wild, how a bitmap is verified, or in
// what order a repair gates, scans, reconciles, gives up and re-scans. All
// of that is stated once, here: Driver is the sequence (a file system
// embeds it and implements Target), Scan the state of one scan, Stage the
// one parallel stage runner, Bitmap one allocation map's verify and
// rebuild, Refs and Reconcile the reference cross-check and repair order
// of the file systems whose objects are named by directory entries.
//
// Determinism is the load-bearing property. pFSCK-style parallelism is only
// trustworthy if the parallel check returns the *identical* problem list as
// the serial one, so Map assigns tasks to workers statically (worker w runs
// tasks i ≡ w mod W) and returns results indexed by task, never by
// completion order. Stage merges per-task results in task order; the
// goroutine schedule can then reorder disk accesses but never the verdict.
package fsck

import "sync"

// Problem is one cross-block inconsistency found by a consistency check.
type Problem struct {
	// Kind is a stable identifier such as "block-bitmap", "orphan-inode",
	// "link-count", "double-ref", "wild-pointer".
	Kind string
	// Detail locates the problem.
	Detail string
}

// String renders the problem as "kind: detail".
func (p Problem) String() string { return p.Kind + ": " + p.Detail }

// Report is the outcome of one repair pass. Repair is transactional per
// file system: either the whole reconciliation commits (everything Found is
// Fixed) or the staged updates are discarded and the volume degrades, in
// which case Found stays in Unrecovered — never half-repaired-and-healthy.
type Report struct {
	// Found is every problem the pre-repair check reported.
	Found []Problem
	// Fixed lists the problems the committed repair corrected.
	Fixed []Problem
	// Unrecovered lists problems the repair could not fix (the repair
	// transaction aborted, or the problem kind has no automatic fix).
	Unrecovered []Problem
}

// Subtract returns the problems in found that do not appear in remaining,
// compared by rendered string. Repair uses it to split Found into Fixed
// and Unrecovered after the post-repair re-scan.
func Subtract(found, remaining []Problem) []Problem {
	if len(remaining) == 0 {
		return found
	}
	seen := make(map[string]bool, len(remaining))
	for _, p := range remaining {
		seen[p.String()] = true
	}
	var out []Problem
	for _, p := range found {
		if !seen[p.String()] {
			out = append(out, p)
		}
	}
	return out
}

// Clean reports whether the pre-repair check found nothing.
func (r Report) Clean() bool { return len(r.Found) == 0 }

// AllFixed reports whether every found problem was fixed.
func (r Report) AllFixed() bool { return len(r.Unrecovered) == 0 }

// Phase is the work accounting of one pipeline stage: how many units
// (blocks or table slots examined) each worker processed. Because Map's
// assignment is static, these totals are deterministic for a given volume
// and worker count — the benchmark's virtual-CPU model depends on that.
type Phase struct {
	// Name identifies the stage ("census", "verify:blocks", ...).
	Name string
	// Workers is the worker count the stage ran with.
	Workers int
	// Units holds per-worker unit totals (len == Workers).
	Units []int64
}

// Total sums the phase's units across workers.
func (p Phase) Total() int64 {
	var t int64
	for _, u := range p.Units {
		t += u
	}
	return t
}

// Max returns the largest per-worker unit total — the stage's critical
// path under the virtual-CPU model.
func (p Phase) Max() int64 {
	var m int64
	for _, u := range p.Units {
		if u > m {
			m = u
		}
	}
	return m
}

// Stats collects the phases of one check pass in execution order.
type Stats struct {
	Phases []Phase
}

// Add records one phase, folding the per-task units into per-worker totals
// using Map's static assignment (task i belongs to worker i mod workers).
func (s *Stats) Add(name string, workers int, taskUnits []int64) {
	if workers < 1 {
		workers = 1
	}
	per := make([]int64, workers)
	for i, u := range taskUnits {
		per[i%workers] += u
	}
	s.Phases = append(s.Phases, Phase{Name: name, Workers: workers, Units: per})
}

// ChunkBits is the widest bitmap verify task. One on-disk bitmap block
// covers 8×BlockSize bits — far too coarse a task for volumes whose whole
// allocation map fits in a block or two — so Bitmap.Verify shards each
// map block into tasks of min(ChunkBits, BlockBits) bits (intra-block
// sharding). That width divides BlockBits when BlockBits is a power of two
// or no wider than ChunkBits, so a chunk never straddles two map blocks.
const ChunkBits = 4096

// Map runs n tasks over at most `workers` goroutines and returns the
// results indexed by task. Assignment is static round-robin: worker w runs
// tasks w, w+W, w+2W, ... With workers <= 1 every task runs inline on the
// calling goroutine, byte-identical to a plain loop — the serial mode the
// goldens pin.
func Map[T any](workers, n int, task func(i int) T) []T {
	out := make([]T, n)
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			out[i] = task(i)
		}
		return out
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				out[i] = task(i)
			}
		}(w)
	}
	wg.Wait()
	return out
}
