package fsck

import (
	"bytes"
	"fmt"
	"strings"

	"ironfs/internal/trace"
)

// Scan is the state of one consistency scan: the problems found so far in
// report order, the per-stage work accounting, and the claim map every
// block pointer is entered into.
type Scan struct {
	// Workers is the worker count the parallel stages run with.
	Workers int
	// Blocks is the volume size; a claim outside (0, Blocks) is wild. The
	// file system sets it before its first Claim.
	Blocks   int64
	Problems []Problem
	Stats    Stats

	tr   *trace.Tracer
	used map[int64]string // block -> first claimant
	// claimed holds a bit per block of used: Claimed is asked once per
	// bit of every block map, through two indirect calls, and answers
	// from here without hashing.
	claimed []uint64
}

func newScan(workers int, tr *trace.Tracer) *Scan {
	return &Scan{Workers: workers, tr: tr, used: map[int64]string{}}
}

// Problemf appends one problem.
func (s *Scan) Problemf(kind, format string, args ...any) {
	s.Problems = append(s.Problems, Problem{Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// Claim records that `what` points at blk. A pointer outside the volume is
// a wild-pointer problem; a block somebody already claimed is a double-ref
// (which is also how a cycle shows: its back edge claims a block twice).
func (s *Scan) Claim(blk int64, what string) {
	if blk <= 0 || blk >= s.Blocks {
		s.Problemf("wild-pointer", "%s -> block %d", what, blk)
		return
	}
	if prev, ok := s.used[blk]; ok {
		s.Problemf("double-ref", "block %d claimed by %s and %s", blk, prev, what)
		return
	}
	s.used[blk] = what
	if s.claimed == nil {
		s.claimed = make([]uint64, (s.Blocks+63)/64)
	}
	s.claimed[blk/64] |= 1 << uint(blk%64)
}

// Claimed reports whether some pointer claimed blk.
func (s *Scan) Claimed(blk int64) bool {
	return blk/64 < int64(len(s.claimed)) && s.claimed[blk/64]&(1<<uint(blk%64)) != 0
}

// Event is one ordered observation of a parallel enumeration task: a
// problem (Kind set, What its detail) or a block claim. Tasks record
// events and Enter enters them serially in task order, so the problem
// stream is the serial walk's for any worker count.
type Event struct {
	Kind string
	Blk  int64
	What string
}

// Enter enters a task's events in order.
func (s *Scan) Enter(events []Event) {
	for _, e := range events {
		if e.Kind != "" {
			s.Problems = append(s.Problems, Problem{Kind: e.Kind, Detail: e.What})
			continue
		}
		s.Claim(e.Blk, e.What)
	}
}

// Stage runs one parallel stage of a scan: n tasks over the scan's workers
// (Map's static assignment), merged on the calling goroutine in task
// order. A task returns its result, the units of work it did, and the
// error that stopped it; the merge stops after the first failed task, so
// the verdict holds what every task before it found. The stage is
// recorded in s.Stats — noun names what the n tasks are — whether or not
// it failed, under `name`, and traced as "fsck:" + name.
func Stage[T any](s *Scan, name, noun string, n int, task func(i int) (T, int64, error), merge func(T)) error {
	s.tr.Phase("fsck:"+strings.ReplaceAll(name, ":", "-"), fmt.Sprintf("%s=%d workers=%d", noun, n, s.Workers))
	type result struct {
		v     T
		units int64
		err   error
	}
	res := Map(s.Workers, n, func(i int) (r result) {
		r.v, r.units, r.err = task(i)
		return r
	})
	units := make([]int64, n)
	var err error
	for i, r := range res {
		units[i] = r.units
		merge(r.v)
		if err = r.err; err != nil {
			break
		}
	}
	s.Stats.Add(name, s.Workers, units)
	return err
}

// Bitmap describes one allocation map: where its blocks are read from,
// what a bit stands for, and which bits ought to be set. The same
// description drives the scan's verify and the repair's rebuild.
type Bitmap struct {
	// Name labels the verify stage ("verify:" + Name) and Kind its
	// problems.
	Name, Kind string
	// Bits is the number of meaningful bits, BlockBits the bits one map
	// block holds; bit i stands for number First+i.
	Bits, BlockBits, First int64
	// Stale and Lost render, with the number as their one %d, a set bit
	// for something not in use and a clear bit for something in use.
	Stale, Lost string
	// Read returns map block i.
	Read func(i int64) ([]byte, error)
	// InUse reports whether number n ought to be marked. Verify calls it
	// from several goroutines.
	InUse func(n int64) bool
}

// Verify checks the map against InUse, one task per ChunkBits-wide span:
// finer than map blocks, so the verify parallelizes even when the whole
// map is one block.
func (b *Bitmap) Verify(s *Scan) error {
	return Stage(s, "verify:"+b.Name, "chunks", NumChunks(b.Bits), func(c int) ([]Problem, int64, error) {
		lo, hi := ChunkRange(c, b.Bits)
		buf, err := b.Read(lo / b.BlockBits)
		if err != nil {
			return nil, 0, err
		}
		return b.Check(buf, lo, hi), hi - lo, nil
	}, func(probs []Problem) { s.Problems = append(s.Problems, probs...) })
}

// Check compares bits [lo, hi) against InUse; buf is the map block that
// holds them.
func (b *Bitmap) Check(buf []byte, lo, hi int64) []Problem {
	var probs []Problem
	start := lo - lo%b.BlockBits // the first bit buf holds
	for i := lo; i < hi; i++ {
		bit := i - start
		marked := buf[bit/8]&(1<<uint(bit%8)) != 0
		switch inUse := b.InUse(b.First + i); {
		case marked && !inUse:
			probs = append(probs, Problem{Kind: b.Kind, Detail: fmt.Sprintf(b.Stale, b.First+i)})
		case !marked && inUse:
			probs = append(probs, Problem{Kind: b.Kind, Detail: fmt.Sprintf(b.Lost, b.First+i)})
		}
	}
	return probs
}

// Rebuild computes the correct image of each map block in turn — bits past
// Bits stay zero, matching mkfs — and hands store the blocks whose current
// image differs. It returns how many of the meaningful bits are clear.
func (b *Bitmap) Rebuild(store func(i int64, cur, want []byte) error) (free uint64, err error) {
	for i := int64(0); i*b.BlockBits < b.Bits; i++ {
		cur, err := b.Read(i)
		if err != nil {
			return free, err
		}
		want := make([]byte, b.BlockBits/8)
		for bit := int64(0); bit < b.BlockBits && i*b.BlockBits+bit < b.Bits; bit++ {
			if b.InUse(b.First + i*b.BlockBits + bit) {
				want[bit/8] |= 1 << uint(bit%8)
			} else {
				free++
			}
		}
		if !bytes.Equal(cur, want) {
			if err := store(i, cur, want); err != nil {
				return free, err
			}
		}
	}
	return free, nil
}
