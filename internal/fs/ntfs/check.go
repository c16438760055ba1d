package ntfs

import (
	"fmt"

	"ironfs/internal/disk"
	"ironfs/internal/fsck"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// Problem aliases the unified fsck vocabulary so the registry and the
// repair pass speak one type.
type Problem = fsck.Problem

// Check is the crash-exploration consistency oracle: mount the image on
// dev (replaying the logfile if the volume is dirty) and verify the MFT
// against both bitmaps and the directory tree. Damage NTFS itself flagged
// (mount refusal, a record magic or entry-count check firing) comes back
// as its own error; damage it accepted silently comes back wrapped in
// vfs.ErrInconsistent.
func Check(dev disk.Device) error {
	rec := iron.NewRecorder()
	fs := New(dev, rec)
	if err := fs.Mount(); err != nil {
		return fmt.Errorf("ntfs oracle mount: %w", err)
	}
	return fs.checkConsistency()
}

// checkConsistency is the oracle entry point: the serial scan, rendered
// as a single error for the crash explorer.
func (fs *FS) checkConsistency() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	probs, _, err := fs.checkLocked(1)
	if err != nil {
		return err
	}
	if len(probs) > 0 {
		return fmt.Errorf("%w: ntfs: %d problems, first: %s",
			vfs.ErrInconsistent, len(probs), probs[0])
	}
	return nil
}

// CheckConsistency scans the whole volume and reports every cross-block
// inconsistency: bitmap bits that disagree with MFT record flags and
// block reachability, wild or doubly referenced pointers, dangling
// directory entries, orphan records, and wrong file link counts. It does
// not modify anything.
func (fs *FS) CheckConsistency() ([]Problem, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	probs, _, err := fs.checkLocked(1)
	return probs, err
}

// CheckParallel is CheckConsistency with the MFT census and the volume
// bitmap verify fanned out over `workers` goroutines. The problem list is
// identical to the serial scan's for any worker count; Stats reports
// per-phase, per-worker work for the fsck benchmark.
func (fs *FS) CheckParallel(workers int) ([]Problem, fsck.Stats, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.checkLocked(workers)
}

// ntfsEvent is one ordered census observation: either a directly emitted
// problem or a block claim. Tasks record events; the merge replays them
// serially in task order, so the problem stream is identical to the
// serial walk's for any worker count.
type ntfsEvent struct {
	prob *Problem
	blk  int64
	what string
}

// ntfsMftCheck is one MFT block's census result.
type ntfsMftCheck struct {
	recs    []uint32
	records []*mftRecord
	events  []ntfsEvent
	units   int64
	err     error
}

// censusMFTBlock scans the RecsPB slots of one MFT block, collecting
// in-use records and the blocks they map. Read-only, so MFT blocks scan
// concurrently.
func (fs *FS) censusMFTBlock(t int64, total uint32) ntfsMftCheck {
	var out ntfsMftCheck
	for s := int64(0); s < RecsPB; s++ {
		rec := uint32(t*RecsPB + s)
		if rec >= total {
			break
		}
		out.units++
		r, err := fs.loadRecord(rec)
		if err != nil {
			out.err = err // record magic check fired: detected, not silent
			return out
		}
		if !r.inUse() {
			continue
		}
		out.recs = append(out.recs, rec)
		out.records = append(out.records, r)
		nblocks := (int64(r.Size) + BlockSize - 1) / BlockSize
		if nblocks > maxFileBlocks {
			out.events = append(out.events, ntfsEvent{prob: &Problem{Kind: "record-size",
				Detail: fmt.Sprintf("record %d size %d exceeds the maximum file size", rec, r.Size)}})
			nblocks = maxFileBlocks
		}
		for l := int64(0); l < nblocks; l++ {
			blk, err := fs.blockPtr(r, l, false)
			if err != nil {
				out.err = err
				return out
			}
			if blk != 0 {
				out.events = append(out.events, ntfsEvent{blk: blk, what: fmt.Sprintf("record %d block %d", rec, l)})
			}
		}
		for g, eb := range r.Ext {
			if eb != 0 {
				out.events = append(out.events, ntfsEvent{blk: int64(eb), what: fmt.Sprintf("record %d run-extension %d", rec, g)})
			}
		}
	}
	return out
}

// ntfsEntry is one directory entry, in directory-scan order, retained so
// repair can remove dangling names deterministically.
type ntfsEntry struct {
	dir   uint32
	name  string
	child uint32
}

// ntfsCensus is everything the MFT and directory scans learn.
type ntfsCensus struct {
	used    map[int64]string
	inUse   map[uint32]*mftRecord
	order   []uint32 // in-use records in MFT order
	refs    map[uint32]int
	entries []ntfsEntry
	probs   []Problem
}

// census runs the MFT scan (fanned out over workers) and the serial
// directory scan, merging results in MFT order.
func (fs *FS) census(workers int, stats *fsck.Stats) (*ntfsCensus, error) {
	cs := &ntfsCensus{
		used:  map[int64]string{},
		inUse: map[uint32]*mftRecord{},
		refs:  map[uint32]int{},
	}
	badf := func(kind, format string, args ...interface{}) {
		cs.probs = append(cs.probs, Problem{Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}
	claim := func(blk int64, what string) {
		if blk <= 0 || blk >= int64(fs.boot.BlockCount) {
			badf("wild-pointer", "%s -> block %d", what, blk)
			return
		}
		if prev, ok := cs.used[blk]; ok {
			badf("double-ref", "block %d claimed by %s and %s", blk, prev, what)
			return
		}
		cs.used[blk] = what
	}

	total := uint32(int64(fs.boot.MFTLen) * RecsPB)
	fs.tr.Phase("fsck:census", fmt.Sprintf("mft=%d workers=%d", fs.boot.MFTLen, workers))
	res := fsck.Map(workers, int(fs.boot.MFTLen), func(i int) ntfsMftCheck {
		return fs.censusMFTBlock(int64(i), total)
	})
	units := make([]int64, len(res))
	for i, r := range res {
		units[i] = r.units
		if r.err != nil {
			stats.Add("census", workers, units)
			return nil, r.err
		}
		for j, rec := range r.recs {
			cs.inUse[rec] = r.records[j]
			cs.order = append(cs.order, rec)
		}
		for _, ev := range r.events {
			if ev.prob != nil {
				cs.probs = append(cs.probs, *ev.prob)
				continue
			}
			claim(ev.blk, ev.what)
		}
	}
	stats.Add("census", workers, units)

	// Directory entries vs the MFT, in MFT order.
	fs.tr.Phase("fsck:verify-dirs", fmt.Sprintf("records=%d", len(cs.order)))
	var dunits int64
	for _, rec := range cs.order {
		r := cs.inUse[rec]
		if !r.isDir() {
			continue
		}
		err := fs.dirBlocks(r, func(_ int64, _ []byte, it dirIter) (bool, error) {
			for e, ok := it.next(); ok; e, ok = it.next() {
				dunits++
				cs.refs[e.Rec]++
				cs.entries = append(cs.entries, ntfsEntry{dir: rec, name: string(e.Name), child: e.Rec})
				if _, ok := cs.inUse[e.Rec]; !ok {
					badf("dangling-entry", "dir record %d entry %q -> free record %d",
						rec, e.Name, e.Rec)
				}
			}
			return false, nil
		})
		if err != nil {
			return nil, err
		}
	}
	stats.Add("verify:dirs", 1, []int64{dunits})
	return cs, nil
}

// fixedBlock reports whether blk lies in the always-allocated regions:
// everything before the data area, and the logfile.
func (fs *FS) fixedBlock(blk int64) bool {
	return blk < int64(fs.boot.VolBmpStart+fs.boot.VolBmpLen) || blk >= int64(fs.boot.LogStart)
}

// ntfsBmCheck is the result of verifying one volume-bitmap block.
type ntfsBmCheck struct {
	probs []Problem
	units int64
	err   error
}

// checkVolBmpChunk verifies one ChunkBits-wide span of volume-bitmap bits
// against reachability. Chunks are finer than bitmap blocks (intra-block
// sharding), so the verify parallelizes even on volumes whose whole
// bitmap fits one block.
func (fs *FS) checkVolBmpChunk(c int, used map[int64]string) ntfsBmCheck {
	var r ntfsBmCheck
	lo, hi := fsck.ChunkRange(c, int64(fs.boot.BlockCount))
	buf, err := fs.readBlockRetry(int64(fs.boot.VolBmpStart)+lo/bitsPerBlock, BTVolBmp)
	if err != nil {
		r.err = err
		return r
	}
	for blk := lo; blk < hi; blk++ {
		bit := blk % bitsPerBlock
		r.units++
		marked := buf[bit/8]&(1<<uint(bit%8)) != 0
		_, reachable := used[blk]
		alive := reachable || fs.fixedBlock(blk)
		switch {
		case marked && !alive:
			r.probs = append(r.probs, Problem{Kind: "vol-bitmap",
				Detail: fmt.Sprintf("block %d marked allocated but unreachable", blk)})
		case !marked && alive:
			r.probs = append(r.probs, Problem{Kind: "vol-bitmap",
				Detail: fmt.Sprintf("block %d in use but marked free", blk)})
		}
	}
	return r
}

// checkLocked is the full scan: MFT census and directory scan, the
// MFT-order cross-check, the (single-block) MFT bitmap, then the volume
// bitmap verified one task per bitmap block.
func (fs *FS) checkLocked(workers int) ([]Problem, fsck.Stats, error) {
	var stats fsck.Stats
	if !fs.mounted {
		return nil, stats, vfs.ErrNotMounted
	}
	cs, err := fs.census(workers, &stats)
	if err != nil {
		return nil, stats, err
	}
	probs := cs.probs
	add := func(kind, format string, args ...interface{}) {
		probs = append(probs, Problem{Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}
	for _, rec := range cs.order {
		if rec == 0 || rec == RootRec { // $MFT and the root have no parent entry
			continue
		}
		r := cs.inUse[rec]
		n := cs.refs[rec]
		if n == 0 {
			add("orphan-record", "record %d in use but unreachable", rec)
			continue
		}
		if !r.isDir() && int(r.Links) != n {
			add("link-count", "record %d says %d, directory tree says %d", rec, r.Links, n)
		}
	}

	// MFT bitmap vs record flags (a single block).
	total := uint32(int64(fs.boot.MFTLen) * RecsPB)
	fs.tr.Phase("fsck:verify-mftbmp", fmt.Sprintf("records=%d", total))
	mb, err := fs.readBlockRetry(int64(fs.boot.MFTBmp), BTMFTBmp)
	if err != nil {
		return probs, stats, err
	}
	for rec := uint32(0); rec < total; rec++ {
		marked := mb[rec/8]&(1<<uint(rec%8)) != 0
		_, alive := cs.inUse[rec]
		switch {
		case marked && !alive:
			add("mft-bitmap", "record %d marked in use but free", rec)
		case !marked && alive:
			add("mft-bitmap", "record %d in use but marked free", rec)
		}
	}
	stats.Add("verify:mftbmp", 1, []int64{int64(total)})

	// Volume bitmap vs reachability, one task per bit chunk.
	nbm := fsck.NumChunks(int64(fs.boot.BlockCount))
	fs.tr.Phase("fsck:verify-volbmp", fmt.Sprintf("chunks=%d workers=%d", nbm, workers))
	res := fsck.Map(workers, nbm, func(i int) ntfsBmCheck {
		return fs.checkVolBmpChunk(i, cs.used)
	})
	units := make([]int64, nbm)
	for i, r := range res {
		units[i] = r.units
		probs = append(probs, r.probs...)
		if r.err != nil {
			stats.Add("verify:volbmp", workers, units)
			return probs, stats, r.err
		}
	}
	stats.Add("verify:volbmp", workers, units)
	return probs, stats, nil
}
