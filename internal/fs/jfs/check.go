package jfs

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
// dev (replaying the record-level log if the volume is dirty) and verify
// the inode table against the allocation maps and the directory tree.
// Damage JFS itself flagged (mount refusal, a sanity check firing during
// the scan) comes back as its own error; damage it accepted silently comes
// back wrapped in vfs.ErrInconsistent. The lazily kept counters
// (superblock, bmap descriptor, imap control) are not checked.
func Check(dev disk.Device) error {
	rec := iron.NewRecorder()
	fs := New(dev, rec)
	if err := fs.Mount(); err != nil {
		return fmt.Errorf("jfs oracle mount: %w", err)
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
		return fmt.Errorf("%w: jfs: %d problems, first: %s",
			vfs.ErrInconsistent, len(probs), probs[0])
	}
	return nil
}

// CheckConsistency scans the whole volume and reports every cross-block
// inconsistency: allocation-map bits that disagree with the inode table
// and block reachability, wild or doubly referenced pointers, dangling
// directory entries, orphan inodes, and wrong file link counts. It does
// not modify anything.
func (fs *FS) CheckConsistency() ([]Problem, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	probs, _, err := fs.checkLocked(1)
	return probs, err
}

// CheckParallel is CheckConsistency with the inode-table census and the
// allocation-map verify fanned out over `workers` goroutines. The problem
// list is identical to the serial scan's for any worker count; Stats
// reports per-phase, per-worker work for the fsck benchmark.
func (fs *FS) CheckParallel(workers int) ([]Problem, fsck.Stats, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.checkLocked(workers)
}

// jfsClaim is one block reference discovered by a census task, replayed
// serially in task order so the claim map (and therefore the wild-pointer
// and double-ref problems) come out in table order.
type jfsClaim struct {
	blk  int64
	what string
}

// jfsTabCheck is one inode-table block's census result.
type jfsTabCheck struct {
	inos   []uint32
	inodes []*inode
	claims []jfsClaim
	units  int64
	err    error
}

// censusTableBlock scans the InodesPB slots of one inode-table block,
// collecting allocated inodes and the blocks they map. Read-only, so
// table blocks scan concurrently.
func (fs *FS) censusTableBlock(t int64, total uint32) jfsTabCheck {
	var r jfsTabCheck
	for s := int64(0); s < InodesPB; s++ {
		ino := uint32(t*InodesPB + s + 1)
		if ino > total {
			break
		}
		r.units++
		in, err := fs.loadInode(ino)
		if err != nil {
			r.err = err // sanity check fired: detected, not silent
			return r
		}
		if !in.allocated() {
			continue
		}
		r.inos = append(r.inos, ino)
		r.inodes = append(r.inodes, in)
		nblocks := (int64(in.Size) + BlockSize - 1) / BlockSize
		for l := int64(0); l < nblocks; l++ {
			blk, err := fs.blockPtr(in, l, false, false)
			if err != nil {
				r.err = err
				return r
			}
			if blk != 0 {
				r.claims = append(r.claims, jfsClaim{blk, fmt.Sprintf("inode %d block %d", ino, l)})
			}
		}
		for g, ib := range in.Intern {
			if ib != 0 {
				r.claims = append(r.claims, jfsClaim{int64(ib), fmt.Sprintf("inode %d internal %d", ino, g)})
			}
		}
	}
	return r
}

// jfsEntry is one directory entry, in directory-scan order, retained so
// repair can remove dangling names deterministically.
type jfsEntry struct {
	dir   uint32
	name  string
	child uint32
}

// jfsCensus is everything the table and directory scans learn.
type jfsCensus struct {
	used    map[int64]string
	alloc   map[uint32]*inode
	order   []uint32 // allocated inos in table order
	refs    map[uint32]int
	entries []jfsEntry
	probs   []Problem
}

// census runs the inode-table scan (fanned out over workers) and the
// serial directory scan, merging results in table order.
func (fs *FS) census(workers int, stats *fsck.Stats) (*jfsCensus, error) {
	cs := &jfsCensus{
		used:  map[int64]string{},
		alloc: map[uint32]*inode{},
		refs:  map[uint32]int{},
	}
	badf := func(kind, format string, args ...interface{}) {
		cs.probs = append(cs.probs, Problem{Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}
	claim := func(blk int64, what string) {
		if blk <= 0 || blk >= int64(fs.sb.BlockCount) {
			badf("wild-pointer", "%s -> block %d", what, blk)
			return
		}
		if prev, ok := cs.used[blk]; ok {
			badf("double-ref", "block %d claimed by %s and %s", blk, prev, what)
			return
		}
		cs.used[blk] = what
	}

	total := uint32(int64(fs.sb.ITabLen) * InodesPB)
	fs.tr.Phase("fsck:census", fmt.Sprintf("itable=%d workers=%d", fs.sb.ITabLen, workers))
	res := fsck.Map(workers, int(fs.sb.ITabLen), func(i int) jfsTabCheck {
		return fs.censusTableBlock(int64(i), total)
	})
	units := make([]int64, len(res))
	for i, r := range res {
		units[i] = r.units
		if r.err != nil {
			stats.Add("census", workers, units)
			return nil, r.err
		}
		for j, ino := range r.inos {
			cs.alloc[ino] = r.inodes[j]
			cs.order = append(cs.order, ino)
		}
		for _, c := range r.claims {
			claim(c.blk, c.what)
		}
	}
	stats.Add("census", workers, units)

	// Directory entries vs the inode table, in table order.
	fs.tr.Phase("fsck:verify-dirs", fmt.Sprintf("inodes=%d", len(cs.order)))
	var dunits int64
	for _, ino := range cs.order {
		in := cs.alloc[ino]
		if !in.isDir() {
			continue
		}
		err := fs.dirBlocks(in, func(_ int64, _ []byte, it dirIter) (bool, error) {
			for e, ok := it.next(); ok; e, ok = it.next() {
				dunits++
				cs.refs[e.Ino]++
				cs.entries = append(cs.entries, jfsEntry{dir: ino, name: string(e.Name), child: e.Ino})
				if t, ok := cs.alloc[e.Ino]; !ok || t == nil {
					badf("dangling-entry", "dir %d entry %q -> unallocated inode %d",
						ino, e.Name, e.Ino)
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

// jfsBmCheck is the result of verifying one allocation-map block.
type jfsBmCheck struct {
	probs []Problem
	units int64
	err   error
}

// checkIMapChunk verifies one ChunkBits-wide span of inode-map bits
// against the table census. Chunks are finer than map blocks (intra-block
// sharding), so the verify parallelizes even on volumes whose whole inode
// map fits one block.
func (fs *FS) checkIMapChunk(c int, total uint32, alloc map[uint32]*inode) jfsBmCheck {
	var r jfsBmCheck
	lo, hi := fsck.ChunkRange(c, int64(total))
	buf, err := fs.readMeta(int64(fs.sb.IMapStart)+lo/bitsPerBlock, BTIMap)
	if err != nil {
		r.err = err
		return r
	}
	for idx := lo; idx < hi; idx++ {
		bit := idx % bitsPerBlock
		ino := uint32(idx + 1)
		r.units++
		marked := buf[bit/8]&(1<<uint(bit%8)) != 0
		_, isAlloc := alloc[ino]
		switch {
		case marked && !isAlloc:
			r.probs = append(r.probs, Problem{Kind: "imap",
				Detail: fmt.Sprintf("inode %d marked allocated but table slot is free", ino)})
		case !marked && isAlloc:
			r.probs = append(r.probs, Problem{Kind: "imap",
				Detail: fmt.Sprintf("inode %d in use but marked free", ino)})
		}
	}
	return r
}

// fixedBlock reports whether blk lies in the always-allocated aggregate
// regions: superblocks, descriptor pages, maps, inode table, and the log.
func (fs *FS) fixedBlock(blk int64) bool {
	return blk < int64(fs.sb.ITabStart+fs.sb.ITabLen) || blk >= int64(fs.sb.LogStart)
}

// checkBMapChunk verifies one ChunkBits-wide span of block-map bits
// against reachability.
func (fs *FS) checkBMapChunk(c int, used map[int64]string) jfsBmCheck {
	var r jfsBmCheck
	lo, hi := fsck.ChunkRange(c, int64(fs.sb.BlockCount))
	buf, err := fs.readMeta(int64(fs.sb.BMapStart)+lo/bitsPerBlock, BTBMap)
	if err != nil {
		r.err = err
		return r
	}
	for blk := lo; blk < hi; blk++ {
		bit := blk % bitsPerBlock
		r.units++
		marked := buf[bit/8]&(1<<uint(bit%8)) != 0
		_, reachable := used[blk]
		inUse := reachable || fs.fixedBlock(blk)
		switch {
		case marked && !inUse:
			r.probs = append(r.probs, Problem{Kind: "bmap",
				Detail: fmt.Sprintf("block %d marked allocated but unreachable", blk)})
		case !marked && inUse:
			r.probs = append(r.probs, Problem{Kind: "bmap",
				Detail: fmt.Sprintf("block %d in use but marked free", blk)})
		}
	}
	return r
}

// checkLocked is the full scan: table census and directory scan, then the
// table-order cross-check, then both allocation maps verified one task
// per map block.
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
	for _, ino := range cs.order {
		if ino == RootIno {
			continue
		}
		in := cs.alloc[ino]
		n := cs.refs[ino]
		if n == 0 {
			add("orphan-inode", "inode %d allocated but unreachable", ino)
			continue
		}
		if !in.isDir() && int(in.Links) != n {
			add("link-count", "inode %d says %d, directory tree says %d", ino, in.Links, n)
		}
	}

	// Inode map bits vs the table, one task per bit chunk.
	total := uint32(int64(fs.sb.ITabLen) * InodesPB)
	nim := fsck.NumChunks(int64(total))
	fs.tr.Phase("fsck:verify-imap", fmt.Sprintf("chunks=%d workers=%d", nim, workers))
	imRes := fsck.Map(workers, nim, func(i int) jfsBmCheck {
		return fs.checkIMapChunk(i, total, cs.alloc)
	})
	units := make([]int64, nim)
	for i, r := range imRes {
		units[i] = r.units
		probs = append(probs, r.probs...)
		if r.err != nil {
			stats.Add("verify:imap", workers, units)
			return probs, stats, r.err
		}
	}
	stats.Add("verify:imap", workers, units)

	// Block map bits vs reachability, one task per bit chunk.
	nbm := fsck.NumChunks(int64(fs.sb.BlockCount))
	fs.tr.Phase("fsck:verify-bmap", fmt.Sprintf("chunks=%d workers=%d", nbm, workers))
	bmRes := fsck.Map(workers, nbm, func(i int) jfsBmCheck {
		return fs.checkBMapChunk(i, cs.used)
	})
	units = make([]int64, nbm)
	for i, r := range bmRes {
		units[i] = r.units
		probs = append(probs, r.probs...)
		if r.err != nil {
			stats.Add("verify:bmap", workers, units)
			return probs, stats, r.err
		}
	}
	stats.Add("verify:bmap", workers, units)
	return probs, stats, nil
}
