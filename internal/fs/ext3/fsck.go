package ext3

import (
	"fmt"
	"slices"

	"ironfs/internal/fsck"
	"ironfs/internal/iron"
	"ironfs/internal/journal"
	"ironfs/internal/vfs"
)

// This file implements the taxonomy's cross-block sanity checking and
// automatic repair (§3.1's "checking across blocks ... similar to fsck"
// and §3.3's RRepair): a full-volume consistency check that compares the
// allocation bitmaps, link counts, and free counters against the reachable
// tree, and a repair pass that fixes what it finds. The paper argues even
// journaling file systems want this — "a buggy journaling file system
// could unknowingly corrupt its on-disk structures; running fsck in the
// background could detect and recover from such problems."
//
// The check is staged pFSCK-style: one serial census (the directory walk
// is inherently sequential) feeding per-block-group verify tasks that run
// over fsck.Map's statically scheduled worker pool. Tasks publish into
// per-task buffers merged in group order, so the problem list is identical
// for every worker count; workers=1 runs inline on the calling goroutine,
// byte-identical to the historical serial pass.

// The problem kinds used here: "block-bitmap", "inode-bitmap", "link-count",
// "free-blocks", "free-inodes", "orphan-inode", "double-ref", "bad-pointer",
// "bad-size". The free counts are the group descriptors' sums, journaled
// with the bitmaps they count, so a crash on a drive that honours barriers
// leaves them agreeing. The oracle still leaves the two kinds out: on a
// drive that reorders around a missing barrier, dropping the exemption
// regrades crash states that the file system already detects (ROADMAP
// item 2(c)).
var lazyKinds = []string{"free-blocks", "free-inodes"}

// MountedLocked implements fsck.Target.
func (fs *FS) MountedLocked() bool { return fs.mounted }

// fsckState is the reachability census both passes share.
type fsckState struct {
	usedBlocks map[int64]bool    // every block a reachable structure uses
	doubleRef  []int64           // blocks referenced more than once
	badPtrs    []string          // pointers outside the volume
	badSizes   []string          // inode sizes larger than the volume
	linkCounts map[uint32]uint16 // directory-entry references per inode
	reachable  map[uint32]bool
	walkedDir  map[uint32]bool // directories already expanded (cycle guard)
}

// census walks the directory tree from the root, recording reachability,
// link counts, and block usage.
func (fs *FS) census() (*fsckState, error) {
	st := &fsckState{
		usedBlocks: map[int64]bool{},
		linkCounts: map[uint32]uint16{},
		reachable:  map[uint32]bool{},
		walkedDir:  map[uint32]bool{},
	}
	claim := func(blk int64, what string) {
		if g := fs.lay.groupOf(blk); g < 0 {
			st.badPtrs = append(st.badPtrs, fmt.Sprintf("%s -> block %d", what, blk))
			return
		}
		if st.usedBlocks[blk] {
			st.doubleRef = append(st.doubleRef, blk)
			return
		}
		st.usedBlocks[blk] = true
	}

	var walkDir func(ino uint32, depth int) error
	visitInode := func(ino uint32, what string) (*inode, error) {
		in, err := fs.LoadLocked(ino)
		if err != nil {
			return nil, err
		}
		if !in.Allocated() {
			return nil, nil
		}
		if st.reachable[ino] {
			return in, nil // blocks already claimed via another link
		}
		st.reachable[ino] = true
		if in.Parity != 0 {
			claim(int64(in.Parity), what+" parity")
		}
		// Claim data and indirect blocks. A post-crash inode may carry a
		// garbage Size; clamp the walk to the volume capacity (no file
		// can hold more blocks than the device) so the census terminates,
		// and report the insane size.
		nblocks := (int64(in.Size) + BlockSize - 1) / BlockSize
		if max := fs.dev.NumBlocks(); nblocks > max {
			st.badSizes = append(st.badSizes,
				fmt.Sprintf("%s size %d exceeds volume (%d blocks)", what, in.Size, max))
			nblocks = max
		}
		for l := int64(0); l < nblocks; l++ {
			phys, err := fs.bmap(in, l, false)
			if err != nil {
				return nil, err
			}
			if phys != 0 {
				claim(phys, fmt.Sprintf("%s block %d", what, l))
			}
		}
		claimTree := func(root uint64, depth int) {
			if root == 0 {
				return
			}
			var rec func(blk int64, d int)
			rec = func(blk int64, d int) {
				claim(blk, what+" indirect")
				if d == 0 {
					return
				}
				buf, err := fs.readMeta(blk, BTIndirect)
				if err != nil {
					return
				}
				for i := int64(0); i < PtrsPerBlock; i++ {
					if p := getPtr(buf, i); p != 0 && d > 1 {
						rec(p, d-1)
					}
				}
			}
			rec(int64(root), depth)
		}
		claimTree(in.Ind, 1)
		claimTree(in.DInd, 2)
		claimTree(in.TInd, 3)
		return in, nil
	}

	walkDir = func(ino uint32, depth int) error {
		if depth > 64 {
			return vfs.ErrCorrupt
		}
		if st.walkedDir[ino] {
			return nil // directory cycle (corrupt tree): entries counted, don't re-expand
		}
		st.walkedDir[ino] = true
		in, err := visitInode(ino, fmt.Sprintf("inode %d", ino))
		if err != nil || in == nil {
			return err
		}
		if !in.IsDir() {
			return nil
		}
		ents, err := fs.dirList(in)
		if err != nil {
			return err
		}
		for _, e := range ents {
			st.linkCounts[e.Ino]++
			already := st.reachable[e.Ino]
			if e.Type == vfs.TypeDirectory {
				if err := walkDir(e.Ino, depth+1); err != nil {
					return err
				}
			} else if !already {
				if _, err := visitInode(e.Ino, fmt.Sprintf("inode %d", e.Ino)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	st.linkCounts[RootIno] = 1
	if err := walkDir(RootIno, 0); err != nil {
		return nil, err
	}
	return st, nil
}

// groupCheck is one block group's verification result: problems in
// in-group scan order and the group's contribution to the free counter.
type groupCheck struct {
	probs []fsck.Problem
	free  uint64
}

// checkBlockGroup verifies one group's data bitmap against the census.
// Read-only: safe to run concurrently with other groups while the caller
// holds fs.mu (the cache, recorder, and device are internally
// synchronized, and the census map is never written here).
func (fs *FS) checkBlockGroup(g uint32, st *fsckState) (r groupCheck, units int64, err error) {
	bm, err := fs.readMeta(int64(fs.gds[g].DataBitmap), BTBitmap)
	if err != nil {
		return r, 0, err
	}
	start := fs.lay.groupStart(g)
	first := groupMetaBlks + int64(fs.lay.sb.ITableBlocks)
	for b := first; b < int64(fs.lay.sb.BlocksPerGroup); b++ {
		abs := start + b
		marked := testBit(bm, b)
		used := st.usedBlocks[abs]
		switch {
		case marked && !used:
			r.probs = append(r.probs, fsck.Problem{Kind: "block-bitmap",
				Detail: fmt.Sprintf("block %d marked allocated but unreachable", abs)})
		case !marked && used:
			r.probs = append(r.probs, fsck.Problem{Kind: "block-bitmap",
				Detail: fmt.Sprintf("block %d in use but marked free", abs)})
		}
		if !marked {
			r.free++
		}
		units++
	}
	return r, units, nil
}

// checkInodeGroup verifies one group's slice of the inode table: bitmap
// bits, orphans, and link counts, in inode order.
func (fs *FS) checkInodeGroup(g uint32, st *fsckState) (r groupCheck, units int64, err error) {
	bm, err := fs.readMeta(int64(fs.gds[g].INodeBMap), BTIBitmap)
	if err != nil {
		return r, 0, err
	}
	perGroup := fs.lay.sb.InodesPerGroup
	for within := uint32(0); within < perGroup; within++ {
		ino := g*perGroup + within + 1
		in, err := fs.LoadLocked(ino)
		if err != nil {
			return r, units, err
		}
		marked := testBit(bm, int64(within))
		switch {
		case in.Allocated() && !marked:
			r.probs = append(r.probs, fsck.Problem{Kind: "inode-bitmap",
				Detail: fmt.Sprintf("inode %d in use but marked free", ino)})
		case !in.Allocated() && marked:
			r.probs = append(r.probs, fsck.Problem{Kind: "inode-bitmap",
				Detail: fmt.Sprintf("inode %d free but marked allocated", ino)})
		}
		if !marked {
			r.free++
		}
		if in.Allocated() {
			if !st.reachable[ino] {
				r.probs = append(r.probs, fsck.Problem{Kind: "orphan-inode",
					Detail: fmt.Sprintf("inode %d allocated but unreachable", ino)})
			} else if in.Links != st.linkCounts[ino] {
				r.probs = append(r.probs, fsck.Problem{Kind: "link-count",
					Detail: fmt.Sprintf("inode %d has links=%d, directory tree says %d",
						ino, in.Links, st.linkCounts[ino])})
			}
		}
		units++
	}
	return r, units, nil
}

// ScanLocked implements fsck.Target. It reports every cross-block
// inconsistency: bitmap bits that disagree with reachability, wrong link
// counts, stale free counters, unreachable (orphan) inodes, doubly
// referenced blocks, and wild pointers.
func (fs *FS) ScanLocked(s *fsck.Scan) error {
	fs.tr.Phase("fsck:census", fmt.Sprintf("workers=%d", s.Workers))
	st, err := fs.census()
	if err != nil {
		return err
	}
	s.Stats.Add("census", 1, []int64{int64(len(st.usedBlocks) + len(st.reachable))})
	for _, b := range st.doubleRef {
		s.Problemf("double-ref", "block %d referenced more than once", b)
	}
	for _, p := range st.badPtrs {
		s.Problemf("bad-pointer", "%s", p)
	}
	for _, x := range st.badSizes {
		s.Problemf("bad-size", "%s", x)
	}

	groups := int(fs.lay.sb.GroupCount)
	freeBlocks, freeInodes := fs.freeCounts()
	var free uint64
	merge := func(r groupCheck) {
		s.Problems = append(s.Problems, r.probs...)
		free += r.free
	}
	// Block bitmaps vs reachability, one task per group.
	err = fsck.Stage(s, "verify:blocks", "groups", groups, func(i int) (groupCheck, int64, error) {
		return fs.checkBlockGroup(uint32(i), st)
	}, merge)
	if err != nil {
		return err
	}
	if free != freeBlocks {
		s.Problemf("free-blocks", "group descriptors say %d free, bitmaps say %d", freeBlocks, free)
	}
	// Inode bitmaps, link counts, orphans, one task per group.
	free = 0
	err = fsck.Stage(s, "verify:inodes", "groups", groups, func(i int) (groupCheck, int64, error) {
		return fs.checkInodeGroup(uint32(i), st)
	}, merge)
	if err != nil {
		return err
	}
	if free != freeInodes {
		s.Problemf("free-inodes", "group descriptors say %d free, bitmaps say %d", freeInodes, free)
	}
	return nil
}

// ReconcileLocked implements fsck.Target: bitmap bits are reconciled with
// reachability, link counts corrected, the group descriptors' free counts
// recomputed, and orphan inodes freed, all staged in the running
// transaction — one journal transaction, so the image on disk goes from
// what the scan found to fully reconciled or stays put — then committed
// and checkpointed. Every fix is recorded as RRepair.
//
//iron:commitpoint the repair transaction; its error means the reconciliation did not reach disk
func (fs *FS) ReconcileLocked() error {
	st, err := fs.census()
	if err != nil {
		return err
	}

	// Reconcile block bitmaps and recompute free-block counts.
	fs.rec.Detect(iron.DSanity, BTBitmap, "full-scan integrity check found inconsistencies")
	for g := uint32(0); g < fs.lay.sb.GroupCount; g++ {
		bm, err := fs.txMeta(int64(fs.gds[g].DataBitmap), BTBitmap)
		if err != nil {
			return err
		}
		start := fs.lay.groupStart(g)
		first := groupMetaBlks + int64(fs.lay.sb.ITableBlocks)
		var groupFree uint32
		for b := int64(0); b < int64(fs.lay.sb.BlocksPerGroup); b++ {
			if b < first {
				setBit(bm, b)
				continue
			}
			if st.usedBlocks[start+b] {
				setBit(bm, b)
			} else {
				clearBit(bm, b)
				groupFree++
			}
		}
		fs.gds[g].FreeBlocks = groupFree
		if err := fs.writeGroupDesc(g); err != nil {
			return err
		}
	}
	fs.rec.Recover(iron.RRepair, BTBitmap, "block bitmaps rebuilt from reachability")

	// Inodes: orphans freed, link counts corrected, inode bitmaps rebuilt.
	total := fs.lay.sb.InodesPerGroup * fs.lay.sb.GroupCount
	perGroupFree := make([]uint32, fs.lay.sb.GroupCount)
	for ino := uint32(1); ino <= total; ino++ {
		in, err := fs.LoadLocked(ino)
		if err != nil {
			return err
		}
		g := fs.groupOfInode(ino)
		bm, err := fs.txMeta(int64(fs.gds[g].INodeBMap), BTIBitmap)
		if err != nil {
			return err
		}
		within := int64((ino - 1) % fs.lay.sb.InodesPerGroup)
		switch {
		case in.Allocated() && !st.reachable[ino]:
			if err := fs.clearInode(ino); err != nil {
				return err
			}
			clearBit(bm, within)
			perGroupFree[g]++
			fs.rec.Recover(iron.RRepair, BTInode, fmt.Sprintf("orphan inode %d freed", ino))
		case in.Allocated():
			setBit(bm, within)
			if want := st.linkCounts[ino]; in.Links != want {
				in.Links = want
				if err := fs.StoreLocked(ino, in); err != nil {
					return err
				}
				fs.rec.Recover(iron.RRepair, BTInode, fmt.Sprintf("inode %d link count corrected", ino))
			}
		default:
			clearBit(bm, within)
			perGroupFree[g]++
		}
	}
	for g := range perGroupFree {
		fs.gds[g].FreeInodes = perGroupFree[g]
		if err := fs.writeGroupDesc(uint32(g)); err != nil {
			return err
		}
	}
	fs.rec.Recover(iron.RRepair, BTIBitmap, "inode bitmaps rebuilt")

	if err := fs.commitLocked(); err != nil {
		return err
	}
	if err := fs.checkpointLocked(); err != nil {
		return err
	}
	return fs.writeSuperLocked(0)
}

// AbortLocked implements fsck.Target: the running transaction goes and the
// journal aborts, degrading to read-only. What earlier transactions
// committed but have not checkpointed exists only in the cache the driver
// just emptied, so their frozen images go back in; a remount replays them
// from the journal as usual.
func (fs *FS) AbortLocked() {
	for _, e := range fs.pending.entries {
		if e.data != nil {
			fs.cache.Put(e.home, slices.Clone(e.data), true)
		}
	}
	fs.tx = journal.NewTxn[uint32](fs.cache)
	fs.revokes = nil
	fs.abortJournal(BTBitmap, "consistency repair failed mid-pass")
}
