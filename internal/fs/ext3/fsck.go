package ext3

import (
	"fmt"
	"slices"

	"ironfs/internal/fsck"
	"ironfs/internal/iron"
	"ironfs/internal/journal"
	"ironfs/internal/trace"
)

// This file implements the taxonomy's cross-block sanity checking and
// automatic repair (§3.1's "checking across blocks ... similar to fsck"
// and §3.3's RRepair) as an fsck.Target and fsck.Fixer: the inode table
// against the block groups' bitmaps, the group descriptors' free counts
// and the directory tree. The paper argues even journaling file systems
// want this — "a buggy journaling file system could unknowingly corrupt
// its on-disk structures; running fsck in the background could detect and
// recover from such problems."
//
// The problem kinds used here: "block-bitmap", "inode-bitmap",
// "free-blocks", "free-inodes", "orphan-inode", "link-count",
// "dangling-entry", "double-ref", "wild-pointer", "bad-size". The free
// counts are the group descriptors' sums, journaled with the bitmaps they
// count.

// MountedLocked implements fsck.Target.
func (fs *FS) MountedLocked() bool { return fs.mounted }

// groupCensus is one block group's census: the allocated inodes of its
// inode-table slice and the blocks they point at, entered into the claim
// map serially in group order.
type groupCensus struct {
	objs   []fsck.Object[*inode]
	claims []fsck.Event
}

// pointer is the claim of blk by `what`: a block outside the group area
// (superblock, descriptor table, ixt3's tail regions, the journal) is a
// wild pointer.
func (fs *FS) pointer(blk int64, what string) fsck.Event {
	if fs.lay.groupOf(blk) < 0 {
		return fsck.Event{Kind: "wild-pointer", What: fmt.Sprintf("%s -> block %d", what, blk)}
	}
	return fsck.Event{Blk: blk, What: what}
}

// walkTrees visits the indirect blocks of in's three trees, reading each
// one; the data blocks their last level maps are bmap's to reach.
func (fs *FS) walkTrees(in *inode, visit func(blk int64)) {
	var walk func(blk int64, depth int)
	walk = func(blk int64, depth int) {
		if blk == 0 {
			return
		}
		visit(blk)
		buf, err := fs.readMeta(blk, BTIndirect)
		if err != nil || depth == 1 {
			return
		}
		for i := int64(0); i < PtrsPerBlock; i++ {
			walk(getPtr(buf, i), depth-1)
		}
	}
	walk(int64(in.Ind), 1)
	walk(int64(in.DInd), 2)
	walk(int64(in.TInd), 3)
}

// loadGroup reads, in disk order, everything censusGroup(g) and the
// bitmap verify will: the group's two bitmaps, its inode table, and the
// indirect trees of its inodes.
func (fs *FS) loadGroup(g uint32) error {
	if _, err := fs.readMeta(int64(fs.gds[g].DataBitmap), BTBitmap); err != nil {
		return err
	}
	if _, err := fs.readMeta(int64(fs.gds[g].INodeBMap), BTIBitmap); err != nil {
		return err
	}
	table := fs.lay.groupStart(g) + groupMetaBlks
	for b := int64(0); b < int64(fs.lay.sb.ITableBlocks); b++ {
		buf, err := fs.readMeta(table+b, BTInode)
		if err != nil {
			return err
		}
		for off := 0; off < BlockSize; off += InodeSize {
			var in inode
			if in.unmarshal(buf[off : off+InodeSize]); in.Allocated() {
				fs.walkTrees(&in, func(int64) {})
			}
		}
	}
	return nil
}

// censusGroup scans one group's slice of the inode table. Read-only, and
// every block it reads loadGroup brought in, so groups scan concurrently.
func (fs *FS) censusGroup(g uint32) (r groupCensus, units int64, err error) {
	per := fs.lay.sb.InodesPerGroup
	for ino := g*per + 1; ino <= (g+1)*per; ino++ {
		units++
		in, err := fs.readInode(ino)
		if err != nil {
			return r, units, err
		}
		if !in.Allocated() {
			continue
		}
		r.objs = append(r.objs, fsck.Object[*inode]{ID: uint64(ino), Links: int(in.Links),
			Dir: in.IsDir(), Root: ino == RootIno, Node: &in})
		what := fmt.Sprintf("inode %d", ino)
		if int64(in.Size) > MaxFileSize {
			// LoadLocked refuses this inode; the census reports it, and
			// its blocks below MaxFileSize are still claimed.
			r.claims = append(r.claims, fsck.Event{Kind: "bad-size", What: fmt.Sprintf("%s size %d past the %d-byte limit", what, in.Size, MaxFileSize)})
		}
		if in.Parity != 0 {
			r.claims = append(r.claims, fs.pointer(int64(in.Parity), what+" parity"))
		}
		// A sparse file may be larger than the volume.
		err = fs.forEachBlock(&in, func(l, phys int64) error {
			r.claims = append(r.claims, fs.pointer(phys, fmt.Sprintf("%s block %d", what, l)))
			return nil
		})
		if err != nil {
			return r, units, err
		}
		fs.walkTrees(&in, func(blk int64) { r.claims = append(r.claims, fs.pointer(blk, what+" indirect")) })
	}
	return r, units, nil
}

// CensusLocked implements fsck.Fixer: the inode-table scan, one task per
// block group fanned out over the scan's workers, then the serial
// directory scan in inode order.
func (fs *FS) CensusLocked(s *fsck.Scan) (*fsck.Refs[*inode], error) {
	c := fsck.NewRefs[*inode](s)
	s.Blocks = int64(fs.lay.sb.BlockCount)
	err := fsck.Stage(s, "census", "groups", int(fs.lay.sb.GroupCount), func(g int) error {
		return fs.loadGroup(uint32(g))
	}, func(g int) (groupCensus, int64, error) {
		return fs.censusGroup(uint32(g))
	}, func(r groupCensus) {
		for _, o := range r.objs {
			c.Add(o)
		}
		s.Enter(r.claims)
	})
	if err != nil {
		return nil, err
	}

	objs := c.Objects()
	fs.tr.PhaseN("fsck:verify-dirs", trace.F("inodes", len(objs)))
	var units int64
	for _, o := range objs {
		if !o.Dir {
			continue
		}
		dir := *o.Node
		if int64(dir.Size) > MaxFileSize {
			// A bad-size directory lists the blocks it maps.
			if dir.Size, err = fs.mappedEnd(&dir); err != nil {
				return nil, err
			}
		}
		ents, err := fs.DirListLocked(uint32(o.ID), dir)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			units++
			c.Entry(o.ID, e.Name, uint64(e.Ino))
			if !c.Has(uint64(e.Ino)) {
				c.Problemf("dangling-entry", "dir %d entry %q -> unallocated inode %d", o.ID, e.Name, e.Ino)
			}
		}
	}
	s.Stats.Add("verify:dirs", 1, []int64{units})
	return c, nil
}

var nouns = fsck.Nouns{
	Object:     func(id uint64) string { return fmt.Sprintf("inode %d", id) },
	OrphanKind: "orphan-inode", Orphan: " allocated but unreachable",
}

// blockMap describes the groups' block bitmaps: a bit per group block,
// set for the group's own metadata (superblock replica, bitmaps, inode
// table) and every block s saw claimed.
func (fs *FS) blockMap(s *fsck.Scan) *fsck.Bitmap {
	per := int64(fs.lay.sb.BlocksPerGroup)
	meta := int64(groupMetaBlks + fs.lay.sb.ITableBlocks)
	return &fsck.Bitmap{Name: "blocks", Kind: "block-bitmap", Bits: int64(fs.lay.sb.GroupCount) * per, BlockBits: per, First: firstGroupBlk,
		Stale: "block %d marked allocated but unreachable", Lost: "block %d in use but marked free",
		Read:  func(g int64) ([]byte, error) { return fs.readMeta(int64(fs.gds[g].DataBitmap), BTBitmap) },
		InUse: func(blk int64) bool { return s.Claimed(blk) || (blk-firstGroupBlk)%per < meta }}
}

// inodeMap describes the groups' inode bitmaps: a bit per inode, set for
// the inodes c found allocated.
func (fs *FS) inodeMap(c *fsck.Refs[*inode]) *fsck.Bitmap {
	per := int64(fs.lay.sb.InodesPerGroup)
	return &fsck.Bitmap{Name: "inodes", Kind: "inode-bitmap", Bits: int64(fs.lay.sb.GroupCount) * per, BlockBits: per, First: 1,
		Stale: "inode %d free but marked allocated", Lost: "inode %d in use but marked free",
		Read:  func(g int64) ([]byte, error) { return fs.readMeta(int64(fs.gds[g].INodeBMap), BTIBitmap) },
		InUse: func(ino int64) bool { return c.Has(uint64(ino)) }}
}

// ScanLocked implements fsck.Target: inode-table census and directory
// scan, the inode-order cross-check, then the block bitmaps against the
// descriptors' free-block count and the inode bitmaps against their
// free-inode count.
func (fs *FS) ScanLocked(s *fsck.Scan) error {
	c, err := fs.CensusLocked(s)
	if err != nil {
		return err
	}
	c.CrossCheck(nouns)
	freeBlocks, freeInodes := fs.freeCounts()
	free, err := fs.blockMap(s).Verify(s)
	if err != nil {
		return err
	}
	if free != freeBlocks {
		s.Problemf("free-blocks", "group descriptors say %d free, bitmaps say %d", freeBlocks, free)
	}
	if free, err = fs.inodeMap(c).Verify(s); err != nil {
		return err
	}
	if free != freeInodes {
		s.Problemf("free-inodes", "group descriptors say %d free, bitmaps say %d", freeInodes, free)
	}
	return nil
}

// ReconcileLocked implements fsck.Target.
//
//iron:commitpoint the repair transaction sequence; its error means some part of the reconciliation did not reach disk
func (fs *FS) ReconcileLocked() error { return fsck.Reconcile[*inode](fs.tr, fs) }

// RemoveEntryLocked implements fsck.Fixer.
func (fs *FS) RemoveEntryLocked(c *fsck.Refs[*inode], e fsck.Entry) error {
	if err := fs.DirRemoveLocked(uint32(e.Dir), *c.Node(e.Dir), e.Name); err != nil {
		return err
	}
	fs.rec.Recover(iron.RRepair, BTDir, fmt.Sprintf("dangling entry %q removed", e.Name))
	return fs.MaybeCommitLocked()
}

// ReclaimLocked implements fsck.Fixer: clear the inode; the map rebuild
// reclaims its bit and every block it mapped.
func (fs *FS) ReclaimLocked(o fsck.Object[*inode]) error {
	if err := fs.clearInode(uint32(o.ID)); err != nil {
		return err
	}
	fs.rec.Recover(iron.RRepair, BTInode, fmt.Sprintf("orphan inode %d freed", o.ID))
	return fs.MaybeCommitLocked()
}

// SetLinksLocked implements fsck.Fixer.
func (fs *FS) SetLinksLocked(o fsck.Object[*inode], links int) error {
	o.Node.Links = uint16(links)
	if err := fs.StoreLocked(uint32(o.ID), *o.Node); err != nil {
		return err
	}
	fs.rec.Recover(iron.RRepair, BTInode, fmt.Sprintf("inode %d link count corrected", o.ID))
	return fs.MaybeCommitLocked()
}

// restage stages the group bitmaps of bm whose image is not what the
// census says it should be; home names group g's bitmap block.
func (fs *FS) restage(bm *fsck.Bitmap, home func(g int) int64, bt iron.BlockType, why string) error {
	_, err := bm.Rebuild(func(g int64, _, want []byte) error {
		buf, err := fs.txMeta(home(int(g)), bt)
		if err != nil {
			return err
		}
		copy(buf, want)
		return nil
	})
	if err != nil {
		return err
	}
	fs.rec.Recover(iron.RRepair, bt, why)
	return nil
}

// freeBits counts the clear bits among the first n of group bitmap bm.
func freeBits(bm []byte, n uint32) (free uint32) {
	for i := int64(0); i < int64(n); i++ {
		if !testBit(bm, i) {
			free++
		}
	}
	return free
}

// mappedEnd returns the end of in's last mapped block: the size e2fsck
// gives an inode whose size field is past MaxFileSize.
func (fs *FS) mappedEnd(in *inode) (uint64, error) {
	var end int64
	err := fs.forEachBlock(in, func(l, _ int64) error {
		end = (l + 1) * BlockSize
		return nil
	})
	return uint64(end), err
}

// fixSizeLocked cuts the size of an inode whose size field is past
// MaxFileSize back to the end of its last mapped block.
func (fs *FS) fixSizeLocked(o fsck.Object[*inode]) error {
	end, err := fs.mappedEnd(o.Node)
	if err != nil {
		return err
	}
	o.Node.Size = end
	if err := fs.StoreLocked(uint32(o.ID), *o.Node); err != nil {
		return err
	}
	fs.rec.Recover(iron.RRepair, BTInode, fmt.Sprintf("inode %d size set to its last mapped block", o.ID))
	return fs.MaybeCommitLocked()
}

// RebuildMapsLocked implements fsck.Fixer: every size past MaxFileSize
// cut back, then both kinds of group bitmap and every descriptor's free
// counts, recounted from the rebuilt bitmaps, in the commit that ends the
// pass; then the checkpoint and the superblock, so the repaired volume is
// home.
func (fs *FS) RebuildMapsLocked(c *fsck.Refs[*inode]) error {
	for _, o := range c.Objects() {
		if int64(o.Node.Size) > MaxFileSize {
			if err := fs.fixSizeLocked(o); err != nil {
				return err
			}
		}
	}
	fs.rec.Detect(iron.DSanity, BTBitmap, "full-scan integrity check found inconsistencies")
	err := fs.restage(fs.blockMap(c.Scan), func(g int) int64 { return int64(fs.gds[g].DataBitmap) },
		BTBitmap, "block bitmaps rebuilt from reachability")
	if err != nil {
		return err
	}
	err = fs.restage(fs.inodeMap(c), func(g int) int64 { return int64(fs.gds[g].INodeBMap) },
		BTIBitmap, "inode bitmaps rebuilt")
	if err != nil {
		return err
	}
	for g := range fs.gds {
		bm, err := fs.readMeta(int64(fs.gds[g].DataBitmap), BTBitmap)
		if err != nil {
			return err
		}
		im, err := fs.readMeta(int64(fs.gds[g].INodeBMap), BTIBitmap)
		if err != nil {
			return err
		}
		fs.gds[g].FreeBlocks = freeBits(bm, fs.lay.sb.BlocksPerGroup)
		fs.gds[g].FreeInodes = freeBits(im, fs.lay.sb.InodesPerGroup)
		if err := fs.writeGroupDesc(uint32(g)); err != nil {
			return err
		}
	}
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
