package jfs

import (
	"fmt"

	"ironfs/internal/fsck"
)

// The consistency scan (the fsck.Target and fsck.Fixer enumerators): the
// inode table against the allocation maps and the directory tree. It
// reports map bits that disagree with the table and with block
// reachability, wild or doubly referenced pointers, dangling directory
// entries, orphan inodes, and wrong file link counts. The lazily kept
// counters (superblock, bmap descriptor, imap control) are not checked.

// MountedLocked implements fsck.Target.
func (fs *FS) MountedLocked() bool { return fs.mounted }

// inodeCount is the number of inode-table slots.
func (fs *FS) inodeCount() uint32 { return uint32(int64(fs.sb.ITabLen) * InodesPB) }

// tabCensus is one inode-table block's census: the allocated inodes and
// the blocks they map, entered into the claim map serially in table order.
type tabCensus struct {
	objs   []fsck.Object[*inode]
	claims []fsck.Event
}

// censusTableBlock scans the InodesPB slots of one inode-table block.
// Read-only, so table blocks scan concurrently.
func (fs *FS) censusTableBlock(t int64, total uint32) (r tabCensus, units int64, err error) {
	for s := int64(0); s < InodesPB; s++ {
		ino := uint32(t*InodesPB + s + 1)
		if ino > total {
			break
		}
		units++
		in, err := fs.LoadLocked(ino)
		if err != nil {
			return r, units, err // sanity check fired: detected, not silent
		}
		if !in.Allocated() {
			continue
		}
		r.objs = append(r.objs, fsck.Object[*inode]{ID: uint64(ino), Links: int(in.Links),
			Dir: in.IsDir(), Root: ino == RootIno, Node: in})
		nblocks := (int64(in.Size) + BlockSize - 1) / BlockSize
		for l := int64(0); l < nblocks; l++ {
			blk, err := fs.blockPtr(in, l, false, false)
			if err != nil {
				return r, units, err
			}
			if blk != 0 {
				r.claims = append(r.claims, fsck.Event{Blk: blk, What: fmt.Sprintf("inode %d block %d", ino, l)})
			}
		}
		for g, ib := range in.Intern {
			if ib != 0 {
				r.claims = append(r.claims, fsck.Event{Blk: int64(ib), What: fmt.Sprintf("inode %d internal %d", ino, g)})
			}
		}
	}
	return r, units, nil
}

// CensusLocked implements fsck.Fixer: the inode-table scan (fanned out
// over the scan's workers) and the serial directory scan, in table order.
func (fs *FS) CensusLocked(s *fsck.Scan) (*fsck.Refs[*inode], error) {
	c := fsck.NewRefs[*inode](s)
	s.Blocks = int64(fs.sb.BlockCount)
	total := fs.inodeCount()
	err := fsck.Stage(s, "census", "itable", int(fs.sb.ITabLen), func(i int) (tabCensus, int64, error) {
		return fs.censusTableBlock(int64(i), total)
	}, func(r tabCensus) {
		for _, o := range r.objs {
			c.Add(o)
		}
		s.Enter(r.claims)
	})
	if err != nil {
		return nil, err
	}

	objs := c.Objects()
	fs.tr.Phase("fsck:verify-dirs", fmt.Sprintf("inodes=%d", len(objs)))
	var units int64
	for _, o := range objs {
		if !o.Dir {
			continue
		}
		err := fs.dirBlocks(o.Node, func(_ int64, _ []byte, it dirIter) (bool, error) {
			for e, ok := it.next(); ok; e, ok = it.next() {
				units++
				c.Entry(o.ID, string(e.Name), uint64(e.Ino))
				if !c.Has(uint64(e.Ino)) {
					c.Problemf("dangling-entry", "dir %d entry %q -> unallocated inode %d", o.ID, e.Name, e.Ino)
				}
			}
			return false, nil
		})
		if err != nil {
			return nil, err
		}
	}
	s.Stats.Add("verify:dirs", 1, []int64{units})
	return c, nil
}

var nouns = fsck.Nouns{
	Object:     func(id uint64) string { return fmt.Sprintf("inode %d", id) },
	OrphanKind: "orphan-inode", Orphan: " allocated but unreachable",
}

// inodeMap describes the inode map: a bit per table slot, set for the
// inodes c found allocated.
func (fs *FS) inodeMap(c *fsck.Refs[*inode]) *fsck.Bitmap {
	return &fsck.Bitmap{Name: "imap", Kind: "imap", Bits: int64(fs.inodeCount()), BlockBits: bitsPerBlock, First: 1,
		Stale: "inode %d marked allocated but table slot is free", Lost: "inode %d in use but marked free",
		Read:  func(i int64) ([]byte, error) { return fs.readMeta(int64(fs.sb.IMapStart)+i, BTIMap) },
		InUse: func(ino int64) bool { return c.Has(uint64(ino)) }}
}

// fixedBlock reports whether blk lies in the always-allocated aggregate
// regions: superblocks, descriptor pages, maps, inode table, and the log.
func (fs *FS) fixedBlock(blk int64) bool {
	return blk < int64(fs.sb.ITabStart+fs.sb.ITabLen) || blk >= int64(fs.sb.LogStart)
}

// blockMap describes the block map: a bit per block, set for the fixed
// regions and every block s saw claimed.
func (fs *FS) blockMap(s *fsck.Scan) *fsck.Bitmap {
	return &fsck.Bitmap{Name: "bmap", Kind: "bmap", Bits: int64(fs.sb.BlockCount), BlockBits: bitsPerBlock,
		Stale: "block %d marked allocated but unreachable", Lost: "block %d in use but marked free",
		Read:  func(i int64) ([]byte, error) { return fs.readMeta(int64(fs.sb.BMapStart)+i, BTBMap) },
		InUse: func(blk int64) bool { return s.Claimed(blk) || fs.fixedBlock(blk) }}
}

// ScanLocked implements fsck.Target: table census and directory scan, the
// table-order cross-check, then both allocation maps.
func (fs *FS) ScanLocked(s *fsck.Scan) error {
	c, err := fs.CensusLocked(s)
	if err != nil {
		return err
	}
	c.CrossCheck(nouns)
	if err := fs.inodeMap(c).Verify(s); err != nil {
		return err
	}
	return fs.blockMap(s).Verify(s)
}
