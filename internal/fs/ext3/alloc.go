package ext3

import (
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// This file implements block and inode allocation over the per-group
// bitmaps. Note the policy fidelity point from §5.1: stock ext3 performs
// *no* type or sanity checking on bitmap blocks, so a corrupted bitmap is
// consumed verbatim — allocation silently hands out in-use blocks. ixt3
// catches this with metadata checksums instead (Mc).

// setBit sets bit i of bm, returning whether it was previously clear.
func setBit(bm []byte, i int64) bool {
	was := bm[i/8]&(1<<(uint(i)%8)) != 0
	bm[i/8] |= 1 << (uint(i) % 8)
	return !was
}

// clearBit clears bit i of bm.
func clearBit(bm []byte, i int64) {
	bm[i/8] &^= 1 << (uint(i) % 8)
}

// testBit reports bit i of bm.
func testBit(bm []byte, i int64) bool {
	return bm[i/8]&(1<<(uint(i)%8)) != 0
}

// writeGroupDesc journals the descriptor table entry for group g.
func (fs *FS) writeGroupDesc(g uint32) error {
	buf, err := fs.txMeta(gdtBlock, BTGDesc)
	if err != nil {
		return err
	}
	fs.gds[g].marshal(buf[int(g)*gdEncodedLen:])
	return nil
}

// allocBlock allocates one block, preferring group pref; it scans groups
// round-robin. The returned block is absolute. bt describes what the block
// will hold, for error attribution.
func (fs *FS) allocBlock(pref uint32, bt iron.BlockType) (int64, error) {
	n := fs.lay.sb.GroupCount
	for i := uint32(0); i < n; i++ {
		g := (pref + i) % n
		if fs.gds[g].FreeBlocks == 0 {
			continue
		}
		bmBlk := int64(fs.gds[g].DataBitmap)
		bm, err := fs.txMeta(bmBlk, BTBitmap)
		if err != nil {
			return 0, err
		}
		first := groupMetaBlks + int64(fs.lay.sb.ITableBlocks)
		for b := first; b < int64(fs.lay.sb.BlocksPerGroup); b++ {
			if !testBit(bm, b) {
				setBit(bm, b)
				fs.gds[g].FreeBlocks--
				if err := fs.writeGroupDesc(g); err != nil {
					return 0, err
				}
				return fs.lay.groupStart(g) + b, nil
			}
		}
		// The descriptor said there was space but the bitmap disagrees
		// (possibly corruption we cannot detect without Mc); fall
		// through to the next group.
	}
	return 0, vfs.ErrNoSpace
}

// freeBlock releases blk and revokes it from the journal so recovery can
// never resurrect its stale contents.
func (fs *FS) freeBlock(blk int64) error {
	g := fs.lay.groupOf(blk)
	if g < 0 {
		// A block pointer leading outside the group area is exactly the
		// kind of wild pointer stock ext3 never sanity-checks; freeing
		// it is silently skipped to keep the simulator itself safe.
		return nil
	}
	bmBlk := int64(fs.gds[g].DataBitmap)
	bm, err := fs.txMeta(bmBlk, BTBitmap)
	if err != nil {
		return err
	}
	within := blk - fs.lay.groupStart(uint32(g))
	if testBit(bm, within) {
		clearBit(bm, within)
		fs.gds[g].FreeBlocks++
		if err := fs.writeGroupDesc(uint32(g)); err != nil {
			return err
		}
	}
	fs.revoke(blk)
	return nil
}

// reclaimBlock marks blk, which freeBlock freed, in use again.
func (fs *FS) reclaimBlock(blk int64) error {
	g := uint32(fs.lay.groupOf(blk))
	bm, err := fs.txMeta(int64(fs.gds[g].DataBitmap), BTBitmap)
	if err != nil {
		return err
	}
	if within := blk - fs.lay.groupStart(g); !testBit(bm, within) {
		setBit(bm, within)
		fs.gds[g].FreeBlocks--
		return fs.writeGroupDesc(g)
	}
	return nil
}

// allocInode allocates an inode number, preferring group pref.
func (fs *FS) allocInode(pref uint32) (uint32, error) {
	n := fs.lay.sb.GroupCount
	for i := uint32(0); i < n; i++ {
		g := (pref + i) % n
		if fs.gds[g].FreeInodes == 0 {
			continue
		}
		bmBlk := int64(fs.gds[g].INodeBMap)
		bm, err := fs.txMeta(bmBlk, BTIBitmap)
		if err != nil {
			return 0, err
		}
		for b := int64(0); b < int64(fs.lay.sb.InodesPerGroup); b++ {
			if !testBit(bm, b) {
				setBit(bm, b)
				fs.gds[g].FreeInodes--
				if err := fs.writeGroupDesc(g); err != nil {
					return 0, err
				}
				return g*fs.lay.sb.InodesPerGroup + uint32(b) + 1, nil
			}
		}
	}
	return 0, vfs.ErrNoInodes
}

// freeInode releases inode number ino.
func (fs *FS) freeInode(ino uint32) error {
	if ino == 0 {
		return nil
	}
	g := (ino - 1) / fs.lay.sb.InodesPerGroup
	if g >= fs.lay.sb.GroupCount {
		return nil
	}
	within := int64((ino - 1) % fs.lay.sb.InodesPerGroup)
	bmBlk := int64(fs.gds[g].INodeBMap)
	bm, err := fs.txMeta(bmBlk, BTIBitmap)
	if err != nil {
		return err
	}
	if testBit(bm, within) {
		clearBit(bm, within)
		fs.gds[g].FreeInodes++
		if err := fs.writeGroupDesc(g); err != nil {
			return err
		}
	}
	return nil
}

// groupOfInode returns the block group an inode lives in.
func (fs *FS) groupOfInode(ino uint32) uint32 {
	if ino == 0 {
		return 0
	}
	return (ino - 1) / fs.lay.sb.InodesPerGroup
}
