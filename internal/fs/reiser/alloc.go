package reiser

import (
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// Block allocation over the bitmap region. One bit per device block;
// bitmap block i covers blocks [i*bitsPerBlock, (i+1)*bitsPerBlock).
//
// Policy fidelity (§5.2): "bitmaps and data blocks do not have associated
// type information and hence are never type-checked" — a corrupt bitmap is
// believed verbatim.

const bitsPerBlock = BlockSize * 8

// allocBlock finds a free block, marks it used, and journals the bitmap.
func (fs *FS) allocBlock(bt iron.BlockType) (int64, error) {
	for bm := int64(0); bm < int64(fs.sb.BitmapLen); bm++ {
		bmBlk := int64(fs.sb.BitmapStart) + bm
		buf, err := fs.readMetaBlock(bmBlk, BTBitmap)
		if err != nil {
			return 0, err
		}
		for i := 0; i < BlockSize; i++ {
			if buf[i] == 0xFF {
				continue
			}
			for bit := 0; bit < 8; bit++ {
				if buf[i]&(1<<bit) != 0 {
					continue
				}
				blk := bm*bitsPerBlock + int64(i)*8 + int64(bit)
				if blk >= int64(fs.sb.BlockCount) {
					return 0, vfs.ErrNoSpace
				}
				buf[i] |= 1 << bit
				fs.tx.StageMeta(bmBlk, buf, BTBitmap)
				if fs.sb.FreeBlocks > 0 {
					fs.sb.FreeBlocks--
				}
				fs.sbDirty = true
				// A free block can still be cached — read-ahead runs on past
				// a file's end — holding a deleted file's bytes; Write starts
				// a partial block from the cached copy, so the new owner
				// must not find one.
				fs.cache.Drop(blk)
				return blk, nil
			}
		}
	}
	return 0, vfs.ErrNoSpace
}

// freeBlock clears a block's bitmap bit and drops it from the running
// transaction and cache.
func (fs *FS) freeBlock(blk int64) error {
	if blk <= 0 || blk >= int64(fs.sb.BlockCount) {
		return nil // wild pointer: silently skipped (no sanity checking here)
	}
	bmBlk := int64(fs.sb.BitmapStart) + blk/bitsPerBlock
	buf, err := fs.readMetaBlock(bmBlk, BTBitmap)
	if err != nil {
		return err
	}
	i, bit := (blk%bitsPerBlock)/8, uint(blk%8)
	if buf[i]&(1<<bit) != 0 {
		buf[i] &^= 1 << bit
		fs.tx.StageMeta(bmBlk, buf, BTBitmap)
		fs.sb.FreeBlocks++
		fs.sbDirty = true
	}
	fs.tx.Drop(blk)
	return nil
}

// allocOID hands out the next object id.
func (fs *FS) allocOID() uint32 {
	oid := fs.sb.NextOID
	fs.sb.NextOID++
	fs.sbDirty = true
	return oid
}
