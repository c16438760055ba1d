package ext3

import (
	"encoding/binary"

	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// This file implements inode load/store and the logical-to-physical block
// map (bmap) over direct, indirect, double- and triple-indirect pointers.

// LoadLocked implements namei.Store: it reads inode ino from its table
// block. Per §5.1, stock ext3 applies a few field sanity checks when an
// inode is brought in (an overly-large size field is caught and reported)
// but does not validate pointers.
func (fs *FS) LoadLocked(ino uint32) (*inode, error) {
	blk, off, err := fs.lay.inodeLoc(ino)
	if err != nil {
		return nil, vfs.ErrInval
	}
	buf, err := fs.readMeta(blk, BTInode)
	if err != nil {
		return nil, err
	}
	in := &inode{}
	in.unmarshal(buf[off : off+InodeSize])
	if in.Allocated() && int64(in.Size) > MaxFileSize {
		fs.rec.Detect(iron.DSanity, BTInode, "inode size field overly large")
		fs.rec.Recover(iron.RPropagate, BTInode, "open reports error")
		return nil, vfs.ErrCorrupt
	}
	return in, nil
}

// StoreLocked implements namei.Store: it journals inode ino's new contents.
func (fs *FS) StoreLocked(ino uint32, in *inode) error {
	blk, off, err := fs.lay.inodeLoc(ino)
	if err != nil {
		return vfs.ErrInval
	}
	buf, err := fs.txMeta(blk, BTInode)
	if err != nil {
		return err
	}
	in.marshal(buf[off : off+InodeSize])
	fs.tx.Touch(ino)
	return nil
}

// clearInode zeroes inode ino on disk (deletion).
func (fs *FS) clearInode(ino uint32) error {
	blk, off, err := fs.lay.inodeLoc(ino)
	if err != nil {
		return vfs.ErrInval
	}
	buf, err := fs.txMeta(blk, BTInode)
	if err != nil {
		return err
	}
	for i := 0; i < InodeSize; i++ {
		buf[off+i] = 0
	}
	fs.tx.Touch(ino)
	return nil
}

// indirect tier boundaries in logical block space.
const (
	indStart  = int64(DirectBlocks)
	dindStart = indStart + PtrsPerBlock
	tindStart = dindStart + PtrsPerBlock*PtrsPerBlock
)

// getPtr reads pointer slot i of an indirect block.
func getPtr(buf []byte, i int64) int64 {
	return int64(binary.LittleEndian.Uint64(buf[i*8:]))
}

// bmap maps logical file block l to a physical block. With alloc set,
// missing blocks (and intermediate indirect blocks) are allocated and the
// in-memory inode is updated; the caller must StoreLocked afterwards.
// Without alloc, 0 is returned for holes.
//
// Note the reproduced policy point: pointers loaded from indirect blocks
// are used as-is — stock ext3 has no sanity check on them (§5.1), so a
// corrupted indirect block sends I/O to arbitrary locations.
func (fs *FS) bmap(in *inode, l int64, alloc bool) (int64, error) {
	if l < 0 || l >= maxFileBlocks {
		return 0, vfs.ErrInval
	}
	pref := uint32(0)

	switch {
	case l < indStart:
		if in.Direct[l] == 0 {
			if !alloc {
				return 0, nil
			}
			blk, err := fs.allocBlock(pref, BTData)
			if err != nil {
				return 0, err
			}
			in.Direct[l] = uint64(blk)
		}
		return int64(in.Direct[l]), nil

	case l < dindStart:
		return fs.mapVia(&in.Ind, l-indStart, 1, alloc, pref)

	case l < tindStart:
		return fs.mapVia(&in.DInd, l-dindStart, 2, alloc, pref)

	default:
		return fs.mapVia(&in.TInd, l-tindStart, 3, alloc, pref)
	}
}

// mapVia resolves idx through `depth` levels of indirection rooted at
// *root, allocating missing levels when alloc is set.
func (fs *FS) mapVia(root *uint64, idx int64, depth int, alloc bool, pref uint32) (int64, error) {
	// Per-level fan-out: at depth d the top level spans PtrsPerBlock^(d-1)
	// leaf pointers per slot.
	span := int64(1)
	for i := 1; i < depth; i++ {
		span *= PtrsPerBlock
	}

	if *root == 0 {
		if !alloc {
			return 0, nil
		}
		blk, err := fs.allocBlock(pref, BTIndirect)
		if err != nil {
			return 0, err
		}
		fs.txMetaNew(blk, BTIndirect)
		*root = uint64(blk)
	}
	cur := int64(*root)

	for level := depth; level >= 1; level-- {
		slot := idx / span
		idx %= span
		if slot >= PtrsPerBlock {
			return 0, vfs.ErrInval
		}
		buf, err := fs.readMeta(cur, BTIndirect)
		if err != nil {
			return nil2(err)
		}
		next := getPtr(buf, slot)
		if next == 0 {
			if !alloc {
				return 0, nil
			}
			bt := BTData
			if level > 1 {
				bt = BTIndirect
			}
			nb, err := fs.allocBlock(pref, bt)
			if err != nil {
				return 0, err
			}
			if level > 1 {
				fs.txMetaNew(nb, BTIndirect)
			}
			mbuf, err := fs.txMeta(cur, BTIndirect)
			if err != nil {
				return 0, err
			}
			binary.LittleEndian.PutUint64(mbuf[slot*8:], uint64(nb))
			next = nb
		}
		if level == 1 {
			return next, nil
		}
		cur = next
		span /= PtrsPerBlock
	}
	return cur, nil
}

func nil2(err error) (int64, error) { return 0, err }

// forEachBlock walks every allocated data block of the file in logical
// order, invoking fn(logical, physical). Holes are skipped. The walk stops
// on the first error from fn.
func (fs *FS) forEachBlock(in *inode, fn func(l, phys int64) error) error {
	nblocks := (int64(in.Size) + BlockSize - 1) / BlockSize
	for l := int64(0); l < nblocks; l++ {
		phys, err := fs.bmap(in, l, false)
		if err != nil {
			return err
		}
		if phys == 0 {
			continue
		}
		if err := fn(l, phys); err != nil {
			return err
		}
	}
	return nil
}

// truncateBlocks frees every data and indirect block backing file offsets
// at or beyond newSize. It returns the first error but attempts to free as
// much as possible. Freed indirect blocks are revoked.
func (fs *FS) truncateBlocks(in *inode, newSize int64) error {
	keep := (newSize + BlockSize - 1) / BlockSize
	oldBlocks := (int64(in.Size) + BlockSize - 1) / BlockSize
	if oldBlocks <= keep {
		return nil
	}

	// Whole-file truncation resets the parity directly instead of folding
	// every block out one read at a time — an empty file's parity is all
	// zeros (and on unlink the parity block is freed right after anyway).
	if newSize == 0 && fs.opts.DataParity && in.Parity != 0 {
		fs.txDataNew(int64(in.Parity), BTParity)
		fs.parityskip = true
		defer func() { fs.parityskip = false }()
	}

	// Direct pointers.
	var firstErr error
	for l := keep; l < indStart && l < oldBlocks; l++ {
		if in.Direct[l] != 0 {
			if err := fs.freeDataBlock(in, int64(in.Direct[l])); err != nil && firstErr == nil {
				firstErr = err
			}
			in.Direct[l] = 0
		}
	}
	// Indirect trees: free any tree whose entire range is cut; for
	// partially-cut trees, free the tail leaves.
	if err := fs.pruneTree(in, &in.Ind, 1, indStart, keep, oldBlocks); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := fs.pruneTree(in, &in.DInd, 2, dindStart, keep, oldBlocks); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := fs.pruneTree(in, &in.TInd, 3, tindStart, keep, oldBlocks); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// freeDataBlock frees one file data block, first folding its contents out
// of the file's parity (Dp) so the parity stays exact. When the block
// cannot be read, its contents are reconstructed from the parity group
// itself (parity ⊕ siblings) before being folded out.
func (fs *FS) freeDataBlock(in *inode, blk int64) error {
	if fs.opts.DataParity && in.Parity != 0 && !fs.parityskip {
		old, err := fs.readFileBlockRaw(blk)
		if err != nil {
			fs.rec.Detect(iron.DErrorCode, BTData, "data read failed while freeing")
			if old, err = fs.reconstructFreed(in, blk); err == nil {
				fs.rec.Recover(iron.RRedundancy, BTData, "freed block reconstructed from parity")
			}
		}
		if err == nil {
			zero := make([]byte, BlockSize)
			if err := fs.updateParityDeltaRaw(in, old, zero); err != nil {
				return err
			}
		}
		// Reconstruction impossible: the parity group already lost more
		// than one member; freeing proceeds, the group is degraded.
	}
	return fs.freeBlock(blk)
}

// reconstructFreed recovers the contents of physical block blk by locating
// its logical index and xoring the rest of the parity group.
func (fs *FS) reconstructFreed(in *inode, blk int64) ([]byte, error) {
	nblocks := (int64(in.Size) + BlockSize - 1) / BlockSize
	for l := int64(0); l < nblocks; l++ {
		phys, err := fs.bmap(in, l, false)
		if err != nil {
			return nil, err
		}
		if phys == blk {
			return fs.reconstructData(in, l, blk)
		}
	}
	return nil, errNoRedundancy
}

// updateParityDeltaRaw is updateParityDelta for callers that already hold
// old and new contents.
func (fs *FS) updateParityDeltaRaw(in *inode, oldData, newData []byte) error {
	return fs.updateParityDelta(in, oldData, newData)
}

// pruneTree frees blocks under the indirect tree rooted at *root (depth
// levels) whose logical index ∈ [keep, oldBlocks), given the tree covers
// logicals starting at base. Empty trees are freed and the root cleared.
//
// Policy fidelity (§5.2 finding applies to ext3 as well): a read failure on
// an indirect block during truncate is detected (error code) but the
// operation continues, leaking the blocks beneath it.
func (fs *FS) pruneTree(in *inode, root *uint64, depth int, base, keep, oldBlocks int64) error {
	if *root == 0 {
		return nil
	}
	span := int64(1)
	for i := 0; i < depth; i++ {
		span *= PtrsPerBlock
	}
	end := base + span
	if keep >= end || oldBlocks <= base {
		return nil // untouched or entirely beyond the file
	}
	freedAll, err := fs.pruneNode(in, int64(*root), depth, base, span/PtrsPerBlock, keep, oldBlocks)
	if err != nil {
		return err
	}
	if freedAll {
		if err := fs.freeBlock(int64(*root)); err != nil {
			return err
		}
		*root = 0
	}
	return nil
}

// pruneNode recursively frees the cut range below one indirect block.
// It reports whether the entire node became empty.
func (fs *FS) pruneNode(in *inode, blk int64, depth int, base, childSpan, keep, oldBlocks int64) (bool, error) {
	buf, err := fs.readMeta(blk, BTIndirect)
	if err != nil {
		// Reproduced ext3/ReiserFS bug: the failure is noticed but the
		// truncate carries on, leaking everything beneath this node.
		return false, nil
	}
	// Work on a private copy of the pointers; the block is journaled only
	// if something changes.
	empty := true
	var mbuf []byte
	for slot := int64(0); slot < PtrsPerBlock; slot++ {
		ptr := getPtr(buf, slot)
		if ptr == 0 {
			continue
		}
		lo := base + slot*childSpan
		hi := lo + childSpan
		if depth == 1 {
			lo = base + slot
			hi = lo + 1
		}
		if lo >= oldBlocks {
			break
		}
		if hi <= keep {
			empty = false
			continue
		}
		if depth == 1 {
			if err := fs.freeDataBlock(in, ptr); err != nil {
				return false, err
			}
			if mbuf == nil {
				if mbuf, err = fs.txMeta(blk, BTIndirect); err != nil {
					return false, err
				}
			}
			binary.LittleEndian.PutUint64(mbuf[slot*8:], 0)
			continue
		}
		childEmpty, err := fs.pruneNode(in, ptr, depth-1, lo, childSpan/PtrsPerBlock, keep, oldBlocks)
		if err != nil {
			return false, err
		}
		if childEmpty && lo >= keep {
			if err := fs.freeBlock(ptr); err != nil {
				return false, err
			}
			if mbuf == nil {
				if mbuf, err = fs.txMeta(blk, BTIndirect); err != nil {
					return false, err
				}
			}
			binary.LittleEndian.PutUint64(mbuf[slot*8:], 0)
		} else if !childEmpty {
			empty = false
		}
	}
	return empty, nil
}
