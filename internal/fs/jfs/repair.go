package jfs

import (
	"ironfs/internal/fsck"
	"ironfs/internal/iron"
	"ironfs/internal/journal"
)

// The repair primitives (fsck.Fixer): dangling directory entries are
// removed, orphan inodes reclaimed, file link counts corrected, and both
// allocation maps — plus the lazily kept bmap-descriptor and imap-control
// counters — rebuilt from the inode table and block reachability. Fixes
// stage as record-level redo spans through the log in bounded
// transactions, so every intermediate commit is itself a consistent
// volume. A failed pass remounts read-only (JFS's §5.3 stop).

// ReconcileLocked implements fsck.Target.
//
//iron:commitpoint the repair transaction sequence; its error means some part of the reconciliation did not reach disk
func (fs *FS) ReconcileLocked() error { return fsck.Reconcile[*inode](fs.tr, fs) }

// RemoveEntryLocked implements fsck.Fixer.
func (fs *FS) RemoveEntryLocked(c *fsck.Refs[*inode], e fsck.Entry) error {
	if _, err := fs.dirRemove(c.Node(e.Dir), e.Name); err != nil {
		return err
	}
	fs.rec.Recover(iron.RRepair, BTDir, "fsck removed dangling entry")
	return fs.MaybeCommitLocked()
}

// ReclaimLocked implements fsck.Fixer: clear the table slot; the map
// rebuild reclaims the bit and every block the orphan mapped.
func (fs *FS) ReclaimLocked(o fsck.Object[*inode]) error {
	if err := fs.clearInode(uint32(o.ID)); err != nil {
		return err
	}
	fs.rec.Recover(iron.RRepair, BTInode, "fsck reclaimed orphan inode")
	return fs.MaybeCommitLocked()
}

// SetLinksLocked implements fsck.Fixer.
func (fs *FS) SetLinksLocked(o fsck.Object[*inode], links int) error {
	o.Node.Links = uint16(links)
	if err := fs.StoreLocked(uint32(o.ID), o.Node); err != nil {
		return err
	}
	fs.rec.Recover(iron.RRepair, BTInode, "fsck corrected link count")
	return fs.MaybeCommitLocked()
}

// logMetaDiff logs the byte ranges where want differs from cur, the
// current image of blk — record-level redo spans, the journaling style JFS
// is known for. Runs are capped so every record fits a log block.
func (fs *FS) logMetaDiff(blk int64, cur, want []byte, bt iron.BlockType) error {
	const maxRun = 1024
	for i := 0; i < BlockSize; {
		if cur[i] == want[i] {
			i++
			continue
		}
		j := i
		for j < BlockSize && j-i < maxRun && cur[j] != want[j] {
			j++
		}
		if err := fs.logMeta(blk, i, want[i:j], bt); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// relog logs the redo spans that bring the blocks of bm, which start at
// block `start`, to what the census says they should be, and returns the
// number of clear bits.
func (fs *FS) relog(bm *fsck.Bitmap, start uint64, bt iron.BlockType, why string) (uint64, error) {
	return bm.Rebuild(func(i int64, cur, want []byte) error {
		if err := fs.logMetaDiff(int64(start)+i, cur, want, bt); err != nil {
			return err
		}
		fs.rec.Recover(iron.RRepair, bt, why)
		return nil
	})
}

// RebuildMapsLocked implements fsck.Fixer: both allocation maps and the
// lazy counters, in the commit that ends the pass.
func (fs *FS) RebuildMapsLocked(c *fsck.Refs[*inode]) error {
	freeInodes, err := fs.relog(fs.inodeMap(c), fs.sb.IMapStart, BTIMap, "fsck rebuilt inode map")
	if err != nil {
		return err
	}
	free, err := fs.relog(fs.blockMap(c.Scan), fs.sb.BMapStart, BTBMap, "fsck rebuilt block map")
	if err != nil {
		return err
	}
	if fs.imc.FreeInodes != freeInodes {
		fs.imc.FreeInodes = freeInodes
		if err := fs.writeIMapCtl(); err != nil {
			return err
		}
		fs.rec.Recover(iron.RRepair, BTIMapCtl, "fsck recomputed free-inode counter")
	}
	if fs.bmd.Free != free || fs.bmd.FreeCheck != free {
		fs.bmd.Free = free
		if err := fs.writeBMapDesc(); err != nil {
			return err
		}
		fs.rec.Recover(iron.RRepair, BTBMapDesc, "fsck recomputed free-block counter")
	}
	return fs.commitLocked()
}

// AbortLocked implements fsck.Target: the running transaction goes, and
// the volume remounts read-only. Transactions the pass already committed
// were each consistent, so the on-disk image is a valid (if still damaged)
// volume.
func (fs *FS) AbortLocked() {
	fs.tx = journal.NewTxn[uint32](fs.cache)
	fs.records = nil
	fs.remountRO(BTBMap, "consistency repair failed mid-pass")
}
