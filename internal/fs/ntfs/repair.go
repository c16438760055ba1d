package ntfs

import (
	"ironfs/internal/fsck"
	"ironfs/internal/iron"
	"ironfs/internal/journal"
)

// The repair primitives (fsck.Fixer): dangling directory entries are
// removed, orphan MFT records reclaimed, file link counts corrected, and
// both bitmaps rebuilt from the record flags and block reachability.
// Fixes stage through the logfile in bounded transactions, so every
// intermediate commit is itself a consistent volume; the bitmap
// reconciliation stages last. A failed pass leaves the volume read-only
// (NTFS's §5.4 "unusable" stop).

// ReconcileLocked implements fsck.Target.
//
//iron:commitpoint the repair transaction sequence; its error means some part of the reconciliation did not reach disk
func (fs *FS) ReconcileLocked() error { return fsck.Reconcile[*mftRecord](fs.tr, fs) }

// RemoveEntryLocked implements fsck.Fixer.
func (fs *FS) RemoveEntryLocked(c *fsck.Refs[*mftRecord], e fsck.Entry) error {
	if _, err := fs.dirRemove(c.Node(e.Dir), e.Name); err != nil {
		return err
	}
	fs.rec.Recover(iron.RRepair, BTDir, "fsck removed dangling entry")
	return fs.MaybeCommitLocked()
}

// ReclaimLocked implements fsck.Fixer: clear the slot; the bitmap rebuild
// reclaims the MFT bit and every block the orphan mapped.
func (fs *FS) ReclaimLocked(o fsck.Object[*mftRecord]) error {
	if err := fs.clearRecord(uint32(o.ID)); err != nil {
		return err
	}
	fs.rec.Recover(iron.RRepair, BTMFT, "fsck reclaimed orphan record")
	return fs.MaybeCommitLocked()
}

// SetLinksLocked implements fsck.Fixer.
func (fs *FS) SetLinksLocked(o fsck.Object[*mftRecord], links int) error {
	o.Node.Links = uint16(links)
	if err := fs.StoreLocked(uint32(o.ID), o.Node); err != nil {
		return err
	}
	fs.rec.Recover(iron.RRepair, BTMFT, "fsck corrected link count")
	return fs.MaybeCommitLocked()
}

// restage stages the blocks of bm, which start at block `start`, whose
// image is not what the census says it should be.
func (fs *FS) restage(bm *fsck.Bitmap, start uint64, bt iron.BlockType, why string) error {
	_, err := bm.Rebuild(func(i int64, _, want []byte) error {
		fs.tx.StageMeta(int64(start)+i, want, bt)
		fs.rec.Recover(iron.RRepair, bt, why)
		return nil
	})
	return err
}

// RebuildMapsLocked implements fsck.Fixer: both bitmaps, in the commit
// that ends the pass. NTFS keeps no free counters, so the bitmaps are the
// whole reconciliation.
func (fs *FS) RebuildMapsLocked(c *fsck.Refs[*mftRecord]) error {
	if err := fs.restage(fs.mftBitmap(c), fs.boot.MFTBmp, BTMFTBmp, "fsck rebuilt MFT bitmap"); err != nil {
		return err
	}
	if err := fs.restage(fs.volBitmap(c.Scan), fs.boot.VolBmpStart, BTVolBmp, "fsck rebuilt volume bitmap"); err != nil {
		return err
	}
	return fs.commitLocked()
}

// AbortLocked implements fsck.Target: the running transaction goes, and
// the volume is marked unusable. Transactions the pass already committed
// were each consistent, so the on-disk image is a valid (if still damaged)
// volume.
func (fs *FS) AbortLocked() {
	fs.tx = journal.NewTxn[uint32](fs.cache)
	fs.unmountable(BTVolBmp, "consistency repair failed mid-pass")
}
