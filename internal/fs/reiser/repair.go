package reiser

import (
	"ironfs/internal/fsck"
	"ironfs/internal/iron"
	"ironfs/internal/journal"
)

// The repair primitives (fsck.Fixer): dangling directory entries are
// removed, orphan objects reclaimed, file link counts corrected, and the
// allocation bitmaps and free counter rebuilt from tree reachability.
// Tree fixes reuse the ordinary object operations, so they stage through
// the journal in bounded transactions — every intermediate commit is
// itself a consistent tree — with the bitmap/counter reconciliation as
// the final atomic commit. A failed pass panics the volume (ReiserFS's
// §5.2 write-failure policy).

// ReconcileLocked implements fsck.Target.
//
//iron:commitpoint the repair transaction sequence; its error means some part of the reconciliation did not reach disk
func (fs *FS) ReconcileLocked() error { return fsck.Reconcile[statData](fs.tr, fs) }

// RemoveEntryLocked implements fsck.Fixer.
func (fs *FS) RemoveEntryLocked(_ *fsck.Refs[statData], e fsck.Entry) error {
	if _, err := fs.dirRemoveEntry(refOf(e.Dir), e.Name); err != nil {
		return err
	}
	fs.rec.Recover(iron.RRepair, BTDirItem, "fsck removed dangling entry")
	return fs.MaybeCommitLocked()
}

// ReclaimLocked implements fsck.Fixer.
func (fs *FS) ReclaimLocked(o fsck.Object[statData]) error {
	if err := fs.removeObject(refOf(o.ID)); err != nil {
		return err
	}
	fs.rec.Recover(iron.RRepair, BTStat, "fsck reclaimed orphan object")
	return fs.MaybeCommitLocked()
}

// SetLinksLocked implements fsck.Fixer.
func (fs *FS) SetLinksLocked(o fsck.Object[statData], links int) error {
	o.Node.Links = uint16(links)
	if err := fs.StoreLocked(refOf(o.ID), &o.Node); err != nil {
		return err
	}
	fs.rec.Recover(iron.RRepair, BTStat, "fsck corrected link count")
	return fs.MaybeCommitLocked()
}

// RebuildMapsLocked implements fsck.Fixer: the bitmap images and the
// superblock's free counter commit as one transaction.
func (fs *FS) RebuildMapsLocked(c *fsck.Refs[statData]) error {
	free, err := fs.bitmap(c.Scan).Rebuild(func(i int64, _, want []byte) error {
		fs.tx.StageMeta(int64(fs.sb.BitmapStart)+i, want, BTBitmap)
		fs.rec.Recover(iron.RRepair, BTBitmap, "fsck rebuilt allocation bitmap")
		return nil
	})
	if err != nil {
		return err
	}
	if fs.sb.FreeBlocks != free {
		fs.sb.FreeBlocks = free
		fs.sbDirty = true
		fs.rec.Recover(iron.RRepair, BTSuper, "fsck recomputed free-block counter")
	}
	return fs.commitLocked()
}

// AbortLocked implements fsck.Target: the running transaction goes, and
// the volume panics. Transactions the pass already committed were each
// consistent, so the image on disk is a valid (if still damaged) tree.
func (fs *FS) AbortLocked() {
	fs.tx = journal.NewTxn[objRef](fs.cache)
	fs.sbDirty = false
	fs.panicFS(BTBitmap, "consistency repair failed mid-pass")
}
