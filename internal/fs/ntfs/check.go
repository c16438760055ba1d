package ntfs

import (
	"fmt"

	"ironfs/internal/fsck"
	"ironfs/internal/trace"
)

// The consistency scan (the fsck.Target and fsck.Fixer enumerators): the
// MFT against both bitmaps and the directory tree. It reports bitmap bits
// that disagree with MFT record flags and block reachability, wild or
// doubly referenced pointers, dangling directory entries, orphan records,
// and wrong link counts.

// MountedLocked implements fsck.Target.
func (fs *FS) MountedLocked() bool { return fs.mounted }

// recordCount is the number of MFT slots.
func (fs *FS) recordCount() uint32 { return uint32(int64(fs.boot.MFTLen) * RecsPB) }

// mftCensus is one MFT block's census: the in-use records, and in scan
// order the blocks they map and the problems seen on the way.
type mftCensus struct {
	objs   []fsck.Object[*mftRecord]
	events []fsck.Event
}

// censusMFTBlock scans the RecsPB slots of one MFT block. Read-only, and
// CensusLocked's load brought the MFT block in, so MFT blocks scan
// concurrently.
func (fs *FS) censusMFTBlock(t int64, total uint32) (out mftCensus, units int64, err error) {
	for s := int64(0); s < RecsPB; s++ {
		rec := uint32(t*RecsPB + s)
		if rec >= total {
			break
		}
		units++
		r, err := fs.LoadLocked(rec)
		if err != nil {
			return out, units, err // record magic check fired: detected, not silent
		}
		if !r.Allocated() {
			continue
		}
		// $MFT and the root have no parent entry.
		out.objs = append(out.objs, fsck.Object[*mftRecord]{ID: uint64(rec), Links: int(r.Links),
			Dir: r.isDir(), Root: rec == 0 || rec == RootRec, Node: &r})
		nblocks := (int64(r.Size) + BlockSize - 1) / BlockSize
		if nblocks > maxFileBlocks {
			out.events = append(out.events, fsck.Event{Kind: "record-size",
				What: fmt.Sprintf("record %d size %d exceeds the maximum file size", rec, r.Size)})
			nblocks = maxFileBlocks
		}
		for l := int64(0); l < nblocks; l++ {
			blk, err := fs.blockPtr(&r, l, false)
			if err != nil {
				return out, units, err
			}
			if blk != 0 {
				out.events = append(out.events, fsck.Event{Blk: blk, What: fmt.Sprintf("record %d block %d", rec, l)})
			}
		}
		for g, eb := range r.Ext {
			if eb != 0 {
				out.events = append(out.events, fsck.Event{Blk: int64(eb), What: fmt.Sprintf("record %d run-extension %d", rec, g)})
			}
		}
	}
	return out, units, nil
}

// CensusLocked implements fsck.Fixer: the MFT scan (fanned out over the
// scan's workers) and the serial directory scan, in MFT order.
func (fs *FS) CensusLocked(s *fsck.Scan) (*fsck.Refs[*mftRecord], error) {
	c := fsck.NewRefs[*mftRecord](s)
	s.Blocks = int64(fs.boot.BlockCount)
	total := fs.recordCount()
	err := fsck.Stage(s, "census", "mft", int(fs.boot.MFTLen), func(i int) error {
		_, err := fs.readBlockRetry(int64(fs.boot.MFTStart)+int64(i), BTMFT)
		return err
	}, func(i int) (mftCensus, int64, error) {
		return fs.censusMFTBlock(int64(i), total)
	}, func(r mftCensus) {
		for _, o := range r.objs {
			c.Add(o)
		}
		s.Enter(r.events)
	})
	if err != nil {
		return nil, err
	}

	objs := c.Objects()
	fs.tr.PhaseN("fsck:verify-dirs", trace.F("records", len(objs)))
	var units int64
	for _, o := range objs {
		if !o.Dir {
			continue
		}
		err := fs.dirBlocks(o.Node, func(_ int64, _ []byte, it dirIter) (bool, error) {
			for e, ok := it.next(); ok; e, ok = it.next() {
				units++
				c.Entry(o.ID, string(e.Name), uint64(e.Rec))
				if !c.Has(uint64(e.Rec)) {
					c.Problemf("dangling-entry", "dir record %d entry %q -> free record %d", o.ID, e.Name, e.Rec)
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
	Object:     func(id uint64) string { return fmt.Sprintf("record %d", id) },
	OrphanKind: "orphan-record", Orphan: " in use but unreachable",
}

// mftBitmap describes the (single-block) MFT bitmap: a bit per slot, set
// for the records c found in use.
func (fs *FS) mftBitmap(c *fsck.Refs[*mftRecord]) *fsck.Bitmap {
	return &fsck.Bitmap{Kind: "mft-bitmap", Bits: int64(fs.recordCount()), BlockBits: bitsPerBlock,
		Stale: "record %d marked in use but free", Lost: "record %d in use but marked free",
		Read:  func(int64) ([]byte, error) { return fs.readBlockRetry(int64(fs.boot.MFTBmp), BTMFTBmp) },
		InUse: func(rec int64) bool { return c.Has(uint64(rec)) }}
}

// fixedBlock reports whether blk lies in the always-allocated regions:
// everything before the data area, and the logfile.
func (fs *FS) fixedBlock(blk int64) bool {
	return blk < int64(fs.boot.VolBmpStart+fs.boot.VolBmpLen) || blk >= int64(fs.boot.LogStart)
}

// volBitmap describes the volume bitmap: a bit per block, set for the
// fixed regions and every block s saw claimed.
func (fs *FS) volBitmap(s *fsck.Scan) *fsck.Bitmap {
	return &fsck.Bitmap{Name: "volbmp", Kind: "vol-bitmap", Bits: int64(fs.boot.BlockCount), BlockBits: bitsPerBlock,
		Stale: "block %d marked allocated but unreachable", Lost: "block %d in use but marked free",
		Read:  func(i int64) ([]byte, error) { return fs.readBlockRetry(int64(fs.boot.VolBmpStart)+i, BTVolBmp) },
		InUse: func(blk int64) bool { return s.Claimed(blk) || fs.fixedBlock(blk) }}
}

// ScanLocked implements fsck.Target: MFT census and directory scan, the
// MFT-order cross-check, the MFT bitmap in one serial stage, then the
// volume bitmap.
func (fs *FS) ScanLocked(s *fsck.Scan) error {
	c, err := fs.CensusLocked(s)
	if err != nil {
		return err
	}
	c.CrossCheck(nouns)

	mb := fs.mftBitmap(c)
	fs.tr.PhaseN("fsck:verify-mftbmp", trace.F("records", int(mb.Bits)))
	buf, err := mb.Read(0)
	if err != nil {
		return err
	}
	probs, _ := mb.Check(buf, 0, mb.Bits)
	s.Problems = append(s.Problems, probs...)
	s.Stats.Add("verify:mftbmp", 1, []int64{mb.Bits})

	_, err = fs.volBitmap(s).Verify(s)
	return err
}
