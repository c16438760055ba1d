package reiser

import (
	"fmt"

	"ironfs/internal/fsck"
	"ironfs/internal/trace"
)

// The consistency scan (the fsck.Target and fsck.Fixer enumerators): the
// balanced tree against the allocation bitmaps, and the directory entries
// against the stat items. It reports bitmap bits that disagree with tree
// reachability, wild or doubly referenced block pointers, malformed items,
// dangling directory entries, orphan objects, wrong link counts, and a
// superblock free counter that disagrees with the bitmap.

// MountedLocked implements fsck.Target.
func (fs *FS) MountedLocked() bool { return fs.mounted }

// id packs the reference into a census ID; ID order is the tree's key
// order.
func (r objRef) id() uint64 { return uint64(r.DirID)<<32 | uint64(r.ObjID) }

// refOf unpacks a census ID.
func refOf(id uint64) objRef { return objRef{DirID: uint32(id >> 32), ObjID: uint32(id)} }

var nouns = fsck.Nouns{
	Object:     func(id uint64) string { return fmt.Sprintf("(%d,%d)", refOf(id).DirID, refOf(id).ObjID) },
	OrphanKind: "orphan-object", Orphan: ": stat item but no directory entry",
}

// census walks the whole tree, claiming blocks and collecting stat items
// and directory entries, and returns the number of nodes visited.
// Walk-order problems (wild pointers, double refs, malformed items)
// accumulate in s; a read failure aborts the walk — detected damage, not
// silent inconsistency.
func (fs *FS) census(s *fsck.Scan) (*fsck.Refs[statData], int64, error) {
	c := fsck.NewRefs[statData](s)
	s.Blocks = int64(fs.sb.BlockCount)
	var nodes int64
	visited := map[int64]bool{}
	var walk func(blk int64, level int) error
	walk = func(blk int64, level int) error {
		if level < 1 {
			c.Problemf("tree-shape", "tree deeper than superblock height at block %d", blk)
			return nil
		}
		if visited[blk] {
			return nil // cycle: already reported as a double-ref by Claim
		}
		visited[blk] = true
		nodes++
		c.Claim(blk, fmt.Sprintf("tree node (level %d)", level))
		v, err := fs.readNode(blk, BTInternal)
		if err != nil {
			return err // sanity check fired: detected, not silent
		}
		if v.level() != level {
			c.Problemf("tree-level", "block %d has level %d, expected %d", blk, v.level(), level)
		}
		if !v.isLeaf() {
			for i := 0; i <= v.count(); i++ {
				if err := walk(v.child(i), level-1); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < v.count(); i++ {
			k, body := v.key(i), v.body(i)
			r := k.obj()
			switch k.Type {
			case itemStat:
				var sd statData
				if err := sd.unmarshal(body); err != nil {
					c.Problemf("stat-item", "stat item for (%d,%d): %v", r.DirID, r.ObjID, err)
					continue
				}
				c.Add(fsck.Object[statData]{ID: r.id(), Links: int(sd.Links), Dir: sd.IsDir(),
					Root: r == rootRef(), Node: sd})
			case itemDir:
				ents, ok := parseEnts(body)
				if !ok {
					c.Problemf("dir-item", "malformed dir item for (%d,%d)", r.DirID, r.ObjID)
				}
				for _, e := range ents {
					c.Entry(r.id(), e.Name, e.Child.id())
				}
			case itemIndirect:
				for j, p := range ptrsOf(body) {
					if p != 0 {
						c.Claim(p, fmt.Sprintf("(%d,%d) indirect[%d]", r.DirID, r.ObjID, j))
					}
				}
			case itemDirect:
				// tail: inline, no blocks
			default:
				c.Problemf("item-type", "unknown item type %d in block %d", k.Type, blk)
			}
		}
		return nil
	}
	if err := walk(int64(fs.sb.Root), int(fs.sb.Height)); err != nil {
		return nil, nodes, err
	}
	return c, nodes, nil
}

// CensusLocked implements fsck.Fixer.
func (fs *FS) CensusLocked(s *fsck.Scan) (*fsck.Refs[statData], error) {
	c, _, err := fs.census(s)
	return c, err
}

// fixedBlock reports whether blk lies in the always-allocated regions:
// the superblock, the bitmap blocks, and the journal.
func (fs *FS) fixedBlock(blk int64) bool {
	if blk == 0 {
		return true
	}
	if blk >= int64(fs.sb.BitmapStart) && blk < int64(fs.sb.BitmapStart+fs.sb.BitmapLen) {
		return true
	}
	if blk >= int64(fs.sb.JournalStart) && blk < int64(fs.sb.JournalStart+fs.sb.JournalLen) {
		return true
	}
	return false
}

// bitmap describes the allocation bitmap: a bit per block, set for the
// fixed regions and every block s saw claimed.
func (fs *FS) bitmap(s *fsck.Scan) *fsck.Bitmap {
	return &fsck.Bitmap{Name: "bitmap", Kind: "bitmap", Bits: int64(fs.sb.BlockCount), BlockBits: bitsPerBlock,
		Stale: "block %d marked allocated but unreachable", Lost: "block %d in use but marked free",
		Read:  func(i int64) ([]byte, error) { return fs.readMetaBlock(int64(fs.sb.BitmapStart)+i, BTBitmap) },
		InUse: func(blk int64) bool { return s.Claimed(blk) || fs.fixedBlock(blk) }}
}

// ScanLocked implements fsck.Target: the serial census walk, the
// key-ordered cross-check of directory entries against stat items in both
// directions, then the allocation bitmap against the superblock's
// free-block count.
func (fs *FS) ScanLocked(s *fsck.Scan) error {
	fs.tr.PhaseN("fsck:census", trace.F("workers", s.Workers))
	c, nodes, err := fs.census(s)
	if err != nil {
		return err
	}
	s.Stats.Add("census", 1, []int64{nodes})
	for _, id := range c.Dangling() {
		c.Problemf("dangling-entry", "%s referenced %d time(s) but has no stat item", nouns.Object(id), c.Count(id))
	}
	c.CrossCheck(nouns)
	free, err := fs.bitmap(s).Verify(s)
	if err != nil {
		return err
	}
	if free != fs.sb.FreeBlocks {
		s.Problemf("free-blocks", "superblock says %d free, bitmap says %d", fs.sb.FreeBlocks, free)
	}
	return nil
}
