package reiser

import (
	"fmt"
	"sort"

	"ironfs/internal/disk"
	"ironfs/internal/fsck"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// Problem aliases the unified fsck vocabulary so existing call sites and
// the registry speak one type.
type Problem = fsck.Problem

// Check is the crash-exploration consistency oracle: mount the image on
// dev (running journal replay if the volume is dirty) and verify the
// balanced tree against the allocation bitmaps and the directory entries
// against the stat items. Damage the file system itself flagged (mount
// refusal, a tree sanity check panicking the volume) comes back as the
// file system's own error; damage it accepted silently comes back wrapped
// in vfs.ErrInconsistent.
func Check(dev disk.Device) error {
	rec := iron.NewRecorder()
	fs := New(dev, rec)
	if err := fs.Mount(); err != nil {
		return fmt.Errorf("reiser oracle mount: %w", err)
	}
	return fs.checkConsistency()
}

// checkConsistency is the oracle entry point: the serial scan, rendered
// as a single error for the crash explorer.
func (fs *FS) checkConsistency() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	probs, _, err := fs.checkLocked(1)
	if err != nil {
		return err
	}
	if len(probs) > 0 {
		return fmt.Errorf("%w: reiser: %d problems, first: %s",
			vfs.ErrInconsistent, len(probs), probs[0])
	}
	return nil
}

// CheckConsistency scans the whole volume and reports every cross-block
// inconsistency: bitmap bits that disagree with tree reachability, wild
// or doubly referenced block pointers, malformed items, dangling
// directory entries, orphan objects, and wrong file link counts. It does
// not modify anything. The superblock free counter is journaled with the
// tree, so — as the oracle always has — the scan flags structural damage
// only.
func (fs *FS) CheckConsistency() ([]Problem, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	probs, _, err := fs.checkLocked(1)
	return probs, err
}

// CheckParallel is CheckConsistency with the bitmap verify stage fanned
// out over `workers` goroutines. The problem list is identical to the
// serial scan's for any worker count; Stats reports per-phase, per-worker
// work for the fsck benchmark's virtual-CPU model.
func (fs *FS) CheckParallel(workers int) ([]Problem, fsck.Stats, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.checkLocked(workers)
}

// rsEntry is one directory entry seen during the census walk, retained in
// tree order so repair can remove dangling names deterministically.
type rsEntry struct {
	parent objRef
	name   string
	child  objRef
}

// rsCensus is everything one tree walk learns.
type rsCensus struct {
	used    map[int64]string // block -> first claimant
	stats   map[objRef]statData
	refs    map[objRef]int
	entries []rsEntry
	probs   []Problem
	units   int64
}

// census walks the whole tree, claiming blocks and collecting stat items
// and directory references. Walk-order problems (wild pointers, double
// refs, malformed items) accumulate in cs.probs; a read failure aborts
// the walk — detected damage, not silent inconsistency.
func (fs *FS) census() (*rsCensus, error) {
	cs := &rsCensus{
		used:  map[int64]string{},
		stats: map[objRef]statData{},
		refs:  map[objRef]int{},
	}
	badf := func(kind, format string, args ...interface{}) {
		cs.probs = append(cs.probs, Problem{Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}
	claim := func(blk int64, what string) {
		if blk <= 0 || blk >= int64(fs.sb.BlockCount) {
			badf("wild-pointer", "%s -> block %d", what, blk)
			return
		}
		if prev, ok := cs.used[blk]; ok {
			badf("double-ref", "block %d claimed by %s and %s", blk, prev, what)
			return
		}
		cs.used[blk] = what
	}

	visited := map[int64]bool{}
	var walk func(blk int64, level int) error
	walk = func(blk int64, level int) error {
		if level < 1 {
			badf("tree-shape", "tree deeper than superblock height at block %d", blk)
			return nil
		}
		if visited[blk] {
			return nil // cycle: already reported as a double-ref by claim
		}
		visited[blk] = true
		cs.units++
		claim(blk, fmt.Sprintf("tree node (level %d)", level))
		v, err := fs.readNode(blk, BTInternal)
		if err != nil {
			return err // sanity check fired: detected, not silent
		}
		n := v.decode()
		if n.Level != level {
			badf("tree-level", "block %d has level %d, expected %d", blk, n.Level, level)
		}
		if n.isLeaf() {
			for _, it := range n.Items {
				r := objRef{DirID: it.K.DirID, ObjID: it.K.ObjID}
				switch it.K.Type {
				case itemStat:
					var sd statData
					if err := sd.unmarshal(it.Body); err != nil {
						badf("stat-item", "stat item for (%d,%d): %v", r.DirID, r.ObjID, err)
						continue
					}
					cs.stats[r] = sd
				case itemDir:
					ents, ok := parseEnts(it.Body)
					if !ok {
						badf("dir-item", "malformed dir item for (%d,%d)", r.DirID, r.ObjID)
					}
					for _, e := range ents {
						cs.refs[e.Child]++
						cs.entries = append(cs.entries, rsEntry{parent: r, name: e.Name, child: e.Child})
					}
				case itemIndirect:
					for i, p := range ptrsOf(it.Body) {
						if p != 0 {
							claim(p, fmt.Sprintf("(%d,%d) indirect[%d]", r.DirID, r.ObjID, i))
						}
					}
				case itemDirect:
					// tail: inline, no blocks
				default:
					badf("item-type", "unknown item type %d in block %d", it.K.Type, blk)
				}
			}
			return nil
		}
		for _, c := range n.Children {
			if err := walk(c, level-1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(int64(fs.sb.Root), int(fs.sb.Height)); err != nil {
		return nil, err
	}
	return cs, nil
}

// sortObjRefs orders object references by (DirID, ObjID) — the key order
// the tree itself uses — so cross-check problems come out in the same
// order regardless of Go's map iteration.
func sortObjRefs(rs []objRef) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].DirID != rs[j].DirID {
			return rs[i].DirID < rs[j].DirID
		}
		return rs[i].ObjID < rs[j].ObjID
	})
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

// rsBmCheck is the result of verifying one bitmap block.
type rsBmCheck struct {
	probs []Problem
	units int64
	err   error
}

// checkBitmapChunk verifies one ChunkBits-wide span of allocation-bitmap
// bits against the census's reachability map. It only reads, so chunks
// verify concurrently — and being finer than bitmap blocks (intra-block
// sharding), they parallelize even when the whole bitmap is one block.
func (fs *FS) checkBitmapChunk(c int, used map[int64]string) rsBmCheck {
	var r rsBmCheck
	lo, hi := fsck.ChunkRange(c, int64(fs.sb.BlockCount))
	buf, err := fs.readMetaBlock(int64(fs.sb.BitmapStart)+lo/bitsPerBlock, BTBitmap)
	if err != nil {
		r.err = err
		return r
	}
	for blk := lo; blk < hi; blk++ {
		bit := blk % bitsPerBlock
		r.units++
		marked := buf[bit/8]&(1<<uint(bit%8)) != 0
		_, reachable := used[blk]
		inUse := reachable || fs.fixedBlock(blk)
		switch {
		case marked && !inUse:
			r.probs = append(r.probs, Problem{Kind: "bitmap",
				Detail: fmt.Sprintf("block %d marked allocated but unreachable", blk)})
		case !marked && inUse:
			r.probs = append(r.probs, Problem{Kind: "bitmap",
				Detail: fmt.Sprintf("block %d in use but marked free", blk)})
		}
	}
	return r
}

// checkLocked is the full scan: serial census walk, key-ordered
// cross-check of directory entries against stat items, then the bitmap
// verify fanned out one task per bitmap block.
func (fs *FS) checkLocked(workers int) ([]Problem, fsck.Stats, error) {
	var stats fsck.Stats
	if !fs.mounted {
		return nil, stats, vfs.ErrNotMounted
	}
	fs.tr.Phase("fsck:census", fmt.Sprintf("workers=%d", workers))
	cs, err := fs.census()
	if err != nil {
		return nil, stats, err
	}
	stats.Add("census", 1, []int64{cs.units})
	probs := cs.probs
	add := func(kind, format string, args ...interface{}) {
		probs = append(probs, Problem{Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}

	// Directory entries vs stat items, both directions, in key order.
	var rs []objRef
	for r := range cs.refs {
		rs = append(rs, r)
	}
	sortObjRefs(rs)
	for _, r := range rs {
		if _, ok := cs.stats[r]; !ok {
			add("dangling-entry", "(%d,%d) referenced %d time(s) but has no stat item",
				r.DirID, r.ObjID, cs.refs[r])
		}
	}
	root := rootRef()
	rs = rs[:0]
	for r := range cs.stats {
		rs = append(rs, r)
	}
	sortObjRefs(rs)
	for _, r := range rs {
		if r == root {
			continue
		}
		sd := cs.stats[r]
		n := cs.refs[r]
		if n == 0 {
			add("orphan-object", "(%d,%d): stat item but no directory entry", r.DirID, r.ObjID)
			continue
		}
		// Directory link conventions vary; enforce equality for files only.
		if !sd.isDir() && int(sd.Links) != n {
			add("link-count", "(%d,%d) says %d, directory tree says %d",
				r.DirID, r.ObjID, sd.Links, n)
		}
	}

	// Allocation bitmaps vs reachability, one task per bit chunk.
	nbm := fsck.NumChunks(int64(fs.sb.BlockCount))
	fs.tr.Phase("fsck:verify-bitmap", fmt.Sprintf("chunks=%d workers=%d", nbm, workers))
	res := fsck.Map(workers, nbm, func(i int) rsBmCheck {
		return fs.checkBitmapChunk(i, cs.used)
	})
	units := make([]int64, nbm)
	for i, r := range res {
		units[i] = r.units
		probs = append(probs, r.probs...)
		if r.err != nil {
			stats.Add("verify:bitmap", workers, units)
			return probs, stats, r.err
		}
	}
	stats.Add("verify:bitmap", workers, units)
	return probs, stats, nil
}
