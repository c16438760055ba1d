package reiser

import (
	"fmt"

	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// This file implements the balanced-tree engine: search, item insert,
// item delete (with node removal), and bounded range scans. Insertion
// splits full nodes and grows the tree upward; deletion removes empty
// nodes and collapses a single-child root, but does not rebalance
// under-full siblings (a documented simplification — correctness is
// unaffected, occupancy can be lower than real ReiserFS).

// pathElem is one step of a root-to-leaf descent. search fills in v; a
// mutator materialises n before its first staging call kills the views.
type pathElem struct {
	blk int64
	v   nodeView
	n   *node
	idx int // child index taken (internal) or item position (leaf)
}

// materialise decodes every node of path.
func materialise(path []pathElem) {
	for i := range path {
		path[i].n = path[i].v.decode()
	}
}

// errTreeCorrupt marks a sanity-check failure inside the tree.
type errTreeCorrupt struct{ msg string }

func (e errTreeCorrupt) Error() string { return "reiser: tree corrupt: " + e.msg }

// readNode reads and checks a tree node with full policy: error-code
// checking on the read and ReiserFS's block-header sanity checks on the
// contents. Per §5.2, a failed sanity check on a tree block makes ReiserFS
// panic rather than return an error (one of its documented excesses).
func (fs *FS) readNode(blk int64, bt iron.BlockType) (nodeView, error) {
	buf, err := fs.readMetaBlock(blk, bt)
	if err != nil {
		return nil, err
	}
	v, perr := checkNode(buf)
	if perr != nil {
		fs.rec.Detect(iron.DSanity, bt, perr.Error())
		fs.panicFS(bt, "sanity check failed: "+perr.Error())
		return nil, vfs.ErrPanicked
	}
	return v, nil
}

// rootOrInternal attributes a node being read on the way down.
func (fs *FS) rootOrInternal(blk int64) iron.BlockType {
	if blk == int64(fs.sb.Root) {
		return BTRoot
	}
	return BTInternal
}

// childOf returns child i of the internal node v (read as bt), refusing a
// pointer outside the volume.
func (fs *FS) childOf(v nodeView, i int, bt iron.BlockType) (int64, error) {
	c := v.child(i)
	if c <= 0 || c >= int64(fs.sb.BlockCount) {
		fs.rec.Detect(iron.DSanity, bt, "child pointer out of range")
		fs.panicFS(bt, "wild child pointer")
		return 0, vfs.ErrPanicked
	}
	return c, nil
}

// nodeType classifies a tree block for event attribution: the root, an
// internal node, or a leaf classified by its most prominent item type.
func (fs *FS) nodeType(blk int64, n *node) iron.BlockType {
	if blk == int64(fs.sb.Root) {
		return BTRoot
	}
	if n == nil || !n.isLeaf() {
		return BTInternal
	}
	return leafType(n)
}

// leafType classifies a leaf by priority: directory items, then indirect,
// then stat (matching how the fingerprinting rows are populated).
func leafType(n *node) iron.BlockType {
	hasStat, hasInd := false, false
	for _, it := range n.Items {
		switch it.K.Type {
		case itemDir:
			return BTDirItem
		case itemIndirect:
			hasInd = true
		case itemStat:
			hasStat = true
		}
	}
	if hasInd {
		return BTIndirect
	}
	if hasStat {
		return BTStat
	}
	return BTData
}

// writeNode serializes a node into the running transaction and the cache.
func (fs *FS) writeNode(blk int64, n *node) {
	fs.tx.StageMeta(blk, marshalNode(n), fs.nodeType(blk, n))
}

// search descends from the root to the leaf that would contain k,
// appending every node visited to path (pass a stack buffer to descend
// without allocating). found reports an exact match and path[len-1].idx is
// the item position (or insertion point).
func (fs *FS) search(k key, path []pathElem) (_ []pathElem, found bool, err error) {
	if fs.sb.Root == 0 {
		return nil, false, nil
	}
	blk := int64(fs.sb.Root)
	for depth := 0; ; depth++ {
		if depth > MaxLevel {
			fs.rec.Detect(iron.DSanity, BTInternal, "tree deeper than maximum height")
			fs.panicFS(BTInternal, "tree too deep")
			return nil, false, vfs.ErrPanicked
		}
		bt := fs.rootOrInternal(blk)
		v, err := fs.readNode(blk, bt)
		if err != nil {
			return nil, false, err
		}
		if v.isLeaf() {
			idx, ok := leafFind(v, k)
			return append(path, pathElem{blk: blk, v: v, idx: idx}), ok, nil
		}
		// children[i] holds keys < Keys[i]; Keys[i] is the first key of
		// children[i+1].
		ci := 0
		for ci < v.count() && v.key(ci).cmp(k) <= 0 {
			ci++
		}
		path = append(path, pathElem{blk: blk, v: v, idx: ci})
		if blk, err = fs.childOf(v, ci, bt); err != nil {
			return nil, false, err
		}
	}
}

// leafFind locates k in a leaf, returning (position, exact).
func leafFind(v nodeView, k key) (int, bool) {
	lo, hi := 0, v.count()
	for lo < hi {
		mid := (lo + hi) / 2
		switch c := v.key(mid).cmp(k); {
		case c == 0:
			return mid, true
		case c < 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// findItem returns the item with exactly key k. Its body is a view of the
// cached leaf: copy it before the next staging call if it must outlive one.
func (fs *FS) findItem(k key) (item, error) {
	var buf [MaxLevel + 1]pathElem
	path, found, err := fs.search(k, buf[:0])
	if err != nil {
		return item{}, err
	}
	if !found {
		return item{}, vfs.ErrNotExist
	}
	leaf := path[len(path)-1]
	return item{K: k, Body: leaf.v.body(leaf.idx)}, nil
}

// insertItem places it into the tree, splitting nodes as needed.
func (fs *FS) insertItem(it item) error {
	if itemHdrLen+len(it.Body) > BlockSize-nodeHdrLen {
		return fmt.Errorf("reiser: item too large (%d bytes)", len(it.Body))
	}
	fs.tx.Touch(it.K.obj())
	if fs.sb.Root == 0 {
		blk, err := fs.allocBlock(BTRoot)
		if err != nil {
			return err
		}
		root := &node{Level: 1, Items: []item{it}}
		fs.writeNode(blk, root)
		fs.sb.Root = uint64(blk)
		fs.sb.Height = 1
		fs.sbDirty = true
		return nil
	}
	path, found, err := fs.search(it.K, nil)
	if err != nil {
		return err
	}
	if found {
		return vfs.ErrExist
	}
	leaf := path[len(path)-1]
	n := leaf.v.decode()
	n.Items = append(n.Items, item{})
	copy(n.Items[leaf.idx+1:], n.Items[leaf.idx:])
	n.Items[leaf.idx] = it

	if leafSpace(n.Items) <= BlockSize {
		fs.writeNode(leaf.blk, n)
		return nil
	}
	// Split the leaf: right half moves to a new block; the separator (the
	// right node's first key) climbs into the parent.
	materialise(path[:len(path)-1])
	mid := len(n.Items) / 2
	right := &node{Level: 1, Items: append([]item{}, n.Items[mid:]...)}
	n.Items = n.Items[:mid]
	rblk, err := fs.allocBlock(BTInternal)
	if err != nil {
		return err
	}
	fs.writeNode(leaf.blk, n)
	fs.writeNode(rblk, right)
	return fs.insertSeparator(path[:len(path)-1], right.Items[0].K, rblk)
}

// insertSeparator inserts (sep, rightChild) into the parent at the end of
// path, splitting upward as required; an empty path grows a new root.
func (fs *FS) insertSeparator(path []pathElem, sep key, rightChild int64) error {
	if len(path) == 0 {
		blk, err := fs.allocBlock(BTRoot)
		if err != nil {
			return err
		}
		oldRoot := int64(fs.sb.Root)
		root := &node{
			Level:    int(fs.sb.Height) + 1,
			Keys:     []key{sep},
			Children: []int64{oldRoot, rightChild},
		}
		fs.sb.Root = uint64(blk)
		fs.sb.Height++
		fs.sbDirty = true
		fs.writeNode(blk, root)
		return nil
	}
	p := path[len(path)-1]
	n, idx := p.n, p.idx
	n.Keys = append(n.Keys, key{})
	copy(n.Keys[idx+1:], n.Keys[idx:])
	n.Keys[idx] = sep
	n.Children = append(n.Children, 0)
	copy(n.Children[idx+2:], n.Children[idx+1:])
	n.Children[idx+1] = rightChild

	if nodeHdrLen+len(n.Keys)*itemHdrLen+len(n.Children)*8 <= BlockSize {
		fs.writeNode(p.blk, n)
		return nil
	}
	// Split the internal node; the middle key moves up.
	mid := len(n.Keys) / 2
	upKey := n.Keys[mid]
	right := &node{
		Level:    n.Level,
		Keys:     append([]key{}, n.Keys[mid+1:]...),
		Children: append([]int64{}, n.Children[mid+1:]...),
	}
	n.Keys = n.Keys[:mid]
	n.Children = n.Children[:mid+1]
	rblk, err := fs.allocBlock(BTInternal)
	if err != nil {
		return err
	}
	fs.writeNode(p.blk, n)
	fs.writeNode(rblk, right)
	return fs.insertSeparator(path[:len(path)-1], upKey, rblk)
}

// replaceItem updates the body of an existing item in place when it fits,
// falling back to delete+insert when the leaf would overflow.
func (fs *FS) replaceItem(k key, body []byte) error {
	fs.tx.Touch(k.obj())
	path, found, err := fs.search(k, nil)
	if err != nil {
		return err
	}
	if !found {
		return vfs.ErrNotExist
	}
	leaf := path[len(path)-1]
	n := leaf.v.decode()
	n.Items[leaf.idx].Body = body
	if leafSpace(n.Items) <= BlockSize {
		fs.writeNode(leaf.blk, n)
		return nil
	}
	if err := fs.deleteItem(k); err != nil {
		return err
	}
	return fs.insertItem(item{K: k, Body: body})
}

// deleteItem removes the item with key k; empty nodes are unlinked from
// their parents and freed, and a single-child root collapses.
func (fs *FS) deleteItem(k key) error {
	fs.tx.Touch(k.obj())
	path, found, err := fs.search(k, nil)
	if err != nil {
		return err
	}
	if !found {
		return vfs.ErrNotExist
	}
	leaf := path[len(path)-1]
	n := leaf.v.decode()
	n.Items = append(n.Items[:leaf.idx], n.Items[leaf.idx+1:]...)
	if len(n.Items) > 0 {
		fs.writeNode(leaf.blk, n)
		return nil
	}
	materialise(path[:len(path)-1])
	fs.writeNode(leaf.blk, n)
	return fs.removeChild(path[:len(path)-1], leaf.blk)
}

// removeChild unlinks an empty child block from its parent, cascading.
func (fs *FS) removeChild(path []pathElem, child int64) error {
	if err := fs.freeBlock(child); err != nil {
		return err
	}
	if len(path) == 0 {
		fs.sb.Root = 0
		fs.sb.Height = 0
		fs.sbDirty = true
		return nil
	}
	p := path[len(path)-1]
	n := p.n
	ci := -1
	for i, c := range n.Children {
		if c == child {
			ci = i
			break
		}
	}
	if ci < 0 {
		fs.rec.Detect(iron.DSanity, BTInternal, "child not found in parent")
		fs.panicFS(BTInternal, "parent/child disagreement")
		return vfs.ErrPanicked
	}
	n.Children = append(n.Children[:ci], n.Children[ci+1:]...)
	// Child ci spans [Keys[ci-1], Keys[ci]); removing it drops its lower
	// separator (or Keys[0] when the first child goes).
	ki := ci - 1
	if ki < 0 {
		ki = 0
	}
	if ki < len(n.Keys) {
		n.Keys = append(n.Keys[:ki], n.Keys[ki+1:]...)
	}
	if len(n.Children) == 0 {
		return fs.removeChild(path[:len(path)-1], p.blk)
	}
	if len(n.Children) == 1 && p.blk == int64(fs.sb.Root) {
		// Collapse the root.
		only := n.Children[0]
		if err := fs.freeBlock(p.blk); err != nil {
			return err
		}
		fs.sb.Root = uint64(only)
		fs.sb.Height--
		fs.sbDirty = true
		return nil
	}
	fs.writeNode(p.blk, n)
	return nil
}

// rangeItems invokes fn on every item with lo <= key <= hi, in key order.
// Bodies are views: fn copies what it keeps past the next staging call.
func (fs *FS) rangeItems(lo, hi key, fn func(item) error) error {
	if fs.sb.Root == 0 {
		return nil
	}
	return fs.rangeWalk(int64(fs.sb.Root), lo, hi, fn)
}

func (fs *FS) rangeWalk(blk int64, lo, hi key, fn func(item) error) error {
	bt := fs.rootOrInternal(blk)
	v, err := fs.readNode(blk, bt)
	if err != nil {
		return err
	}
	if v.isLeaf() {
		for i := 0; i < v.count(); i++ {
			k := v.key(i)
			if k.cmp(lo) < 0 {
				continue
			}
			if k.cmp(hi) > 0 {
				break
			}
			if err := fn(item{K: k, Body: v.body(i)}); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i <= v.count(); i++ {
		// Child i spans [key(i-1), key(i)); skip subtrees outside the range.
		if i > 0 && v.key(i-1).cmp(hi) > 0 {
			break
		}
		if i < v.count() && v.key(i).cmp(lo) < 0 {
			continue
		}
		c, err := fs.childOf(v, i, bt)
		if err != nil {
			return err
		}
		if err := fs.rangeWalk(c, lo, hi, fn); err != nil {
			return err
		}
	}
	return nil
}
