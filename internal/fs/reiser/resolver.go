package reiser

import (
	"encoding/binary"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
)

// image is the ReiserFS half of the gray-box type resolver: it walks the
// on-disk tree from the superblock's root pointer and classifies every
// reachable block — root, internal, leaves by their item mix, unformatted
// data by the indirect items pointing at them.
type image struct {
	sb superblock
}

// NewResolver returns a resolver bound to the raw disk beneath the file
// system under test.
func NewResolver(raw *disk.Disk) *faultinject.TypeMap {
	return faultinject.NewTypeMap(raw, &image{}, BTSuper, 0)
}

// Layout implements faultinject.Image: the one root is the tree root.
// The free count, the next object id, the tree height and the clean flag
// change under a mounted volume; the walk and Static use none of them.
func (r *image) Layout(m *faultinject.TypeMap, roots []int64) ([]int64, bool, bool) {
	buf, ok := m.Read(0, 0)
	if !ok {
		return roots, false, false
	}
	var sb superblock
	sb.unmarshal(buf)
	if sb.sane(m.NumBlocks()) != nil {
		return roots, false, false
	}
	changed := sb.geometry() != r.sb.geometry()
	r.sb = sb
	if sb.Root != 0 {
		roots = append(roots, int64(sb.Root))
	}
	return roots, changed, true
}

// geometry is the superblock less the fields the walk and Static ignore.
func (s superblock) geometry() superblock {
	s.FreeBlocks, s.NextOID, s.Height, s.Clean = 0, 0, 0, 0
	return s
}

// WalkRoot implements faultinject.Image.
func (r *image) WalkRoot(m *faultinject.TypeMap, root int64) { r.walk(m, root, 0) }

// walk classifies the subtree rooted at blk, reading each depth through
// its own scratch block so a node's view outlives its children's walks.
func (r *image) walk(m *faultinject.TypeMap, blk int64, depth int) {
	if depth > MaxLevel || blk <= 0 || blk >= int64(r.sb.BlockCount) {
		return
	}
	buf, ok := m.Read(depth, blk)
	if !ok {
		return
	}
	v, err := checkNode(buf)
	if err != nil {
		return
	}
	if v.isLeaf() {
		m.Set(blk, leafType(v))
		for i := 0; i < v.count(); i++ {
			if v.key(i).Type != itemIndirect {
				continue
			}
			body := v.body(i)
			for j := 0; j+8 <= len(body); j += 8 {
				p := int64(binary.LittleEndian.Uint64(body[j:]))
				if p > 0 && p < int64(r.sb.BlockCount) {
					m.Set(p, BTData)
				}
			}
		}
		return
	}
	if blk == int64(r.sb.Root) {
		m.Set(blk, BTRoot)
	} else {
		m.Set(blk, BTInternal)
	}
	for i := 0; i <= v.count(); i++ {
		r.walk(m, v.child(i), depth+1)
	}
}

// Static implements faultinject.Image.
func (r *image) Static(m *faultinject.TypeMap, blk int64) iron.BlockType {
	sb := &r.sb
	switch {
	case blk == 0:
		return BTSuper
	case blk >= int64(sb.BitmapStart) && blk < int64(sb.BitmapStart+sb.BitmapLen):
		return BTBitmap
	case blk >= int64(sb.JournalStart) && blk < int64(sb.JournalStart+sb.JournalLen):
		if blk == int64(sb.JournalStart) {
			return BTJHeader
		}
		if buf, ok := m.Peek(blk); ok {
			switch binary.LittleEndian.Uint32(buf[0:]) {
			case jMagicDesc:
				return BTJDesc
			case jMagicCommit:
				return BTJCommit
			}
		}
		return BTJData
	}
	// A single-leaf tree's root is classified as root, matching the
	// figure's separate "root" row.
	if blk == int64(sb.Root) {
		return BTRoot
	}
	return ""
}
