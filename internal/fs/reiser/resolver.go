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

// Walk implements faultinject.Image.
func (r *image) Walk(m *faultinject.TypeMap) bool {
	buf, ok := m.Read(0, 0)
	if !ok {
		return false
	}
	r.sb.unmarshal(buf)
	if r.sb.sane(m.NumBlocks()) != nil {
		return false
	}
	if r.sb.Root != 0 {
		r.walk(m, int64(r.sb.Root), 0)
	}
	return true
}

// walk classifies the subtree rooted at blk. unmarshalNode copies what it
// keeps, so every depth reads through the same scratch block.
func (r *image) walk(m *faultinject.TypeMap, blk int64, depth int) {
	if depth > MaxLevel || blk <= 0 || blk >= int64(r.sb.BlockCount) {
		return
	}
	buf, ok := m.Read(0, blk)
	if !ok {
		return
	}
	n, err := unmarshalNode(buf)
	if err != nil {
		return
	}
	if n.isLeaf() {
		m.Set(blk, leafType(n))
		for _, it := range n.Items {
			if it.K.Type != itemIndirect {
				continue
			}
			for i := 0; i+8 <= len(it.Body); i += 8 {
				p := int64(binary.LittleEndian.Uint64(it.Body[i:]))
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
	for _, c := range n.Children {
		r.walk(m, c, depth+1)
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
