package ext3

import (
	"encoding/binary"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
)

// image is the ext3/ixt3 half of the gray-box type resolver: the inode walk
// and the static-region switch that classify raw block numbers into the
// Table 4 structure types. The shared faultinject.TypeMap owns caching and
// reads the image through the disk's raw debug port.
type image struct {
	lay layout
}

// NewResolver returns a resolver bound to the raw disk under the file
// system being fingerprinted.
func NewResolver(raw *disk.Disk) *faultinject.TypeMap {
	return faultinject.NewTypeMap(raw, &image{}, BTSuper, sbBlock)
}

// Layout implements faultinject.Image: the roots are the inode-table
// blocks, group by group. Only the clean flag, the mount count and the
// replica log's head change under a mounted volume; none of them moves a
// region.
func (r *image) Layout(m *faultinject.TypeMap, roots []int64) ([]int64, bool, bool) {
	buf, ok := m.Read(0, sbBlock)
	if !ok {
		return roots, false, false
	}
	var sb superblock
	sb.unmarshal(buf)
	if sb.sane(m.NumBlocks()) != nil {
		return roots, false, false
	}
	changed := sb.geometry() != r.lay.sb.geometry()
	r.lay = layout{sb: sb}
	for g := uint32(0); g < sb.GroupCount; g++ {
		itStart := r.lay.groupStart(g) + groupMetaBlks
		for t := int64(0); t < int64(sb.ITableBlocks); t++ {
			roots = append(roots, itStart+t)
		}
	}
	return roots, changed, true
}

// geometry is the superblock less the fields a mounted volume rewrites.
func (s superblock) geometry() superblock {
	s.Clean, s.Mounts, s.ReplicaNext = 0, 0, 0
	return s
}

// WalkRoot implements faultinject.Image: it walks every allocated inode of
// one inode-table block to classify dynamically allocated blocks
// (directory, indirect, data, parity).
func (r *image) WalkRoot(m *faultinject.TypeMap, root int64) {
	it, ok := m.Read(0, root)
	if !ok {
		return
	}
	for s := 0; s < InodesPerBlock; s++ {
		var in inode
		in.unmarshal(it[s*InodeSize : (s+1)*InodeSize])
		if !in.Allocated() {
			continue
		}
		r.walkInode(m, &in)
	}
}

// walkInode classifies the blocks reachable from one inode.
func (r *image) walkInode(m *faultinject.TypeMap, in *inode) {
	leaf := BTData
	if in.IsDir() {
		leaf = BTDir
	}
	if in.Parity != 0 && r.inBounds(int64(in.Parity)) {
		m.Set(int64(in.Parity), BTParity)
	}
	for _, p := range in.Direct {
		if p != 0 && r.inBounds(int64(p)) {
			m.Set(int64(p), leaf)
		}
	}
	r.walkTree(m, int64(in.Ind), 1, leaf)
	r.walkTree(m, int64(in.DInd), 2, leaf)
	r.walkTree(m, int64(in.TInd), 3, leaf)
}

// walkTree classifies an indirect tree: interior blocks are "indirect",
// leaves take the inode's leaf type. The inode-table block stays live at
// scratch level 0, so a block depth levels above the leaves reads at depth.
func (r *image) walkTree(m *faultinject.TypeMap, blk int64, depth int, leaf iron.BlockType) {
	if blk == 0 || !r.inBounds(blk) {
		return
	}
	m.Set(blk, BTIndirect)
	buf, ok := m.Read(depth, blk)
	if !ok {
		return
	}
	for i := int64(0); i < PtrsPerBlock; i++ {
		p := int64(binary.LittleEndian.Uint64(buf[i*8:]))
		if p == 0 || !r.inBounds(p) {
			continue
		}
		if depth == 1 {
			m.Set(p, leaf)
		} else {
			r.walkTree(m, p, depth-1, leaf)
		}
	}
}

// inBounds keeps corrupt pointers from classifying foreign regions.
func (r *image) inBounds(blk int64) bool {
	sb := &r.lay.sb
	if blk < firstGroupBlk {
		return false
	}
	end := firstGroupBlk + int64(sb.GroupCount)*int64(sb.BlocksPerGroup)
	return blk < end
}

// Static implements faultinject.Image.
func (r *image) Static(m *faultinject.TypeMap, blk int64) iron.BlockType {
	sb := &r.lay.sb
	switch {
	case blk == sbBlock:
		return BTSuper
	case blk == gdtBlock:
		return BTGDesc
	}
	// Tail regions.
	if sb.JournalLen != 0 && blk >= int64(sb.JournalStart) && blk < int64(sb.JournalStart+sb.JournalLen) {
		if blk == int64(sb.JournalStart) {
			return BTJSuper
		}
		if buf, ok := m.Peek(blk); ok {
			switch binary.LittleEndian.Uint32(buf[0:]) {
			case jMagicDesc:
				return BTJDesc
			case jMagicCommit:
				return BTJCommit
			case jMagicRevoke:
				return BTJRevoke
			}
		}
		return BTJData
	}
	if sb.CksumLen != 0 && blk >= int64(sb.CksumStart) && blk < int64(sb.CksumStart+sb.CksumLen) {
		return BTCksum
	}
	if sb.RMapLen != 0 && blk >= int64(sb.RMapStart) && blk < int64(sb.RMapStart+sb.RMapLen) {
		return BTRMap
	}
	if sb.ReplicaLen != 0 && blk >= int64(sb.ReplicaStart) && blk < int64(sb.ReplicaStart+sb.ReplicaLen) {
		return BTReplica
	}
	// Group-area statics.
	g := r.lay.groupOf(blk)
	if g < 0 {
		return iron.Unclassified
	}
	within := blk - r.lay.groupStart(uint32(g))
	switch {
	case within == 0:
		return BTSuper // the per-group superblock replica
	case within == 1:
		return BTBitmap
	case within == 2:
		return BTIBitmap
	case within < groupMetaBlks+int64(sb.ITableBlocks):
		return BTInode
	}
	return ""
}
