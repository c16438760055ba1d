package jfs

import (
	"encoding/binary"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
)

// image is the JFS half of the gray-box type resolver.
type image struct {
	sb superblock
}

// NewResolver returns a resolver bound to the raw disk beneath the file
// system under test.
func NewResolver(raw *disk.Disk) *faultinject.TypeMap {
	return faultinject.NewTypeMap(raw, &image{}, BTSuper, sbPrimary, sbSecondary)
}

// Layout implements faultinject.Image: the roots are the inode-table
// blocks. Only the clean flag changes under a mounted volume.
func (r *image) Layout(m *faultinject.TypeMap, roots []int64) ([]int64, bool, bool) {
	buf, ok := m.Read(0, sbPrimary)
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
	for t := int64(0); t < int64(sb.ITabLen); t++ {
		roots = append(roots, int64(sb.ITabStart)+t)
	}
	return roots, changed, true
}

// geometry is the superblock less the clean flag.
func (s superblock) geometry() superblock {
	s.Clean = 0
	return s
}

// WalkRoot implements faultinject.Image: it walks every allocated inode of
// one inode-table block, classifying dir/data/internal blocks.
func (r *image) WalkRoot(m *faultinject.TypeMap, root int64) {
	it, ok := m.Read(0, root)
	if !ok {
		return
	}
	for s := 0; s < InodesPB; s++ {
		var in inode
		in.unmarshal(it[s*InodeSize : (s+1)*InodeSize])
		if !in.Allocated() {
			continue
		}
		leaf := BTData
		if in.IsDir() {
			leaf = BTDir
		}
		for _, p := range in.Direct {
			if p != 0 && int64(p) < int64(r.sb.BlockCount) {
				m.Set(int64(p), leaf)
			}
		}
		for _, ip := range in.Intern {
			if ip == 0 || int64(ip) >= int64(r.sb.BlockCount) {
				continue
			}
			m.Set(int64(ip), BTInternal)
			ibuf, ok := m.Read(1, int64(ip))
			if !ok {
				continue
			}
			for i := 0; i < ptrsPerInt; i++ {
				p := int64(binary.LittleEndian.Uint64(ibuf[8+i*8:]))
				if p > 0 && p < int64(r.sb.BlockCount) {
					m.Set(p, leaf)
				}
			}
		}
	}
}

// Static implements faultinject.Image.
func (r *image) Static(_ *faultinject.TypeMap, blk int64) iron.BlockType {
	sb := &r.sb
	switch {
	case blk == sbPrimary || blk == sbSecondary:
		return BTSuper
	case blk == aggrPrimary || blk == aggrSecondary:
		return BTAggr
	case blk == bmapDescBlk:
		return BTBMapDesc
	case blk >= int64(sb.BMapStart) && blk < int64(sb.BMapStart+sb.BMapLen):
		return BTBMap
	case blk == int64(sb.IMapCtl):
		return BTIMapCtl
	case blk >= int64(sb.IMapStart) && blk < int64(sb.IMapStart+sb.IMapLen):
		return BTIMap
	case blk >= int64(sb.ITabStart) && blk < int64(sb.ITabStart+sb.ITabLen):
		return BTInode
	case blk >= int64(sb.LogStart) && blk < int64(sb.LogStart+sb.LogLen):
		if blk == int64(sb.LogStart) {
			return BTJSuper
		}
		return BTJData
	}
	return ""
}
