package ntfs

import (
	"encoding/binary"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
)

// image is the NTFS half of the gray-box type resolver. The paper's NTFS
// analysis is partial (closed-source structures); so is this resolver's
// fidelity — it classifies the Table 4 types the paper lists.
type image struct {
	boot boot
}

// NewResolver returns a resolver bound to the raw disk beneath the volume.
func NewResolver(raw *disk.Disk) *faultinject.TypeMap {
	return faultinject.NewTypeMap(raw, &image{}, BTBoot, 0)
}

// Layout implements faultinject.Image: the roots are the MFT blocks. Only
// the clean flag changes under a mounted volume.
func (r *image) Layout(m *faultinject.TypeMap, roots []int64) ([]int64, bool, bool) {
	buf, ok := m.Read(0, 0)
	if !ok {
		return roots, false, false
	}
	var b boot
	b.unmarshal(buf)
	if b.sane(m.NumBlocks()) != nil {
		return roots, false, false
	}
	changed := b.geometry() != r.boot.geometry()
	r.boot = b
	for t := int64(0); t < int64(b.MFTLen); t++ {
		roots = append(roots, int64(b.MFTStart)+t)
	}
	return roots, changed, true
}

// geometry is the boot file less the clean flag.
func (b boot) geometry() boot {
	b.Clean = 0
	return b
}

// WalkRoot implements faultinject.Image: it walks every allocated record
// of one MFT block.
func (r *image) WalkRoot(m *faultinject.TypeMap, root int64) {
	mb, ok := m.Read(0, root)
	if !ok {
		return
	}
	for s := 0; s < RecsPB; s++ {
		var rec mftRecord
		rec.unmarshal(mb[s*RecordSize : (s+1)*RecordSize])
		if !rec.Allocated() || rec.Magic != recMagic {
			continue
		}
		leaf := BTData
		if rec.isDir() {
			leaf = BTDir
		}
		for _, p := range rec.Direct {
			if p != 0 && p < r.boot.BlockCount {
				m.Set(int64(p), leaf)
			}
		}
		for _, e := range rec.Ext {
			if e == 0 || e >= r.boot.BlockCount {
				continue
			}
			m.Set(int64(e), BTMFT) // run-extension: MFT metadata
			eb, ok := m.Read(1, int64(e))
			if !ok {
				continue
			}
			for i := 0; i < ptrsPerExt; i++ {
				p := binary.LittleEndian.Uint64(eb[i*8:])
				if p != 0 && p < r.boot.BlockCount {
					m.Set(int64(p), leaf)
				}
			}
		}
	}
}

// Static implements faultinject.Image.
func (r *image) Static(_ *faultinject.TypeMap, blk int64) iron.BlockType {
	b := &r.boot
	switch {
	case blk == 0:
		return BTBoot
	case blk >= int64(b.MFTStart) && blk < int64(b.MFTStart+b.MFTLen):
		return BTMFT
	case blk == int64(b.MFTBmp):
		return BTMFTBmp
	case blk >= int64(b.VolBmpStart) && blk < int64(b.VolBmpStart+b.VolBmpLen):
		return BTVolBmp
	case blk >= int64(b.LogStart) && blk < int64(b.LogStart+b.LogLen):
		return BTLogfile
	}
	return ""
}
