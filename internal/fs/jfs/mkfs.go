package jfs

import (
	"fmt"

	"ironfs/internal/disk"
	"ironfs/internal/journal"
	"ironfs/internal/namei"
	"ironfs/internal/vfs"
)

// defaultLogLen is the record-log size in blocks (superblock included).
const defaultLogLen = 128

// defaultITabBlocks sizes the inode table (16 inodes per block).
const defaultITabBlocks = int64(64)

// Mkfs formats dev as a JFS image.
//
//iron:txentry format-time writer: mkfs lays out the disk before any journal exists
func Mkfs(dev disk.Device) error {
	if dev.BlockSize() != BlockSize {
		return fmt.Errorf("jfs: device block size %d, need %d", dev.BlockSize(), BlockSize)
	}
	n := dev.NumBlocks()
	bmLen := (n + bitsPerBlock - 1) / bitsPerBlock
	bmStart := regionStart
	imCtl := bmStart + bmLen
	imLen := (defaultITabBlocks*InodesPB + bitsPerBlock - 1) / bitsPerBlock
	imStart := imCtl + 1
	itStart := imStart + imLen
	logStart := n - defaultLogLen
	dataStart := itStart + defaultITabBlocks
	if dataStart+16 >= logStart {
		return fmt.Errorf("jfs: device too small (%d blocks)", n)
	}

	sb := superblock{
		Magic: sbMagic, Version: 1,
		BlockCount: uint64(n),
		BMapStart:  uint64(bmStart), BMapLen: uint64(bmLen),
		IMapCtl: uint64(imCtl), IMapStart: uint64(imStart), IMapLen: uint64(imLen),
		ITabStart: uint64(itStart), ITabLen: uint64(defaultITabBlocks),
		LogStart: uint64(logStart), LogLen: uint64(defaultLogLen),
		Clean: 1,
	}

	var reqs []disk.Request
	blockOf := func() []byte { return make([]byte, BlockSize) }

	sbBuf := blockOf()
	sb.marshal(sbBuf)
	reqs = append(reqs, disk.Request{Block: sbPrimary, Data: sbBuf})
	sb2 := blockOf()
	sb.marshal(sb2)
	reqs = append(reqs, disk.Request{Block: sbSecondary, Data: sb2})

	at := aggrTable{Magic: aggrMagic, BMapDesc: uint64(bmapDescBlk), IMapCtl: uint64(imCtl), LogStart: uint64(logStart)}
	aBuf := blockOf()
	at.marshal(aBuf)
	reqs = append(reqs, disk.Request{Block: aggrPrimary, Data: aBuf})
	a2 := blockOf()
	at.marshal(a2)
	reqs = append(reqs, disk.Request{Block: aggrSecondary, Data: a2})

	free := uint64(logStart - dataStart)
	bd := bmapDesc{Start: uint64(bmStart), Len: uint64(bmLen), Free: free, FreeCheck: free}
	dBuf := blockOf()
	bd.marshal(dBuf)
	reqs = append(reqs, disk.Request{Block: bmapDescBlk, Data: dBuf})

	// Block map: everything up to dataStart is in use; the log region too.
	for bm := int64(0); bm < bmLen; bm++ {
		buf := blockOf()
		for bit := int64(0); bit < bitsPerBlock; bit++ {
			blk := bm*bitsPerBlock + bit
			if blk >= n {
				break
			}
			if blk < dataStart || blk >= logStart {
				buf[bit/8] |= 1 << (uint(bit) % 8)
			}
		}
		reqs = append(reqs, disk.Request{Block: bmStart + bm, Data: buf})
	}

	ic := imapCtl{Start: uint64(imStart), Len: uint64(imLen),
		FreeInodes: uint64(defaultITabBlocks*InodesPB - 1), TotInodes: uint64(defaultITabBlocks * InodesPB)}
	cBuf := blockOf()
	ic.marshal(cBuf)
	reqs = append(reqs, disk.Request{Block: imCtl, Data: cBuf})

	// Inode map: root inode (bit 0) in use.
	for im := int64(0); im < imLen; im++ {
		buf := blockOf()
		if im == 0 {
			buf[0] = 1
		}
		reqs = append(reqs, disk.Request{Block: imStart + im, Data: buf})
	}

	// Inode table with the root directory in slot 0.
	for t := int64(0); t < defaultITabBlocks; t++ {
		buf := blockOf()
		if t == 0 {
			root := inode{TypedAttr: namei.Typed(vfs.TypeDirectory, namei.Attr{Mode: 0o755, Links: 1})}
			root.marshal(buf[0:InodeSize])
		}
		reqs = append(reqs, disk.Request{Block: itStart + t, Data: buf})
	}

	// Log superblock.
	lBuf := journal.Header{Magic: jMagic, Version: 1, StartRel: 1, StartSeq: 1}.Block()
	reqs = append(reqs, disk.Request{Block: logStart, Data: lBuf})

	if err := dev.WriteBatch(reqs); err != nil {
		return fmt.Errorf("jfs: mkfs write: %w", err)
	}
	return dev.Barrier()
}
