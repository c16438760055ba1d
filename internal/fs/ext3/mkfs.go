package ext3

import (
	"fmt"

	"ironfs/internal/disk"
	"ironfs/internal/journal"
	"ironfs/internal/namei"
	"ironfs/internal/vfs"
)

// Mkfs formats dev as an ext3/ixt3 file system. The IRON features in opts
// determine which tail regions (checksum table, replica map, replica area)
// are reserved; a file system formatted with a feature's region may be
// mounted with the feature on or off.
//
//iron:txentry format-time writer: mkfs lays out the disk before any journal exists
func Mkfs(dev disk.Device, opts Options) error {
	if dev.BlockSize() != BlockSize {
		return fmt.Errorf("ext3: device block size %d, need %d", dev.BlockSize(), BlockSize)
	}
	n := dev.NumBlocks()

	bpg := opts.BlocksPerGroup
	if bpg == 0 {
		bpg = 1024
	}
	itb := opts.ITableBlocks
	if itb == 0 {
		itb = 8
	}
	jlen := opts.JournalBlocks
	if jlen == 0 {
		jlen = 128
	}

	// Tail regions, back to front: journal, replica area, replica map,
	// checksum table.
	tail := n
	jStart := tail - jlen
	tail = jStart

	var repStart, repLen, rmapStart, rmapLen int64
	if opts.MetaReplica {
		repLen = n / 16
		if repLen < 64 {
			repLen = 64
		}
		repStart = tail - repLen
		tail = repStart
		rmapLen = (n + PtrsPerBlock - 1) / PtrsPerBlock
		rmapStart = tail - rmapLen
		tail = rmapStart
	}
	var ckStart, ckLen int64
	if opts.needsCksum() {
		ckLen = (n + PtrsPerBlock - 1) / PtrsPerBlock
		ckStart = tail - ckLen
		tail = ckStart
	}

	groups := (tail - firstGroupBlk) / bpg
	if groups < 1 {
		return fmt.Errorf("ext3: device too small (%d blocks)", n)
	}
	if groups*gdEncodedLen > BlockSize {
		return fmt.Errorf("ext3: too many groups (%d) for one descriptor block", groups)
	}
	inodesPerGroup := itb * InodesPerBlock

	sb := superblock{
		Magic:          sbMagic,
		Version:        1,
		BlockCount:     uint64(n),
		GroupCount:     uint32(groups),
		BlocksPerGroup: uint32(bpg),
		ITableBlocks:   uint32(itb),
		InodesPerGroup: uint32(inodesPerGroup),
		RootIno:        RootIno,
		Clean:          1,
		JournalStart:   uint64(jStart),
		JournalLen:     uint64(jlen),
		CksumStart:     uint64(ckStart),
		CksumLen:       uint64(ckLen),
		RMapStart:      uint64(rmapStart),
		RMapLen:        uint64(rmapLen),
		ReplicaStart:   uint64(repStart),
		ReplicaLen:     uint64(repLen),
		Features:       opts.featureBits(),
	}
	if ckStart == 0 {
		sb.CksumStart = uint64(tail) // cksumCovers bound even without the table
	}
	dataPerGroup := bpg - groupMetaBlks - itb

	var reqs []disk.Request
	blockOf := func() []byte { return make([]byte, BlockSize) }

	// Superblock and its per-group replicas (written once, never again —
	// the paper's staleness finding).
	sbBuf := blockOf()
	sb.marshal(sbBuf)
	reqs = append(reqs, disk.Request{Block: sbBlock, Data: sbBuf})

	// Group descriptor table.
	gdt := blockOf()
	for g := int64(0); g < groups; g++ {
		start := firstGroupBlk + g*bpg
		gd := groupDesc{
			DataBitmap: uint64(start + 1),
			INodeBMap:  uint64(start + 2),
			ITable:     uint64(start + groupMetaBlks),
			FreeBlocks: uint32(dataPerGroup),
			FreeInodes: uint32(inodesPerGroup),
		}
		if g == 0 {
			gd.FreeInodes--
		}
		gd.marshal(gdt[g*gdEncodedLen:])
	}
	reqs = append(reqs, disk.Request{Block: gdtBlock, Data: gdt})

	for g := int64(0); g < groups; g++ {
		start := firstGroupBlk + g*bpg

		rep := blockOf()
		sb.marshal(rep)
		reqs = append(reqs, disk.Request{Block: start, Data: rep})

		dbm := blockOf()
		for b := int64(0); b < groupMetaBlks+itb; b++ {
			setBit(dbm, b)
		}
		reqs = append(reqs, disk.Request{Block: start + 1, Data: dbm})

		ibm := blockOf()
		if g == 0 {
			setBit(ibm, 0) // root inode
		}
		reqs = append(reqs, disk.Request{Block: start + 2, Data: ibm})

		for t := int64(0); t < itb; t++ {
			it := blockOf()
			if g == 0 && t == 0 {
				root := inode{TypedAttr: namei.Typed(vfs.TypeDirectory, namei.Attr{Mode: 0o755, Links: 1})}
				root.marshal(it[0:InodeSize])
			}
			reqs = append(reqs, disk.Request{Block: start + groupMetaBlks + t, Data: it})
		}
	}

	// Zero the tail regions so stale bytes never masquerade as entries.
	for b := ckStart; ckStart != 0 && b < ckStart+ckLen; b++ {
		reqs = append(reqs, disk.Request{Block: b, Data: blockOf()})
	}
	for b := rmapStart; rmapStart != 0 && b < rmapStart+rmapLen; b++ {
		reqs = append(reqs, disk.Request{Block: b, Data: blockOf()})
	}

	// Journal superblock.
	jsBuf := journal.Header{Magic: jMagicSuper, StartRel: 1, StartSeq: 1}.Block()
	reqs = append(reqs, disk.Request{Block: jStart, Data: jsBuf})

	if err := dev.WriteBatch(reqs); err != nil {
		return fmt.Errorf("ext3: mkfs write: %w", err)
	}
	return dev.Barrier()
}
