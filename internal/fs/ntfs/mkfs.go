package ntfs

import (
	"fmt"

	"ironfs/internal/disk"
	"ironfs/internal/journal"
	"ironfs/internal/namei"
)

// defaultLogLen sizes the logfile region.
const defaultLogLen = int64(128)

// defaultMFTBlocks sizes the MFT (4 records per block).
const defaultMFTBlocks = int64(64)

// mftBlocksFor sizes the MFT for an n-block device: one MFT block per 256
// device blocks, floored at the historical 64. Devices up to 16384 blocks
// (every committed golden and the standard 4096-block harness disk) land
// exactly on the floor, so their layout is bit-identical to older formats;
// larger devices — the high-client sweep arena — get a proportionally
// larger record table so hundreds of client directories fit. The one-block
// MFT bitmap covers 32768 records, far above any size this yields.
func mftBlocksFor(n int64) int64 {
	if m := n / 256; m > defaultMFTBlocks {
		return m
	}
	return defaultMFTBlocks
}

// Mkfs formats dev as an NTFS volume.
//
//iron:txentry format-time writer: mkfs lays out the disk before any log exists
func Mkfs(dev disk.Device) error {
	if dev.BlockSize() != BlockSize {
		return fmt.Errorf("ntfs: device block size %d, need %d", dev.BlockSize(), BlockSize)
	}
	n := dev.NumBlocks()
	mftStart := int64(1)
	mftBlocks := mftBlocksFor(n)
	mftBmp := mftStart + mftBlocks
	volBmpStart := mftBmp + 1
	volBmpLen := (n + bitsPerBlock - 1) / bitsPerBlock
	logStart := n - defaultLogLen
	dataStart := volBmpStart + volBmpLen
	if dataStart+16 >= logStart {
		return fmt.Errorf("ntfs: device too small (%d blocks)", n)
	}

	b := boot{
		Magic:      bootMagic,
		BlockCount: uint64(n),
		MFTStart:   uint64(mftStart), MFTLen: uint64(mftBlocks),
		MFTBmp:      uint64(mftBmp),
		VolBmpStart: uint64(volBmpStart), VolBmpLen: uint64(volBmpLen),
		LogStart: uint64(logStart), LogLen: uint64(defaultLogLen),
		Clean: 1,
	}

	var reqs []disk.Request
	blockOf := func() []byte { return make([]byte, BlockSize) }

	bb := blockOf()
	b.marshal(bb)
	reqs = append(reqs, disk.Request{Block: 0, Data: bb})

	// MFT: record 0 reserved for $MFT itself; record 1 is the root dir.
	for t := int64(0); t < mftBlocks; t++ {
		buf := blockOf()
		if t == 0 {
			mft := mftRecord{Magic: recMagic, Flags: flagInUse, Attr: namei.Attr{Links: 1}}
			mft.marshal(buf[0:RecordSize])
			root := mftRecord{Magic: recMagic, Flags: flagInUse | flagDir, Attr: namei.Attr{Links: 1, Mode: 0o755}}
			root.marshal(buf[RecordSize : 2*RecordSize])
		}
		reqs = append(reqs, disk.Request{Block: mftStart + t, Data: buf})
	}

	// MFT bitmap: records 0 and 1 in use.
	mb := blockOf()
	mb[0] = 0b11
	reqs = append(reqs, disk.Request{Block: mftBmp, Data: mb})

	// Volume bitmap: everything before dataStart and the logfile in use.
	for bm := int64(0); bm < volBmpLen; bm++ {
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
		reqs = append(reqs, disk.Request{Block: volBmpStart + bm, Data: buf})
	}

	// Logfile restart area.
	rb := journal.Header{Magic: logMagic, StartRel: 1, StartSeq: 1}.Block()
	reqs = append(reqs, disk.Request{Block: logStart, Data: rb})

	if err := dev.WriteBatch(reqs); err != nil {
		return fmt.Errorf("ntfs: mkfs write: %w", err)
	}
	return dev.Barrier()
}
