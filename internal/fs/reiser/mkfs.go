package reiser

import (
	"fmt"

	"ironfs/internal/disk"
	"ironfs/internal/journal"
	"ironfs/internal/namei"
	"ironfs/internal/vfs"
)

// defaultJournalLen is the journal ring size in blocks (header included).
const defaultJournalLen = 128

// Mkfs formats dev as a ReiserFS image: superblock, bitmaps, journal, and
// a one-leaf tree holding the root directory's stat item.
//
//iron:txentry format-time writer: mkfs lays out the disk before any journal exists
func Mkfs(dev disk.Device) error {
	if dev.BlockSize() != BlockSize {
		return fmt.Errorf("reiser: device block size %d, need %d", dev.BlockSize(), BlockSize)
	}
	n := dev.NumBlocks()
	bmLen := (n + bitsPerBlock - 1) / bitsPerBlock
	jStart := 1 + bmLen
	treeStart := jStart + defaultJournalLen
	rootBlk := treeStart
	if rootBlk+16 >= n {
		return fmt.Errorf("reiser: device too small (%d blocks)", n)
	}

	sb := superblock{
		Magic:        sbMagic,
		BlockCount:   uint64(n),
		Root:         uint64(rootBlk),
		Height:       1,
		BitmapStart:  1,
		BitmapLen:    uint64(bmLen),
		JournalStart: uint64(jStart),
		JournalLen:   uint64(defaultJournalLen),
		NextOID:      firstOID,
		Clean:        1,
	}
	sb.FreeBlocks = uint64(n - treeStart - 1) // everything past the root leaf

	var reqs []disk.Request

	sbBuf := make([]byte, BlockSize)
	sb.marshal(sbBuf)
	reqs = append(reqs, disk.Request{Block: 0, Data: sbBuf})

	// Bitmaps: super + bitmaps + journal + root leaf are in use.
	used := treeStart + 1
	for bm := int64(0); bm < bmLen; bm++ {
		buf := make([]byte, BlockSize)
		for bit := int64(0); bit < bitsPerBlock; bit++ {
			blk := bm*bitsPerBlock + bit
			if blk >= used {
				break
			}
			buf[bit/8] |= 1 << (uint(bit) % 8)
		}
		reqs = append(reqs, disk.Request{Block: 1 + bm, Data: buf})
	}

	// Journal header.
	jhBuf := journal.Header{Magic: jMagicHeader, StartRel: 1, StartSeq: 1}.Block()
	reqs = append(reqs, disk.Request{Block: jStart, Data: jhBuf})

	// Root leaf with the root directory's stat item.
	rootStat := statData{namei.Typed(vfs.TypeDirectory, namei.Attr{Mode: 0o755, Links: 1})}
	root := &node{Level: 1, Items: []item{{K: rootRef().statKey(), Body: rootStat.marshal()}}}
	reqs = append(reqs, disk.Request{Block: rootBlk, Data: marshalNode(root)})

	if err := dev.WriteBatch(reqs); err != nil {
		return fmt.Errorf("reiser: mkfs write: %w", err)
	}
	return dev.Barrier()
}
