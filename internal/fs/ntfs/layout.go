// Package ntfs implements an NTFS-style file system: a Master File Table
// (MFT) of fixed-size records (four 1 KiB records per block), an MFT
// bitmap tracking unused records, a volume bitmap tracking free logical
// clusters, a transaction logfile, and a boot file describing the volume.
//
// The failure policy encoded here is the paper's §5.4 reading of NTFS:
// "persistence is a virtue" — failed reads are retried up to seven times,
// failed writes two to three times depending on the block type; errors are
// propagated to the user reliably; metadata carries strong sanity checks
// (record magics) and the volume becomes unmountable when any metadata
// block other than the journal is corrupted. Its reproduced lapses: the
// error code of an exhausted data-write retry is recorded but never used
// (DZero), and embedded block pointers are not sanity-checked, so a
// corrupted pointer corrupts whatever it aims at on the next update.
package ntfs

import (
	"encoding/binary"
	"fmt"

	"ironfs/internal/iron"
	"ironfs/internal/namei"
	"ironfs/internal/vfs"
)

// BlockSize is the logical block size this implementation requires.
const BlockSize = 4096

// Block types of NTFS's on-disk structures (Table 4).
const (
	BTMFT     = iron.BlockType("MFT record")
	BTDir     = iron.BlockType("dir")
	BTVolBmp  = iron.BlockType("vol-bitmap")
	BTMFTBmp  = iron.BlockType("mft-bitmap")
	BTLogfile = iron.BlockType("logfile")
	BTData    = iron.BlockType("data")
	BTBoot    = iron.BlockType("boot")
)

// BlockTypes lists the NTFS structure types in Table 4's order.
func BlockTypes() []iron.BlockType {
	return []iron.BlockType{BTMFT, BTDir, BTVolBmp, BTMFTBmp, BTLogfile, BTData, BTBoot}
}

const (
	bootMagic = uint32(0x4E544653) // "NTFS"
	recMagic  = uint32(0x46494C45) // "FILE"
	logMagic  = uint32(0x52535452) // "RSTR" restart area
	logDesc   = uint32(0x52435244) // "RCRD"
	logCommit = uint32(0x434D4954) // "CMIT"

	RecordSize  = 1024
	RecsPB      = BlockSize / RecordSize
	RootRec     = uint32(1) // MFT record number of the root directory
	directRuns  = 12
	runExtCount = 2
	ptrsPerExt  = 500

	// Retry budgets from §5.4.
	readRetries     = 7
	dataWriteRetry  = 3
	mftWriteRetries = 2
)

// maxFileBlocks bounds file size.
const maxFileBlocks = int64(directRuns) + runExtCount*ptrsPerExt

// boot is the boot file (block 0): volume geometry.
type boot struct {
	Magic      uint32
	BlockCount uint64
	MFTStart   uint64
	MFTLen     uint64 // blocks
	MFTBmp     uint64
	VolBmpStart,
	VolBmpLen uint64
	LogStart,
	LogLen uint64
	Clean uint32
}

func (b *boot) marshal(buf []byte) {
	le := binary.LittleEndian
	le.PutUint32(buf[0:], b.Magic)
	le.PutUint64(buf[8:], b.BlockCount)
	le.PutUint64(buf[16:], b.MFTStart)
	le.PutUint64(buf[24:], b.MFTLen)
	le.PutUint64(buf[32:], b.MFTBmp)
	le.PutUint64(buf[40:], b.VolBmpStart)
	le.PutUint64(buf[48:], b.VolBmpLen)
	le.PutUint64(buf[56:], b.LogStart)
	le.PutUint64(buf[64:], b.LogLen)
	le.PutUint32(buf[72:], b.Clean)
}

func (b *boot) unmarshal(buf []byte) {
	le := binary.LittleEndian
	b.Magic = le.Uint32(buf[0:])
	b.BlockCount = le.Uint64(buf[8:])
	b.MFTStart = le.Uint64(buf[16:])
	b.MFTLen = le.Uint64(buf[24:])
	b.MFTBmp = le.Uint64(buf[32:])
	b.VolBmpStart = le.Uint64(buf[40:])
	b.VolBmpLen = le.Uint64(buf[48:])
	b.LogStart = le.Uint64(buf[56:])
	b.LogLen = le.Uint64(buf[64:])
	b.Clean = le.Uint32(buf[72:])
}

func (b *boot) sane(numBlocks int64) error {
	if b.Magic != bootMagic {
		return fmt.Errorf("bad magic %#x", b.Magic)
	}
	if b.BlockCount == 0 || b.BlockCount > uint64(numBlocks) {
		return fmt.Errorf("bad block count %d", b.BlockCount)
	}
	if b.MFTStart == 0 || b.MFTStart+b.MFTLen > b.BlockCount {
		return fmt.Errorf("bad MFT extent")
	}
	if b.LogStart == 0 || b.LogStart+b.LogLen > b.BlockCount {
		return fmt.Errorf("bad logfile extent")
	}
	return nil
}

// File-type bits in the record flags.
const (
	flagInUse   = uint16(0x0001)
	flagDir     = uint16(0x0002)
	flagSymlink = uint16(0x0004)
)

// mftRecord is one 1 KiB MFT record. The file type sits in Flags, not in
// the mode, so it embeds the plain attribute set.
type mftRecord struct {
	Magic uint32
	Flags uint16
	namei.Attr
	Direct [directRuns]uint64
	Ext    [runExtCount]uint64
}

// Allocated implements namei.Node.
func (r *mftRecord) Allocated() bool { return r.Flags&flagInUse != 0 }
func (r *mftRecord) isDir() bool     { return r.Flags&flagDir != 0 }
func (r *mftRecord) isSymlink() bool { return r.Flags&flagSymlink != 0 }

// FileType implements namei.Node.
func (r *mftRecord) FileType() vfs.FileType {
	switch {
	case r.isDir():
		return vfs.TypeDirectory
	case r.isSymlink():
		return vfs.TypeSymlink
	}
	return vfs.TypeRegular
}

// kindFlags is FileType's inverse: the record flags of a new object.
func kindFlags(kind vfs.FileType) uint16 {
	switch kind {
	case vfs.TypeDirectory:
		return flagInUse | flagDir
	case vfs.TypeSymlink:
		return flagInUse | flagSymlink
	}
	return flagInUse
}

func (r *mftRecord) marshal(b []byte) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], r.Magic)
	le.PutUint16(b[4:], r.Flags)
	le.PutUint16(b[6:], r.Links)
	le.PutUint16(b[8:], r.Mode)
	le.PutUint32(b[12:], r.UID)
	le.PutUint32(b[16:], r.GID)
	le.PutUint64(b[20:], r.Size)
	le.PutUint64(b[28:], uint64(r.Atime))
	le.PutUint64(b[36:], uint64(r.Mtime))
	le.PutUint64(b[44:], uint64(r.Ctime))
	off := 52
	for i := range r.Direct {
		le.PutUint64(b[off:], r.Direct[i])
		off += 8
	}
	for i := range r.Ext {
		le.PutUint64(b[off:], r.Ext[i])
		off += 8
	}
}

func (r *mftRecord) unmarshal(b []byte) {
	le := binary.LittleEndian
	r.Magic = le.Uint32(b[0:])
	r.Flags = le.Uint16(b[4:])
	r.Links = le.Uint16(b[6:])
	r.Mode = le.Uint16(b[8:])
	r.UID = le.Uint32(b[12:])
	r.GID = le.Uint32(b[16:])
	r.Size = le.Uint64(b[20:])
	r.Atime = int64(le.Uint64(b[28:]))
	r.Mtime = int64(le.Uint64(b[36:]))
	r.Ctime = int64(le.Uint64(b[44:]))
	off := 52
	for i := range r.Direct {
		r.Direct[i] = le.Uint64(b[off:])
		off += 8
	}
	for i := range r.Ext {
		r.Ext[i] = le.Uint64(b[off:])
		off += 8
	}
}
