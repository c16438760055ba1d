// Package ext3 implements a journaling file system modeled on Linux ext3:
// block groups with statically reserved bitmaps and inode tables, inodes
// with direct/indirect/double-indirect/triple-indirect pointers, linear
// directories, and an ordered-mode physical write-ahead journal.
//
// The package serves two roles in the reproduction:
//
//  1. With the zero Options it reproduces stock ext3's *failure policy* as
//     the paper measured it (§5.1 and Figure 2) — error codes checked on
//     reads but ignored on writes, modest sanity checking, journal abort on
//     metadata read failure, and the documented bugs (silent truncate/rmdir
//     failures, committing after journal write failures, stale superblock
//     replicas).
//
//  2. With IRON options enabled it becomes ixt3, the paper's prototype IRON
//     file system (§6 and Figure 3): metadata/data checksums, metadata
//     replication, per-file parity for user data, and transactional
//     checksums — each independently switchable, with ext3's bugs fixed.
//
// On-disk layout (4 KiB blocks):
//
//	block 0                superblock
//	block 1                group descriptor table
//	blocks 2..tail         block groups; each group is
//	                       [sb replica][data bitmap][inode bitmap]
//	                       [inode table][data blocks...]
//	tail                   [checksum table][replica map][replica area]
//	                       [journal]
//
// The checksum/replica regions exist only when the corresponding feature
// was enabled at mkfs time; the journal always exists.
package ext3

import (
	"encoding/binary"
	"fmt"

	"ironfs/internal/iron"
)

// BlockSize is the logical block size this implementation requires.
const BlockSize = 4096

// Fundamental layout constants.
const (
	InodeSize      = 256                   // bytes per on-disk inode
	InodesPerBlock = BlockSize / InodeSize // 16
	PtrsPerBlock   = BlockSize / 8         // 512 block pointers per indirect block
	DirectBlocks   = 12                    // direct pointers per inode
	sbBlock        = 0                     // primary superblock
	gdtBlock       = 1                     // group descriptor table
	firstGroupBlk  = 2                     // first block of group 0
	groupMetaBlks  = 3                     // sb replica + data bitmap + inode bitmap
	sbMagic        = uint32(0xEF530001)    // superblock magic
	RootIno        = uint32(1)             // inode number of /
	maxFileBlocks  = int64(DirectBlocks) + PtrsPerBlock + PtrsPerBlock*PtrsPerBlock + PtrsPerBlock*PtrsPerBlock*PtrsPerBlock
	// MaxFileSize is the largest representable file.
	MaxFileSize = maxFileBlocks * BlockSize
)

// Block types of ext3's on-disk structures (Table 4 of the paper). These
// are the rows of Figures 2 and 3.
const (
	BTInode    = iron.BlockType("inode")
	BTDir      = iron.BlockType("dir")
	BTBitmap   = iron.BlockType("bitmap")
	BTIBitmap  = iron.BlockType("i-bitmap")
	BTIndirect = iron.BlockType("indirect")
	BTData     = iron.BlockType("data")
	BTSuper    = iron.BlockType("super")
	BTGDesc    = iron.BlockType("g-desc")
	BTJSuper   = iron.BlockType("j-super")
	BTJRevoke  = iron.BlockType("j-revoke")
	BTJDesc    = iron.BlockType("j-desc")
	BTJCommit  = iron.BlockType("j-commit")
	BTJData    = iron.BlockType("j-data")
	// ixt3-only structures.
	BTCksum   = iron.BlockType("cksum")
	BTRMap    = iron.BlockType("replica-map")
	BTReplica = iron.BlockType("replica")
	BTParity  = iron.BlockType("parity")
)

// BlockTypes lists the ext3 structure types in the row order of Figure 2.
func BlockTypes() []iron.BlockType {
	return []iron.BlockType{
		BTInode, BTDir, BTBitmap, BTIBitmap, BTIndirect, BTData,
		BTSuper, BTGDesc, BTJSuper, BTJRevoke, BTJDesc, BTJCommit, BTJData,
	}
}

// Options selects the IRON features of §6 and, via FixBugs, whether the
// failure-handling bugs the paper found in stock ext3 are reproduced or
// repaired. The zero value is stock ext3; AllIron() is full ixt3.
type Options struct {
	// MetaChecksum (Mc) checksums all metadata blocks.
	MetaChecksum bool
	// DataChecksum (Dc) checksums user data and parity blocks.
	DataChecksum bool
	// MetaReplica (Mr) replicates metadata blocks to a distant area.
	MetaReplica bool
	// DataParity (Dp) keeps one parity block per file.
	DataParity bool
	// TxnChecksum (Tc) places a transaction checksum in the commit block,
	// eliminating the ordering barrier before the commit write.
	TxnChecksum bool
	// FixBugs repairs stock ext3's failure-policy bugs: write errors are
	// detected and abort the journal, truncate/rmdir propagate errors,
	// and unlink sanity-checks link counts. Implied by any IRON feature
	// when constructing ixt3 via the ixt3 package.
	FixBugs bool

	// JournalBlocks overrides the journal size at mkfs (default 128).
	JournalBlocks int64
	// BlocksPerGroup overrides the group size at mkfs (default 1024).
	BlocksPerGroup int64
	// ITableBlocks overrides the per-group inode table size (default 8).
	ITableBlocks int64

	// NoBarrier drops the ordering barrier between the journal payload
	// and the commit block, modeling ext3 atop a drive whose write cache
	// ignores flushes (the deployment §6.2 warns about): the commit block
	// may reach media before the data it covers. Irrelevant under
	// TxnChecksum, whose commit carries its own proof of atomicity.
	NoBarrier bool

	// NoAtime suppresses the POSIX atime update on Read, the mount option
	// every performance-sensitive deployment sets. With it, Read mutates
	// nothing and runs under the file system's shared lock, so concurrent
	// clients read in parallel.
	NoAtime bool
}

// AllIron returns the options for full ixt3: every IRON feature on and the
// ext3 bugs fixed.
func AllIron() Options {
	return Options{
		MetaChecksum: true, DataChecksum: true, MetaReplica: true,
		DataParity: true, TxnChecksum: true, FixBugs: true,
	}
}

// needsCksum reports whether a checksum table region is required.
func (o Options) needsCksum() bool { return o.MetaChecksum || o.DataChecksum }

// feature bits persisted in the superblock.
const (
	featMc = 1 << iota
	featDc
	featMr
	featDp
	featTc
)

func (o Options) featureBits() uint32 {
	var f uint32
	if o.MetaChecksum {
		f |= featMc
	}
	if o.DataChecksum {
		f |= featDc
	}
	if o.MetaReplica {
		f |= featMr
	}
	if o.DataParity {
		f |= featDp
	}
	if o.TxnChecksum {
		f |= featTc
	}
	return f
}

// superblock is the on-disk superblock (block 0, replicated at the start
// of every block group; the replicas are never rewritten after mkfs —
// reproducing the staleness the paper calls out in §5.1).
type superblock struct {
	Magic          uint32
	Version        uint32
	BlockCount     uint64
	GroupCount     uint32
	BlocksPerGroup uint32
	ITableBlocks   uint32
	InodesPerGroup uint32
	RootIno        uint32
	Clean          uint32 // 1 when cleanly unmounted
	JournalStart   uint64
	JournalLen     uint64
	CksumStart     uint64
	CksumLen       uint64
	RMapStart      uint64
	RMapLen        uint64
	ReplicaStart   uint64
	ReplicaLen     uint64
	Features       uint32
	Mounts         uint32
	// ReplicaNext is the head of the replica log (ixt3 Mr): the slot the
	// next commit's replicas start at, stepping over slots the replica map
	// names. It is written lazily; only the map says which slots are live.
	ReplicaNext uint64
}

// sbCksumOff is where the superblock keeps its own checksum, last in its
// encoding as ext4 keeps s_checksum, so the superblock and its checksum
// reach the media in one write. The free counts are not stored at all: the
// group descriptors' sum is the count (FS.freeCounts), and bytes 32–47 are
// unused.
const sbCksumOff = 136

func (s *superblock) marshal(b []byte) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], s.Magic)
	le.PutUint32(b[4:], s.Version)
	le.PutUint64(b[8:], s.BlockCount)
	le.PutUint32(b[16:], s.GroupCount)
	le.PutUint32(b[20:], s.BlocksPerGroup)
	le.PutUint32(b[24:], s.ITableBlocks)
	le.PutUint32(b[28:], s.InodesPerGroup)
	le.PutUint32(b[48:], s.RootIno)
	le.PutUint32(b[52:], s.Clean)
	le.PutUint64(b[56:], s.JournalStart)
	le.PutUint64(b[64:], s.JournalLen)
	le.PutUint64(b[72:], s.CksumStart)
	le.PutUint64(b[80:], s.CksumLen)
	le.PutUint64(b[88:], s.RMapStart)
	le.PutUint64(b[96:], s.RMapLen)
	le.PutUint64(b[104:], s.ReplicaStart)
	le.PutUint64(b[112:], s.ReplicaLen)
	le.PutUint32(b[120:], s.Features)
	le.PutUint32(b[124:], s.Mounts)
	le.PutUint64(b[128:], s.ReplicaNext)
	le.PutUint64(b[sbCksumOff:], sbCksum(b))
}

func (s *superblock) unmarshal(b []byte) {
	le := binary.LittleEndian
	s.Magic = le.Uint32(b[0:])
	s.Version = le.Uint32(b[4:])
	s.BlockCount = le.Uint64(b[8:])
	s.GroupCount = le.Uint32(b[16:])
	s.BlocksPerGroup = le.Uint32(b[20:])
	s.ITableBlocks = le.Uint32(b[24:])
	s.InodesPerGroup = le.Uint32(b[28:])
	s.RootIno = le.Uint32(b[48:])
	s.Clean = le.Uint32(b[52:])
	s.JournalStart = le.Uint64(b[56:])
	s.JournalLen = le.Uint64(b[64:])
	s.CksumStart = le.Uint64(b[72:])
	s.CksumLen = le.Uint64(b[80:])
	s.RMapStart = le.Uint64(b[88:])
	s.RMapLen = le.Uint64(b[96:])
	s.ReplicaStart = le.Uint64(b[104:])
	s.ReplicaLen = le.Uint64(b[112:])
	s.Features = le.Uint32(b[120:])
	s.Mounts = le.Uint32(b[124:])
	s.ReplicaNext = le.Uint64(b[128:])
}

// sane performs the superblock sanity checks stock ext3 applies at mount
// (magic/type check plus field-range checks) and returns a description of
// the first violation.
func (s *superblock) sane(numBlocks int64) error {
	if s.Magic != sbMagic {
		return fmt.Errorf("bad magic %#x", s.Magic)
	}
	if s.BlockCount == 0 || s.BlockCount > uint64(numBlocks) {
		return fmt.Errorf("bad block count %d (device has %d)", s.BlockCount, numBlocks)
	}
	if s.BlocksPerGroup == 0 || s.GroupCount == 0 || s.InodesPerGroup == 0 {
		return fmt.Errorf("bad geometry")
	}
	if s.JournalStart == 0 || s.JournalStart+s.JournalLen > s.BlockCount {
		return fmt.Errorf("bad journal extent [%d,+%d)", s.JournalStart, s.JournalLen)
	}
	if s.RootIno == 0 {
		return fmt.Errorf("bad root inode")
	}
	return nil
}

// groupDesc is one entry of the group descriptor table.
type groupDesc struct {
	DataBitmap uint64
	INodeBMap  uint64
	ITable     uint64
	FreeBlocks uint32
	FreeInodes uint32
}

const gdEncodedLen = 8*3 + 4*2 // 32

func (g *groupDesc) marshal(b []byte) {
	le := binary.LittleEndian
	le.PutUint64(b[0:], g.DataBitmap)
	le.PutUint64(b[8:], g.INodeBMap)
	le.PutUint64(b[16:], g.ITable)
	le.PutUint32(b[24:], g.FreeBlocks)
	le.PutUint32(b[28:], g.FreeInodes)
}

func (g *groupDesc) unmarshal(b []byte) {
	le := binary.LittleEndian
	g.DataBitmap = le.Uint64(b[0:])
	g.INodeBMap = le.Uint64(b[8:])
	g.ITable = le.Uint64(b[16:])
	g.FreeBlocks = le.Uint32(b[24:])
	g.FreeInodes = le.Uint32(b[28:])
}

// layout is the decoded geometry of a mounted file system.
type layout struct {
	sb superblock
}

// groupStart returns the first block of group g.
func (l *layout) groupStart(g uint32) int64 {
	return firstGroupBlk + int64(g)*int64(l.sb.BlocksPerGroup)
}

// groupOf returns the group containing block b, or -1 for blocks outside
// the group area (superblock, gdt, tail regions).
func (l *layout) groupOf(b int64) int32 {
	if b < firstGroupBlk {
		return -1
	}
	g := (b - firstGroupBlk) / int64(l.sb.BlocksPerGroup)
	if g >= int64(l.sb.GroupCount) {
		return -1
	}
	return int32(g)
}

// inodeLoc returns the block and in-block byte offset of inode ino.
func (l *layout) inodeLoc(ino uint32) (blk int64, off int, err error) {
	if ino == 0 || ino > l.sb.InodesPerGroup*l.sb.GroupCount {
		return 0, 0, fmt.Errorf("ext3: inode %d out of range", ino)
	}
	idx := ino - 1
	g := idx / l.sb.InodesPerGroup
	within := idx % l.sb.InodesPerGroup
	blk = l.groupStart(g) + groupMetaBlks + int64(within/InodesPerBlock)
	off = int(within%InodesPerBlock) * InodeSize
	return blk, off, nil
}

// firstDataBlock returns the first allocatable block of group g.
func (l *layout) firstDataBlock(g uint32) int64 {
	return l.groupStart(g) + groupMetaBlks + int64(l.sb.ITableBlocks)
}

// dataBlocksPerGroup returns how many allocatable blocks each group has.
func (l *layout) dataBlocksPerGroup() int64 {
	return int64(l.sb.BlocksPerGroup) - groupMetaBlks - int64(l.sb.ITableBlocks)
}
