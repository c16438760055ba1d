// Package jfs implements an IBM-JFS-style file system: a fixed inode table
// managed through an inode allocation map with a summary control page, a
// block allocation map fronted by a descriptor, single-block extents with
// "internal" pointer blocks for large files, record-level journaling (JFS
// logs sub-block redo records, not whole blocks), an aggregate inode table
// describing the file system itself (with a secondary copy), and a
// secondary superblock kept — as the paper notes critically — in close
// proximity to the primary.
//
// The failure policy is the paper's §5.3 "kitchen sink": error codes
// checked on reads but most write errors ignored; minimal magic checking
// (superblock, journal superblock) plus entry-count sanity checks on
// internal/directory/inode blocks and an equality check on the bmap
// descriptor; recovery that veers between redundancy (alternate superblock
// on read failure — but, inconsistently, not on corruption), crashing
// (journal-superblock write failure, allocation-map read failure), a single
// generic retry on metadata reads, and the reproduced bugs: the secondary
// aggregate inode table is never used, a failed internal-block sanity check
// hands the user a blank page (RGuess), and one retry path drops the error
// on the floor.
package jfs

import (
	"encoding/binary"
	"fmt"

	"ironfs/internal/iron"
	"ironfs/internal/namei"
)

// BlockSize is the logical block size this implementation requires.
const BlockSize = 4096

// Block types of JFS's on-disk structures (Table 4 / Figure 2 rows).
const (
	BTInode    = iron.BlockType("inode")
	BTDir      = iron.BlockType("dir")
	BTBMap     = iron.BlockType("bmap")
	BTIMap     = iron.BlockType("imap")
	BTInternal = iron.BlockType("internal")
	BTData     = iron.BlockType("data")
	BTSuper    = iron.BlockType("super")
	BTJSuper   = iron.BlockType("j-super")
	BTJData    = iron.BlockType("j-data")
	BTAggr     = iron.BlockType("aggr-inode")
	BTBMapDesc = iron.BlockType("bmap-desc")
	BTIMapCtl  = iron.BlockType("imap-cntl")
)

// BlockTypes lists the JFS structure types in Figure 2's row order.
func BlockTypes() []iron.BlockType {
	return []iron.BlockType{
		BTInode, BTDir, BTBMap, BTIMap, BTInternal, BTData,
		BTSuper, BTJSuper, BTJData, BTAggr, BTBMapDesc, BTIMapCtl,
	}
}

// Fixed layout constants.
const (
	sbPrimary     = int64(0) // primary superblock
	sbSecondary   = int64(1) // secondary superblock — in close proximity (§5.6)
	aggrPrimary   = int64(2) // aggregate inode table
	aggrSecondary = int64(3) // secondary aggregate inode table (never used: bug)
	bmapDescBlk   = int64(4) // block allocation map descriptor
	regionStart   = int64(5) // bmap blocks begin here

	sbMagic    = uint32(0x4A465331) // "JFS1"
	jMagic     = uint32(0x4A4C4F47) // journal superblock magic
	InodeSize  = 256
	InodesPB   = BlockSize / InodeSize
	RootIno    = uint32(1)
	directExts = 8   // direct single-block extents per inode
	internPtrs = 4   // internal pointer blocks per inode
	ptrsPerInt = 500 // pointers per internal block
	maxEntsDir = 120 // sanity bound on directory entries per block
)

// maxFileBlocks is the largest file in blocks.
const maxFileBlocks = int64(directExts) + internPtrs*ptrsPerInt

// superblock describes the aggregate. JFS checks its magic and version at
// mount (§5.3: "the superblock and journal superblock have magic and
// version numbers that are checked").
type superblock struct {
	Magic      uint32
	Version    uint32
	BlockCount uint64
	FreeBlocks uint64
	BMapStart  uint64
	BMapLen    uint64
	IMapCtl    uint64
	IMapStart  uint64
	IMapLen    uint64
	ITabStart  uint64
	ITabLen    uint64
	LogStart   uint64
	LogLen     uint64
	FreeInodes uint64
	Clean      uint32
}

func (s *superblock) marshal(b []byte) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], s.Magic)
	le.PutUint32(b[4:], s.Version)
	le.PutUint64(b[8:], s.BlockCount)
	le.PutUint64(b[16:], s.FreeBlocks)
	le.PutUint64(b[24:], s.BMapStart)
	le.PutUint64(b[32:], s.BMapLen)
	le.PutUint64(b[40:], s.IMapCtl)
	le.PutUint64(b[48:], s.IMapStart)
	le.PutUint64(b[56:], s.IMapLen)
	le.PutUint64(b[64:], s.ITabStart)
	le.PutUint64(b[72:], s.ITabLen)
	le.PutUint64(b[80:], s.LogStart)
	le.PutUint64(b[88:], s.LogLen)
	le.PutUint64(b[96:], s.FreeInodes)
	le.PutUint32(b[104:], s.Clean)
}

func (s *superblock) unmarshal(b []byte) {
	le := binary.LittleEndian
	s.Magic = le.Uint32(b[0:])
	s.Version = le.Uint32(b[4:])
	s.BlockCount = le.Uint64(b[8:])
	s.FreeBlocks = le.Uint64(b[16:])
	s.BMapStart = le.Uint64(b[24:])
	s.BMapLen = le.Uint64(b[32:])
	s.IMapCtl = le.Uint64(b[40:])
	s.IMapStart = le.Uint64(b[48:])
	s.IMapLen = le.Uint64(b[56:])
	s.ITabStart = le.Uint64(b[64:])
	s.ITabLen = le.Uint64(b[72:])
	s.LogStart = le.Uint64(b[80:])
	s.LogLen = le.Uint64(b[88:])
	s.FreeInodes = le.Uint64(b[96:])
	s.Clean = le.Uint32(b[104:])
}

func (s *superblock) sane(numBlocks int64) error {
	if s.Magic != sbMagic {
		return fmt.Errorf("bad magic %#x", s.Magic)
	}
	if s.Version != 1 {
		return fmt.Errorf("bad version %d", s.Version)
	}
	if s.BlockCount == 0 || s.BlockCount > uint64(numBlocks) {
		return fmt.Errorf("bad block count %d", s.BlockCount)
	}
	if s.LogStart == 0 || s.LogStart+s.LogLen > s.BlockCount {
		return fmt.Errorf("bad log extent")
	}
	return nil
}

// aggrTable is the aggregate inode table: a handful of "inodes" that
// describe the file system's own structures. The secondary copy at block 3
// exists but is never consulted — the reproduced §5.3 inconsistency.
type aggrTable struct {
	Magic    uint32
	BMapDesc uint64 // block of the bmap descriptor
	IMapCtl  uint64 // block of the imap control page
	LogStart uint64
}

const aggrMagic = uint32(0x41475231)

func (a *aggrTable) marshal(b []byte) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], a.Magic)
	le.PutUint64(b[8:], a.BMapDesc)
	le.PutUint64(b[16:], a.IMapCtl)
	le.PutUint64(b[24:], a.LogStart)
}

func (a *aggrTable) unmarshal(b []byte) {
	le := binary.LittleEndian
	a.Magic = le.Uint32(b[0:])
	a.BMapDesc = le.Uint64(b[8:])
	a.IMapCtl = le.Uint64(b[16:])
	a.LogStart = le.Uint64(b[24:])
}

// bmapDesc describes the block allocation map. JFS's corruption defence
// here is an equality check between two copies of the same field (§5.3).
type bmapDesc struct {
	Start     uint64
	Len       uint64
	Free      uint64
	FreeCheck uint64 // must equal Free — the equality check
}

func (d *bmapDesc) marshal(b []byte) {
	le := binary.LittleEndian
	le.PutUint64(b[0:], d.Start)
	le.PutUint64(b[8:], d.Len)
	le.PutUint64(b[16:], d.Free)
	le.PutUint64(b[24:], d.FreeCheck)
}

func (d *bmapDesc) unmarshal(b []byte) {
	le := binary.LittleEndian
	d.Start = le.Uint64(b[0:])
	d.Len = le.Uint64(b[8:])
	d.Free = le.Uint64(b[16:])
	d.FreeCheck = le.Uint64(b[24:])
}

// imapCtl is the inode-allocation-map control page ("summary info").
type imapCtl struct {
	Start      uint64
	Len        uint64
	FreeInodes uint64
	TotInodes  uint64
}

func (c *imapCtl) marshal(b []byte) {
	le := binary.LittleEndian
	le.PutUint64(b[0:], c.Start)
	le.PutUint64(b[8:], c.Len)
	le.PutUint64(b[16:], c.FreeInodes)
	le.PutUint64(b[24:], c.TotInodes)
}

func (c *imapCtl) unmarshal(b []byte) {
	le := binary.LittleEndian
	c.Start = le.Uint64(b[0:])
	c.Len = le.Uint64(b[8:])
	c.FreeInodes = le.Uint64(b[16:])
	c.TotInodes = le.Uint64(b[24:])
}

// inode is a JFS inode: direct single-block extents plus pointers to
// internal (pointer) blocks. The file type sits in the mode's high nibble
// (namei.TypedAttr).
type inode struct {
	namei.TypedAttr
	Direct [directExts]uint64
	Intern [internPtrs]uint64
}

func (in *inode) marshal(b []byte) {
	le := binary.LittleEndian
	le.PutUint16(b[0:], in.Mode)
	le.PutUint16(b[2:], in.Links)
	le.PutUint32(b[4:], in.UID)
	le.PutUint32(b[8:], in.GID)
	le.PutUint64(b[12:], in.Size)
	le.PutUint64(b[20:], uint64(in.Atime))
	le.PutUint64(b[28:], uint64(in.Mtime))
	le.PutUint64(b[36:], uint64(in.Ctime))
	off := 44
	for i := range in.Direct {
		le.PutUint64(b[off:], in.Direct[i])
		off += 8
	}
	for i := range in.Intern {
		le.PutUint64(b[off:], in.Intern[i])
		off += 8
	}
}

func (in *inode) unmarshal(b []byte) {
	le := binary.LittleEndian
	in.Mode = le.Uint16(b[0:])
	in.Links = le.Uint16(b[2:])
	in.UID = le.Uint32(b[4:])
	in.GID = le.Uint32(b[8:])
	in.Size = le.Uint64(b[12:])
	in.Atime = int64(le.Uint64(b[20:]))
	in.Mtime = int64(le.Uint64(b[28:]))
	in.Ctime = int64(le.Uint64(b[36:]))
	off := 44
	for i := range in.Direct {
		in.Direct[i] = le.Uint64(b[off:])
		off += 8
	}
	for i := range in.Intern {
		in.Intern[i] = le.Uint64(b[off:])
		off += 8
	}
}
