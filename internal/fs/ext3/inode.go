package ext3

import (
	"encoding/binary"

	"ironfs/internal/namei"
)

// inode is the in-memory form of an on-disk inode. The file type sits in
// the mode's high nibble (namei.TypedAttr).
type inode struct {
	namei.TypedAttr
	Flags  uint32
	Parity uint64 // XOR of the file's data (ixt3 Dp), born with its first block, freed by truncate to 0; 0 = none
	Direct [DirectBlocks]uint64
	Ind    uint64
	DInd   uint64
	TInd   uint64
}

// WithAttrs implements namei.Node.
func (in inode) WithAttrs(a namei.Attr) inode { in.Attr = a; return in }

// unmapped reports whether the inode has no block pointers at all.
func (in *inode) unmapped() bool {
	return in.Direct == [DirectBlocks]uint64{} && in.Ind == 0 && in.DInd == 0 && in.TInd == 0
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
	le.PutUint32(b[44:], in.Flags)
	le.PutUint64(b[48:], in.Parity)
	off := 56
	for i := 0; i < DirectBlocks; i++ {
		le.PutUint64(b[off:], in.Direct[i])
		off += 8
	}
	le.PutUint64(b[off:], in.Ind)
	le.PutUint64(b[off+8:], in.DInd)
	le.PutUint64(b[off+16:], in.TInd)
	// Remaining bytes up to InodeSize are reserved and left untouched.
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
	in.Flags = le.Uint32(b[44:])
	in.Parity = le.Uint64(b[48:])
	off := 56
	for i := 0; i < DirectBlocks; i++ {
		in.Direct[i] = le.Uint64(b[off:])
		off += 8
	}
	in.Ind = le.Uint64(b[off:])
	in.DInd = le.Uint64(b[off+8:])
	in.TInd = le.Uint64(b[off+16:])
}
