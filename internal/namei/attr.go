package namei

import "ironfs/internal/vfs"

// permMask selects the permission bits of a mode. A caller's mode is
// masked with it on the way in (create, chmod) and a stored mode on the way
// out (stat), so type bits a caller passes are never stored or returned.
const permMask = uint16(0x0FFF)

// Attr is the attribute set every file system's inode, stat item or MFT
// record carries. A file system embeds it in its own node type next to its
// block map; the namespace layer reads and writes nothing else of a node.
type Attr struct {
	Mode  uint16
	Links uint16
	UID   uint32
	GID   uint32
	Size  uint64
	Atime int64
	Mtime int64
	Ctime int64
}

// Attrs returns a copy of the node's attributes; embedding promotes it
// onto the file system's node type, which with WithAttrs makes that type a
// Node.
func (a Attr) Attrs() Attr { return a }

// info is the VFS stat form of the attributes.
func (a Attr) info(ino uint32, t vfs.FileType) vfs.FileInfo {
	return vfs.FileInfo{
		Ino:   ino,
		Type:  t,
		Size:  int64(a.Size),
		Links: a.Links,
		Mode:  a.Mode & permMask,
		UID:   a.UID,
		GID:   a.GID,
		Atime: a.Atime,
		Mtime: a.Mtime,
		Ctime: a.Ctime,
	}
}

// File-type values of a TypedAttr mode's high nibble.
const (
	ModeRegular = uint16(0x1000)
	ModeDir     = uint16(0x2000)
	ModeSymlink = uint16(0x3000)
	ModeTypeMsk = ^permMask
)

// TypedAttr is Attr for the file systems that keep the file type in the
// mode's high nibble, above the permission bits: ext3, ReiserFS and JFS.
// (NTFS keeps it in its record flags and embeds a plain Attr.) A zero mode
// is a free slot.
type TypedAttr struct{ Attr }

// Typed returns a with kind stored in its mode.
func Typed(kind vfs.FileType, a Attr) TypedAttr {
	bits := ModeRegular
	switch kind {
	case vfs.TypeDirectory:
		bits = ModeDir
	case vfs.TypeSymlink:
		bits = ModeSymlink
	}
	a.Mode = bits | a.Mode&permMask
	return TypedAttr{a}
}

// FileType decodes the mode's type nibble; anything unknown reads as a
// regular file.
func (t TypedAttr) FileType() vfs.FileType {
	switch t.Mode & ModeTypeMsk {
	case ModeDir:
		return vfs.TypeDirectory
	case ModeSymlink:
		return vfs.TypeSymlink
	default:
		return vfs.TypeRegular
	}
}

func (t TypedAttr) IsDir() bool     { return t.Mode&ModeTypeMsk == ModeDir }
func (t TypedAttr) Allocated() bool { return t.Mode != 0 }
