package ext3

import (
	"encoding/binary"

	"ironfs/internal/vfs"
)

// Directory blocks hold a packed sequence of entries:
//
//	ino(4) recLen(2) nameLen(1) ftype(1) name(nameLen) pad
//
// recLen is 8-aligned and entries chain exactly to the block end. An entry
// with ino == 0 is free space. This mirrors ext2/3's layout closely enough
// that the paper's policy findings carry over: stock ext3 performs no type
// or sanity checking on directory blocks (§5.1), so this code parses them
// defensively but *silently* — a corrupt block just yields fewer entries.

const dirHdrLen = 8

// dirEntry is a directory entry read in place.
type dirEntry struct {
	Ino     uint32
	RecLen  int
	Name    []byte // aliases the block
	FType   byte
	blkOff  int // byte offset of the entry within its block
	prevOff int // byte offset of the previous live-or-free entry, -1 if first
}

// entryLen returns the 8-aligned space needed to store a name.
func entryLen(nameLen int) int {
	return (dirHdrLen + nameLen + 7) &^ 7
}

// dirIter walks the entries of one directory block in place. Malformed
// records terminate the walk without error (the stock-ext3 DZero policy).
type dirIter struct {
	buf       []byte
	off, prev int
}

func dirBlockIter(buf []byte) dirIter { return dirIter{buf: buf, prev: -1} }

func (it *dirIter) next() (dirEntry, bool) {
	buf, off := it.buf, it.off
	if off+dirHdrLen > BlockSize {
		return dirEntry{}, false
	}
	le := binary.LittleEndian
	rec := int(le.Uint16(buf[off+4:]))
	nameLen := int(buf[off+6])
	if rec < dirHdrLen || off+rec > BlockSize || rec%8 != 0 || dirHdrLen+nameLen > rec {
		return dirEntry{}, false // corrupt chain: stop quietly
	}
	e := dirEntry{
		Ino:     le.Uint32(buf[off:]),
		RecLen:  rec,
		FType:   buf[off+7],
		Name:    buf[off+dirHdrLen : off+dirHdrLen+nameLen],
		blkOff:  off,
		prevOff: it.prev,
	}
	it.prev, it.off = off, off+rec
	return e, true
}

// writeEntry serializes an entry at offset off.
func writeEntry(buf []byte, off int, ino uint32, recLen int, name string, ftype byte) {
	le := binary.LittleEndian
	le.PutUint32(buf[off:], ino)
	le.PutUint16(buf[off+4:], uint16(recLen))
	buf[off+6] = byte(len(name))
	buf[off+7] = ftype
	copy(buf[off+dirHdrLen:], name)
}

// dirLookup finds name in the directory, returning its inode number.
func (fs *FS) dirLookup(in *inode, name string) (uint32, byte, error) {
	nblocks := int64(in.Size) / BlockSize
	for l := int64(0); l < nblocks; l++ {
		phys, err := fs.bmap(in, l, false)
		if err != nil {
			return 0, 0, err
		}
		if phys == 0 {
			continue
		}
		buf, err := fs.readMeta(phys, BTDir)
		if err != nil {
			return 0, 0, err
		}
		it := dirBlockIter(buf)
		for e, ok := it.next(); ok; e, ok = it.next() {
			if e.Ino != 0 && string(e.Name) == name {
				return e.Ino, e.FType, nil
			}
		}
	}
	return 0, 0, vfs.ErrNotExist
}

// dirList returns all live entries of the directory.
func (fs *FS) dirList(in *inode) ([]vfs.DirEntry, error) {
	var out []vfs.DirEntry
	nblocks := int64(in.Size) / BlockSize
	for l := int64(0); l < nblocks; l++ {
		phys, err := fs.bmap(in, l, false)
		if err != nil {
			return nil, err
		}
		if phys == 0 {
			continue
		}
		buf, err := fs.readMeta(phys, BTDir)
		if err != nil {
			return nil, err
		}
		it := dirBlockIter(buf)
		for e, ok := it.next(); ok; e, ok = it.next() {
			if e.Ino != 0 {
				out = append(out, vfs.DirEntry{Name: string(e.Name), Ino: e.Ino, Type: vfs.FileType(e.FType)})
			}
		}
	}
	return out, nil
}

// dirIsEmpty reports whether the directory holds no live entries.
func (fs *FS) dirIsEmpty(in *inode) (bool, error) {
	entries, err := fs.dirList(in)
	if err != nil {
		return false, err
	}
	return len(entries) == 0, nil
}

// dirAdd inserts (name → ino). dirIno is the directory's inode number and
// in its in-memory inode, which may gain a block (caller must StoreLocked).
func (fs *FS) dirAdd(dirIno uint32, in *inode, name string, ino uint32, ftype byte) error {
	if len(name) > vfs.MaxNameLen {
		return vfs.ErrNameTooLong
	}
	need := entryLen(len(name))
	nblocks := int64(in.Size) / BlockSize

	for l := int64(0); l < nblocks; l++ {
		phys, err := fs.bmap(in, l, false)
		if err != nil {
			return err
		}
		if phys == 0 {
			continue
		}
		buf, err := fs.readMeta(phys, BTDir)
		if err != nil {
			return err
		}
		it := dirBlockIter(buf)
		for e, ok := it.next(); ok; e, ok = it.next() {
			var avail, newOff int
			if e.Ino == 0 {
				avail, newOff = e.RecLen, e.blkOff
			} else {
				used := entryLen(len(e.Name))
				avail, newOff = e.RecLen-used, e.blkOff+used
			}
			if avail < need {
				continue
			}
			mbuf, err := fs.txMeta(phys, BTDir)
			if err != nil {
				return err
			}
			if e.Ino != 0 {
				// Shrink the existing record to its used size.
				binary.LittleEndian.PutUint16(mbuf[e.blkOff+4:], uint16(entryLen(len(e.Name))))
			}
			writeEntry(mbuf, newOff, ino, avail, name, ftype)
			return nil
		}
	}

	// No room: append a fresh directory block.
	phys, err := fs.bmap(in, nblocks, true)
	if err != nil {
		return err
	}
	buf := fs.txMetaNew(phys, BTDir)
	writeEntry(buf, 0, ino, BlockSize, name, ftype)
	in.Size += BlockSize
	return nil
}

// dirRemove deletes name's entry, coalescing its space into the previous
// record. It returns the removed entry's inode number.
func (fs *FS) dirRemove(in *inode, name string) (uint32, error) {
	nblocks := int64(in.Size) / BlockSize
	for l := int64(0); l < nblocks; l++ {
		phys, err := fs.bmap(in, l, false)
		if err != nil {
			return 0, err
		}
		if phys == 0 {
			continue
		}
		buf, err := fs.readMeta(phys, BTDir)
		if err != nil {
			return 0, err
		}
		it := dirBlockIter(buf)
		for e, ok := it.next(); ok; e, ok = it.next() {
			if e.Ino == 0 || string(e.Name) != name {
				continue
			}
			mbuf, err := fs.txMeta(phys, BTDir)
			if err != nil {
				return 0, err
			}
			if e.prevOff >= 0 {
				prevRec := int(binary.LittleEndian.Uint16(mbuf[e.prevOff+4:]))
				binary.LittleEndian.PutUint16(mbuf[e.prevOff+4:], uint16(prevRec+e.RecLen))
			} else {
				binary.LittleEndian.PutUint32(mbuf[e.blkOff:], 0)
				mbuf[e.blkOff+6] = 0
			}
			return e.Ino, nil
		}
	}
	return 0, vfs.ErrNotExist
}
