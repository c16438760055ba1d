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

// dirWalk yields the entries of a directory's blocks in order: every
// mapped block below the floor of its size, read as BTDir. Holes are
// skipped an unallocated subtree at a time (bmapNext), and a mapped block
// costs the indirect reads bmap makes for it.
type dirWalk struct {
	fs *FS
	// in is the directory's inode, a copy: a pointer would share fs's
	// escape, and move every lookup's inode to the heap.
	in     inode
	l, end int64
	// phys is the block holding the entry next returned last.
	phys int64
	it   dirIter
	// err is what ended the walk early.
	err error
}

func (fs *FS) walkDir(in inode) dirWalk {
	return dirWalk{fs: fs, in: in, end: int64(in.Size) / BlockSize}
}

// next returns the next entry, live or free; false at the end or on an
// error, which err then holds.
func (w *dirWalk) next() (dirEntry, bool) {
	for {
		if w.phys != 0 {
			if e, ok := w.it.next(); ok {
				return e, true
			}
		}
		if w.l >= w.end {
			return dirEntry{}, false
		}
		phys, next, err := w.fs.bmapNext(&w.in, w.l)
		if err != nil {
			w.err = err
			return dirEntry{}, false
		}
		w.l = next
		if phys == 0 {
			continue
		}
		buf, err := w.fs.readMeta(phys, BTDir)
		if err != nil {
			w.err = err
			return dirEntry{}, false
		}
		w.phys, w.it = phys, dirBlockIter(buf)
	}
}

// LookupLocked implements namei.Store.
func (fs *FS) LookupLocked(_ uint32, in inode, name string) (uint32, byte, error) {
	w := fs.walkDir(in)
	for e, ok := w.next(); ok; e, ok = w.next() {
		if e.Ino != 0 && string(e.Name) == name {
			return e.Ino, e.FType, nil
		}
	}
	if w.err != nil {
		return 0, 0, w.err
	}
	return 0, 0, vfs.ErrNotExist
}

// DirListLocked implements namei.Store: every live entry.
func (fs *FS) DirListLocked(_ uint32, in inode) ([]vfs.DirEntry, error) {
	var out []vfs.DirEntry
	w := fs.walkDir(in)
	for e, ok := w.next(); ok; e, ok = w.next() {
		if e.Ino != 0 {
			out = append(out, vfs.DirEntry{Name: string(e.Name), Ino: e.Ino, Type: vfs.FileType(e.FType)})
		}
	}
	if w.err != nil {
		return nil, w.err
	}
	return out, nil
}

// DirEmptyLocked implements namei.Store: no live entries. It walks every
// block, as a listing does, so its reads are a listing's.
func (fs *FS) DirEmptyLocked(_ uint32, in inode) (bool, error) {
	live := 0
	w := fs.walkDir(in)
	for e, ok := w.next(); ok; e, ok = w.next() {
		if e.Ino != 0 {
			live++
		}
	}
	if w.err != nil {
		return false, w.err
	}
	return live == 0, nil
}

// DirAddLocked implements namei.Store: it inserts (name → ino) and returns
// the directory's inode, which may have gained a block and is not stored.
func (fs *FS) DirAddLocked(_ uint32, in inode, name string, ino uint32, ftype byte) (inode, error) {
	if len(name) > vfs.MaxNameLen {
		return in, vfs.ErrNameTooLong
	}
	need := entryLen(len(name))
	w := fs.walkDir(in)
	for e, ok := w.next(); ok; e, ok = w.next() {
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
		mbuf, err := fs.txMeta(w.phys, BTDir)
		if err != nil {
			return in, err
		}
		if e.Ino != 0 {
			// Shrink the existing record to its used size.
			binary.LittleEndian.PutUint16(mbuf[e.blkOff+4:], uint16(entryLen(len(e.Name))))
		}
		writeEntry(mbuf, newOff, ino, avail, name, ftype)
		return in, nil
	}
	if w.err != nil {
		return in, w.err
	}

	// No room: append a fresh directory block.
	phys, err := fs.bmap(&in, w.end, true)
	if err != nil {
		return in, err
	}
	buf := fs.txMetaNew(phys, BTDir)
	writeEntry(buf, 0, ino, BlockSize, name, ftype)
	in.Size += BlockSize
	return in, nil
}

// DirRemoveLocked implements namei.Store: it deletes name's entry,
// coalescing its space into the previous record.
func (fs *FS) DirRemoveLocked(_ uint32, in inode, name string) error {
	w := fs.walkDir(in)
	for e, ok := w.next(); ok; e, ok = w.next() {
		if e.Ino == 0 || string(e.Name) != name {
			continue
		}
		mbuf, err := fs.txMeta(w.phys, BTDir)
		if err != nil {
			return err
		}
		if e.prevOff >= 0 {
			prevRec := int(binary.LittleEndian.Uint16(mbuf[e.prevOff+4:]))
			binary.LittleEndian.PutUint16(mbuf[e.prevOff+4:], uint16(prevRec+e.RecLen))
		} else {
			binary.LittleEndian.PutUint32(mbuf[e.blkOff:], 0)
			mbuf[e.blkOff+6] = 0
		}
		return nil
	}
	if w.err != nil {
		return w.err
	}
	return vfs.ErrNotExist
}
