package jfs

import (
	"encoding/binary"
	"slices"

	"ironfs/internal/iron"
	"ironfs/internal/namei"
	"ironfs/internal/vfs"
)

// Allocation, inodes, directories, file mapping, and the namei.Store the
// shared path walk runs on.

// ---------------------------------------------------------------------------
// Allocation maps.
// ---------------------------------------------------------------------------

const bitsPerBlock = BlockSize * 8

// writeBMapDesc logs the descriptor (both field copies) after a change.
func (fs *FS) writeBMapDesc() error {
	buf := make([]byte, 32)
	fs.bmd.FreeCheck = fs.bmd.Free
	fs.bmd.marshal(buf)
	return fs.logMeta(bmapDescBlk, 0, buf, BTBMapDesc)
}

// writeIMapCtl logs the imap control page after a change.
func (fs *FS) writeIMapCtl() error {
	buf := make([]byte, 32)
	fs.imc.marshal(buf)
	return fs.logMeta(int64(fs.sb.IMapCtl), 0, buf, BTIMapCtl)
}

// allocBlock finds and claims a free block.
func (fs *FS) allocBlock() (int64, error) {
	for bm := int64(0); bm < int64(fs.sb.BMapLen); bm++ {
		bmBlk := int64(fs.sb.BMapStart) + bm
		buf, err := fs.readMeta(bmBlk, BTBMap)
		if err != nil {
			return 0, err
		}
		for i := 0; i < BlockSize; i++ {
			if buf[i] == 0xFF {
				continue
			}
			for bit := 0; bit < 8; bit++ {
				if buf[i]&(1<<bit) != 0 {
					continue
				}
				blk := bm*bitsPerBlock + int64(i)*8 + int64(bit)
				if blk >= int64(fs.sb.BlockCount) {
					return 0, vfs.ErrNoSpace
				}
				if err := fs.logMeta(bmBlk, i, []byte{buf[i] | 1<<bit}, BTBMap); err != nil {
					return 0, err
				}
				if fs.bmd.Free > 0 {
					fs.bmd.Free--
				}
				if err := fs.writeBMapDesc(); err != nil {
					return 0, err
				}
				return blk, nil
			}
		}
	}
	return 0, vfs.ErrNoSpace
}

// freeBlock releases blk.
func (fs *FS) freeBlock(blk int64) error {
	if blk <= 0 || blk >= int64(fs.sb.BlockCount) {
		return nil // wild pointer: no sanity checking here, silently skipped
	}
	bmBlk := int64(fs.sb.BMapStart) + blk/bitsPerBlock
	buf, err := fs.readMeta(bmBlk, BTBMap)
	if err != nil {
		return err
	}
	i := int((blk % bitsPerBlock) / 8)
	bit := uint(blk % 8)
	if buf[i]&(1<<bit) != 0 {
		if err := fs.logMeta(bmBlk, i, []byte{buf[i] &^ (1 << bit)}, BTBMap); err != nil {
			return err
		}
		fs.bmd.Free++
		if err := fs.writeBMapDesc(); err != nil {
			return err
		}
	}
	// The freed block leaves the transaction whole: its staged image, and
	// the redo records that would replay over its next owner.
	if fs.tx.Meta.Payload(blk) != nil {
		fs.records = slices.DeleteFunc(fs.records, func(r redoRec) bool { return r.Blk == blk })
	}
	fs.tx.Drop(blk)
	return nil
}

// allocInode claims a free inode number.
func (fs *FS) allocInode() (uint32, error) {
	for im := int64(0); im < int64(fs.sb.IMapLen); im++ {
		imBlk := int64(fs.sb.IMapStart) + im
		buf, err := fs.readMeta(imBlk, BTIMap)
		if err != nil {
			return 0, err
		}
		for i := 0; i < BlockSize; i++ {
			if buf[i] == 0xFF {
				continue
			}
			for bit := 0; bit < 8; bit++ {
				if buf[i]&(1<<bit) != 0 {
					continue
				}
				ino := uint32(im*bitsPerBlock+int64(i)*8+int64(bit)) + 1
				if uint64(ino) > fs.imc.TotInodes {
					return 0, vfs.ErrNoInodes
				}
				if err := fs.logMeta(imBlk, i, []byte{buf[i] | 1<<bit}, BTIMap); err != nil {
					return 0, err
				}
				if fs.imc.FreeInodes > 0 {
					fs.imc.FreeInodes--
				}
				if err := fs.writeIMapCtl(); err != nil {
					return 0, err
				}
				return ino, nil
			}
		}
	}
	return 0, vfs.ErrNoInodes
}

// freeInode releases an inode number.
func (fs *FS) freeInode(ino uint32) error {
	if ino == 0 || uint64(ino) > fs.imc.TotInodes {
		return nil
	}
	idx := int64(ino - 1)
	imBlk := int64(fs.sb.IMapStart) + idx/bitsPerBlock
	buf, err := fs.readMeta(imBlk, BTIMap)
	if err != nil {
		return err
	}
	i := int((idx % bitsPerBlock) / 8)
	bit := uint(idx % 8)
	if buf[i]&(1<<bit) != 0 {
		if err := fs.logMeta(imBlk, i, []byte{buf[i] &^ (1 << bit)}, BTIMap); err != nil {
			return err
		}
		fs.imc.FreeInodes++
		if err := fs.writeIMapCtl(); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Inodes.
// ---------------------------------------------------------------------------

func (fs *FS) inodeLoc(ino uint32) (int64, int, error) {
	if ino == 0 || uint64(ino) > fs.imc.TotInodes {
		return 0, 0, vfs.ErrInval
	}
	idx := int64(ino - 1)
	return int64(fs.sb.ITabStart) + idx/InodesPB, int(idx%InodesPB) * InodeSize, nil
}

// LoadLocked implements namei.Store: it reads an inode, applying JFS's
// entry-count-style sanity checks (size bound, valid type bits). A
// violation propagates and remounts read-only (§5.3).
func (fs *FS) LoadLocked(ino uint32) (inode, error) {
	var in inode
	blk, off, err := fs.inodeLoc(ino)
	if err != nil {
		return in, err
	}
	buf, err := fs.readMeta(blk, BTInode)
	if err != nil {
		return in, err
	}
	in.unmarshal(buf[off : off+InodeSize])
	if in.Allocated() {
		if int64(in.Size) > maxFileBlocks*BlockSize {
			fs.rec.Detect(iron.DSanity, BTInode, "inode size exceeds maximum")
			fs.rec.Recover(iron.RPropagate, BTInode, "error propagated")
			fs.remountRO(BTInode, "inode sanity failure")
			return inode{}, vfs.ErrCorrupt
		}
		switch in.Mode & namei.ModeTypeMsk {
		case namei.ModeRegular, namei.ModeDir, namei.ModeSymlink:
		default:
			fs.rec.Detect(iron.DSanity, BTInode, "inode type bits invalid")
			fs.rec.Recover(iron.RPropagate, BTInode, "error propagated")
			fs.remountRO(BTInode, "inode sanity failure")
			return inode{}, vfs.ErrCorrupt
		}
	}
	return in, nil
}

// StoreLocked implements namei.Store: it logs the inode's new image (a
// 256-byte redo record — the record-level journaling JFS is known for).
func (fs *FS) StoreLocked(ino uint32, in inode) error {
	blk, off, err := fs.inodeLoc(ino)
	if err != nil {
		return err
	}
	img := make([]byte, InodeSize)
	in.marshal(img)
	fs.tx.Touch(ino)
	return fs.logMeta(blk, off, img, BTInode)
}

// clearInode zeroes an inode slot.
func (fs *FS) clearInode(ino uint32) error {
	blk, off, err := fs.inodeLoc(ino)
	if err != nil {
		return err
	}
	fs.tx.Touch(ino)
	return fs.logMeta(blk, off, make([]byte, InodeSize), BTInode)
}

// ---------------------------------------------------------------------------
// File block mapping: direct extents + internal pointer blocks.
// ---------------------------------------------------------------------------

// readInternal reads an internal pointer block with its entry-count sanity
// check. guessOnFail selects the reproduced RGuess bug: on a failed check
// during a *read* path, JFS hands back a blank page instead of an error.
func (fs *FS) readInternal(blk int64, guessOnFail bool) ([]byte, error) {
	buf, err := fs.readMeta(blk, BTInternal)
	if err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(buf[0:])
	if count > ptrsPerInt {
		fs.rec.Detect(iron.DSanity, BTInternal, "internal block entry count out of range")
		if guessOnFail {
			fs.rec.Recover(iron.RGuess, BTInternal, "blank page returned to user")
			return make([]byte, BlockSize), nil
		}
		fs.rec.Recover(iron.RPropagate, BTInternal, "error propagated")
		fs.remountRO(BTInternal, "internal block sanity failure")
		return nil, vfs.ErrCorrupt
	}
	return buf, nil
}

// blockPtr maps logical file block l; alloc creates missing levels. The
// caller must StoreLocked if the inode changed. readPath selects the RGuess
// behavior for sanity failures.
func (fs *FS) blockPtr(in *inode, l int64, alloc, readPath bool) (int64, error) {
	if l < 0 || l >= maxFileBlocks {
		return 0, vfs.ErrInval
	}
	if l < directExts {
		if in.Direct[l] == 0 && alloc {
			blk, err := fs.allocBlock()
			if err != nil {
				return 0, err
			}
			in.Direct[l] = uint64(blk)
		}
		return int64(in.Direct[l]), nil
	}
	g := (l - directExts) / ptrsPerInt
	idx := (l - directExts) % ptrsPerInt
	if in.Intern[g] == 0 {
		if !alloc {
			return 0, nil
		}
		blk, err := fs.allocBlock()
		if err != nil {
			return 0, err
		}
		fs.logNewMeta(blk, BTInternal)
		in.Intern[g] = uint64(blk)
	}
	ib := int64(in.Intern[g])
	buf, err := fs.readInternal(ib, readPath && !alloc)
	if err != nil {
		return 0, err
	}
	ptr := int64(binary.LittleEndian.Uint64(buf[8+idx*8:]))
	if ptr == 0 && alloc {
		blk, err := fs.allocBlock()
		if err != nil {
			return 0, err
		}
		var rec [8]byte
		binary.LittleEndian.PutUint64(rec[:], uint64(blk))
		if err := fs.logMeta(ib, int(8+idx*8), rec[:], BTInternal); err != nil {
			return 0, err
		}
		count := binary.LittleEndian.Uint32(buf[0:])
		if uint32(idx)+1 > count {
			var cb [4]byte
			binary.LittleEndian.PutUint32(cb[:], uint32(idx)+1)
			if err := fs.logMeta(ib, 0, cb[:], BTInternal); err != nil {
				return 0, err
			}
		}
		ptr = blk
	}
	return ptr, nil
}

// freeFileBlocks releases all blocks past newSize and unused internal
// blocks.
func (fs *FS) freeFileBlocks(in *inode, newSize int64) error {
	keep := (newSize + BlockSize - 1) / BlockSize
	old := (int64(in.Size) + BlockSize - 1) / BlockSize
	for l := keep; l < old && l < directExts; l++ {
		if in.Direct[l] != 0 {
			if err := fs.freeBlock(int64(in.Direct[l])); err != nil {
				return err
			}
			in.Direct[l] = 0
		}
	}
	for g := int64(0); g < internPtrs; g++ {
		if in.Intern[g] == 0 {
			continue
		}
		base := directExts + g*ptrsPerInt
		if base+ptrsPerInt <= keep {
			continue
		}
		ib := int64(in.Intern[g])
		buf, err := fs.readInternal(ib, false)
		if err != nil {
			return err
		}
		live := 0
		for idx := int64(0); idx < ptrsPerInt; idx++ {
			ptr := int64(binary.LittleEndian.Uint64(buf[8+idx*8:]))
			if ptr == 0 {
				continue
			}
			if base+idx >= keep {
				if err := fs.freeBlock(ptr); err != nil {
					return err
				}
				var z [8]byte
				if err := fs.logMeta(ib, int(8+idx*8), z[:], BTInternal); err != nil {
					return err
				}
			} else {
				live++
			}
		}
		if live == 0 {
			if err := fs.freeBlock(ib); err != nil {
				return err
			}
			in.Intern[g] = 0
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Directories: blocks with an entry count header (sanity-checked) followed
// by packed entries [ino u32, ftype u8, nameLen u8, name].
// ---------------------------------------------------------------------------

const dirEntHdr = 6

type dirEnt struct {
	Ino   uint32
	FType byte
	Name  []byte // aliases the block
	off   int    // byte offset in block
	end   int
}

// dirIter walks the entries of one directory block in place.
type dirIter struct {
	buf  []byte
	left uint32 // entries the count header still promises
	off  int
}

// iterDir starts a walk of a directory block, applying the entry-count
// sanity check JFS performs on directory blocks.
func (fs *FS) iterDir(buf []byte) (dirIter, error) {
	count := binary.LittleEndian.Uint32(buf[0:])
	if count > maxEntsDir {
		fs.rec.Detect(iron.DSanity, BTDir, "directory entry count out of range")
		fs.rec.Recover(iron.RPropagate, BTDir, "error propagated")
		fs.remountRO(BTDir, "directory sanity failure")
		return dirIter{}, vfs.ErrCorrupt
	}
	return dirIter{buf: buf, left: count, off: 4}, nil
}

// next returns the next entry; a truncated chain just ends the walk
// (believed silently: the block carries no type information).
func (it *dirIter) next() (dirEnt, bool) {
	buf, off := it.buf, it.off
	if it.left == 0 || off+dirEntHdr > BlockSize {
		return dirEnt{}, false
	}
	end := off + dirEntHdr + int(buf[off+5])
	if end > BlockSize || end == off+dirEntHdr {
		return dirEnt{}, false
	}
	it.left, it.off = it.left-1, end
	return dirEnt{
		Ino:   binary.LittleEndian.Uint32(buf[off:]),
		FType: buf[off+4],
		Name:  buf[off+dirEntHdr : end],
		off:   off,
		end:   end,
	}, true
}

// dirBlocks iterates a directory's data blocks.
func (fs *FS) dirBlocks(in *inode, fn func(blk int64, buf []byte, it dirIter) (bool, error)) error {
	nblocks := (int64(in.Size) + BlockSize - 1) / BlockSize
	for l := int64(0); l < nblocks; l++ {
		blk, err := fs.blockPtr(in, l, false, true)
		if err != nil {
			return err
		}
		if blk == 0 {
			continue
		}
		buf, err := fs.readMeta(blk, BTDir)
		if err != nil {
			return err
		}
		it, err := fs.iterDir(buf)
		if err != nil {
			return err
		}
		stop, err := fn(blk, buf, it)
		if err != nil || stop {
			return err
		}
	}
	return nil
}

// LookupLocked implements namei.Store.
func (fs *FS) LookupLocked(_ uint32, in inode, name string) (uint32, byte, error) {
	var ino uint32
	var ftype byte
	err := fs.dirBlocks(&in, func(_ int64, _ []byte, it dirIter) (bool, error) {
		for e, ok := it.next(); ok; e, ok = it.next() {
			if string(e.Name) == name {
				ino, ftype = e.Ino, e.FType
				return true, nil
			}
		}
		return false, nil
	})
	if err != nil {
		return 0, 0, err
	}
	if ino == 0 {
		return 0, 0, vfs.ErrNotExist
	}
	return ino, ftype, nil
}

// DirAddLocked implements namei.Store: it appends an entry, extending the
// directory by a block when full.
func (fs *FS) DirAddLocked(dirIno uint32, in inode, name string, ino uint32, ftype byte) (inode, error) {
	if len(name) > vfs.MaxNameLen {
		return in, vfs.ErrNameTooLong
	}
	need := dirEntHdr + len(name)
	ent := make([]byte, need)
	binary.LittleEndian.PutUint32(ent[0:], ino)
	ent[4] = ftype
	ent[5] = byte(len(name))
	copy(ent[dirEntHdr:], name)

	done := false
	err := fs.dirBlocks(&in, func(blk int64, buf []byte, it dirIter) (bool, error) {
		n, end := 0, 4
		for e, ok := it.next(); ok; e, ok = it.next() {
			n, end = n+1, e.end
		}
		if end+need > BlockSize || n >= maxEntsDir {
			return false, nil
		}
		var cb [4]byte
		binary.LittleEndian.PutUint32(cb[:], uint32(n+1))
		if err := fs.logMeta(blk, 0, cb[:], BTDir); err != nil {
			return false, err
		}
		if err := fs.logMeta(blk, end, ent, BTDir); err != nil {
			return false, err
		}
		done = true
		return true, nil
	})
	if err != nil || done {
		return in, err
	}
	// Append a fresh directory block.
	l := (int64(in.Size) + BlockSize - 1) / BlockSize
	blk, err := fs.blockPtr(&in, l, true, false)
	if err != nil {
		return in, err
	}
	var cb [4]byte
	binary.LittleEndian.PutUint32(cb[:], 1)
	if err := fs.logMeta(blk, 0, cb[:], BTDir); err != nil {
		return in, err
	}
	if err := fs.logMeta(blk, 4, ent, BTDir); err != nil {
		return in, err
	}
	in.Size = uint64((l + 1) * BlockSize)
	return in, fs.StoreLocked(dirIno, in)
}

// DirRemoveLocked implements namei.Store: it deletes an entry, compacting
// the block.
func (fs *FS) DirRemoveLocked(_ uint32, in inode, name string) error {
	var removed uint32
	err := fs.dirBlocks(&in, func(blk int64, buf []byte, it dirIter) (bool, error) {
		var gone dirEnt
		found := false
		n, end := 0, 4
		for e, ok := it.next(); ok; e, ok = it.next() {
			if !found && string(e.Name) == name {
				gone, found = e, true
			}
			n, end = n+1, e.end
		}
		if !found {
			return false, nil
		}
		removed = gone.Ino
		// The later entries move down whole, zeros behind them.
		span := make([]byte, end-gone.off)
		copy(span, buf[gone.end:end])
		var cb [4]byte
		binary.LittleEndian.PutUint32(cb[:], uint32(n-1))
		if err := fs.logMeta(blk, 0, cb[:], BTDir); err != nil {
			return false, err
		}
		if err := fs.logMeta(blk, gone.off, span, BTDir); err != nil {
			return false, err
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	if removed == 0 {
		return vfs.ErrNotExist
	}
	return nil
}

// DirEmptyLocked implements namei.Store.
func (fs *FS) DirEmptyLocked(_ uint32, in inode) (bool, error) {
	empty := true
	err := fs.dirBlocks(&in, func(_ int64, _ []byte, it dirIter) (bool, error) {
		_, has := it.next()
		empty = !has
		return has, nil
	})
	return empty, err
}

// ---------------------------------------------------------------------------
// namei.Store: what the shared path walk asks of JFS.
// ---------------------------------------------------------------------------

// RootLocked implements namei.Store.
func (fs *FS) RootLocked() (uint32, inode, error) {
	in, err := fs.LoadLocked(RootIno)
	return RootIno, in, err
}

// KeyOf implements namei.Store: the inode number.
func (fs *FS) KeyOf(ino uint32) uint64 { return uint64(ino) }

// ReadLinkLocked implements namei.Store: the target is the link's single
// data block.
func (fs *FS) ReadLinkLocked(_ uint32, in inode) (string, error) {
	if in.Size == 0 || in.Size > BlockSize {
		return "", vfs.ErrCorrupt
	}
	blk, err := fs.blockPtr(&in, 0, false, true)
	if err != nil {
		return "", err
	}
	if blk == 0 {
		return "", vfs.ErrCorrupt
	}
	buf := make([]byte, in.Size)
	if !fs.cache.GetInto(blk, 0, buf) {
		load := func(f []byte) error { return fs.loadData(blk, f) }
		if err := fs.cache.MissInto(blk, 0, buf, load); err != nil {
			return "", err
		}
	}
	return string(buf), nil
}

// CreateLocked implements namei.Store.
func (fs *FS) CreateLocked(pIno uint32, pIn inode, name string, kind vfs.FileType, a namei.Attr) (uint32, inode, error) {
	ino, err := fs.allocInode()
	if err != nil {
		return 0, inode{}, err
	}
	in := inode{TypedAttr: namei.Typed(kind, a)}
	if pIn, err = fs.DirAddLocked(pIno, pIn, name, ino, byte(kind)); err != nil {
		return 0, inode{}, err
	}
	pIn.Mtime = a.Mtime
	if err := fs.StoreLocked(pIno, pIn); err != nil {
		return 0, inode{}, err
	}
	if err := fs.StoreLocked(ino, in); err != nil {
		return 0, inode{}, err
	}
	return ino, in, nil
}

// DirListLocked implements namei.Store.
func (fs *FS) DirListLocked(_ uint32, in inode) ([]vfs.DirEntry, error) {
	var out []vfs.DirEntry
	err := fs.dirBlocks(&in, func(_ int64, _ []byte, it dirIter) (bool, error) {
		for e, ok := it.next(); ok; e, ok = it.next() {
			out = append(out, vfs.DirEntry{Name: string(e.Name), Ino: e.Ino, Type: vfs.FileType(e.FType)})
		}
		return false, nil
	})
	return out, err
}

// DirChangedLocked implements namei.Store: the directory's mtime.
func (fs *FS) DirChangedLocked(ino uint32, in inode) (inode, error) {
	in.Mtime = fs.Now()
	return in, fs.StoreLocked(ino, in)
}

// FreeLocked implements namei.Store: the blocks, the map bit, then the
// table slot.
func (fs *FS) FreeLocked(ino uint32, in inode) error {
	if err := fs.freeFileBlocks(&in, 0); err != nil {
		return err
	}
	if err := fs.freeInode(ino); err != nil {
		return err
	}
	return fs.clearInode(ino)
}

// WriteLinkLocked implements namei.Store: the target is the link's single
// data block.
func (fs *FS) WriteLinkLocked(_ uint32, in inode, target string) (inode, error) {
	blk, err := fs.blockPtr(&in, 0, true, false)
	if err != nil {
		return in, err
	}
	copy(fs.tx.StageFresh(blk, BTData), target)
	return in, nil
}
