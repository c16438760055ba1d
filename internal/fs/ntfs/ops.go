package ntfs

import (
	"encoding/binary"

	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// Bitmaps, MFT records, directories, file mapping, and the VFS operations.

const bitsPerBlock = BlockSize * 8

// ---------------------------------------------------------------------------
// Volume bitmap (free clusters) and MFT bitmap (unused records).
// ---------------------------------------------------------------------------

// allocBlock claims a free logical cluster from the volume bitmap.
func (fs *FS) allocBlock() (int64, error) {
	for bm := int64(0); bm < int64(fs.boot.VolBmpLen); bm++ {
		bmBlk := int64(fs.boot.VolBmpStart) + bm
		buf, err := fs.readBlockRetry(bmBlk, BTVolBmp)
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
				if blk >= int64(fs.boot.BlockCount) {
					return 0, vfs.ErrNoSpace
				}
				buf[i] |= 1 << bit
				fs.tx.StageMeta(bmBlk, buf, BTVolBmp)
				return blk, nil
			}
		}
	}
	return 0, vfs.ErrNoSpace
}

// freeBlock releases a cluster.
func (fs *FS) freeBlock(blk int64) error {
	if blk <= 0 || blk >= int64(fs.boot.BlockCount) {
		return nil // unchecked pointer: silently skipped
	}
	bmBlk := int64(fs.boot.VolBmpStart) + blk/bitsPerBlock
	buf, err := fs.readBlockRetry(bmBlk, BTVolBmp)
	if err != nil {
		return err
	}
	i, bit := int((blk%bitsPerBlock)/8), uint(blk%8)
	if buf[i]&(1<<bit) != 0 {
		buf[i] &^= 1 << bit
		fs.tx.StageMeta(bmBlk, buf, BTVolBmp)
	}
	fs.tx.Drop(blk)
	return nil
}

// allocRecord claims an unused MFT record number.
func (fs *FS) allocRecord() (uint32, error) {
	bmBlk := int64(fs.boot.MFTBmp)
	buf, err := fs.readBlockRetry(bmBlk, BTMFTBmp)
	if err != nil {
		return 0, err
	}
	total := fs.boot.MFTLen * RecsPB
	for i := 0; i < BlockSize; i++ {
		if buf[i] == 0xFF {
			continue
		}
		for bit := 0; bit < 8; bit++ {
			if buf[i]&(1<<bit) != 0 {
				continue
			}
			rec := uint32(i*8 + bit)
			if uint64(rec) >= total {
				return 0, vfs.ErrNoInodes
			}
			buf[i] |= 1 << bit
			fs.tx.StageMeta(bmBlk, buf, BTMFTBmp)
			return rec, nil
		}
	}
	return 0, vfs.ErrNoInodes
}

// freeRecord releases an MFT record number.
func (fs *FS) freeRecord(rec uint32) error {
	bmBlk := int64(fs.boot.MFTBmp)
	buf, err := fs.readBlockRetry(bmBlk, BTMFTBmp)
	if err != nil {
		return err
	}
	i, bit := int(rec/8), uint(rec%8)
	if i < BlockSize && buf[i]&(1<<bit) != 0 {
		buf[i] &^= 1 << bit
		fs.tx.StageMeta(bmBlk, buf, BTMFTBmp)
	}
	return nil
}

// countFreeBlocks scans the volume bitmap (for Statfs).
func (fs *FS) countFreeBlocks() (int64, error) {
	var free int64
	for bm := int64(0); bm < int64(fs.boot.VolBmpLen); bm++ {
		buf, err := fs.readBlockRetry(int64(fs.boot.VolBmpStart)+bm, BTVolBmp)
		if err != nil {
			return free, err
		}
		for i := 0; i < BlockSize; i++ {
			for bit := 0; bit < 8; bit++ {
				blk := bm*bitsPerBlock + int64(i)*8 + int64(bit)
				if blk >= int64(fs.boot.BlockCount) {
					return free, nil
				}
				if buf[i]&(1<<bit) == 0 {
					free++
				}
			}
		}
	}
	return free, nil
}

// countFreeRecords scans the MFT bitmap.
func (fs *FS) countFreeRecords() (int64, error) {
	buf, err := fs.readBlockRetry(int64(fs.boot.MFTBmp), BTMFTBmp)
	if err != nil {
		return 0, err
	}
	total := int64(fs.boot.MFTLen) * RecsPB
	var free int64
	for r := int64(0); r < total; r++ {
		if buf[r/8]&(1<<(uint(r)%8)) == 0 {
			free++
		}
	}
	return free, nil
}

// ---------------------------------------------------------------------------
// MFT records.
// ---------------------------------------------------------------------------

func (fs *FS) recordLoc(rec uint32) (int64, int, error) {
	if uint64(rec) >= fs.boot.MFTLen*RecsPB {
		return 0, 0, vfs.ErrInval
	}
	return int64(fs.boot.MFTStart) + int64(rec)/RecsPB, int(rec%RecsPB) * RecordSize, nil
}

// LoadLocked implements namei.Store: it reads an MFT record, verifying its
// "FILE" magic — NTFS's strong metadata sanity check (§5.4). A corrupt
// record renders the volume unusable.
func (fs *FS) LoadLocked(rec uint32) (mftRecord, error) {
	var r mftRecord
	blk, off, err := fs.recordLoc(rec)
	if err != nil {
		return r, err
	}
	buf, err := fs.readBlockRetry(blk, BTMFT)
	if err != nil {
		return r, err
	}
	r.unmarshal(buf[off : off+RecordSize])
	if r.Flags != 0 && r.Magic != recMagic {
		fs.rec.Detect(iron.DSanity, BTMFT, "MFT record bad magic")
		fs.rec.Recover(iron.RPropagate, BTMFT, "error propagated")
		fs.unmountable(BTMFT, "corrupt MFT record")
		return mftRecord{}, vfs.ErrCorrupt
	}
	return r, nil
}

// StoreLocked implements namei.Store: it stages an MFT record update.
func (fs *FS) StoreLocked(rec uint32, r mftRecord) error {
	blk, off, err := fs.recordLoc(rec)
	if err != nil {
		return err
	}
	buf, err := fs.txMeta(blk, BTMFT)
	if err != nil {
		return err
	}
	r.Magic = recMagic
	r.marshal(buf[off : off+RecordSize])
	fs.tx.Touch(rec)
	return nil
}

// clearRecord zeroes an MFT record slot.
func (fs *FS) clearRecord(rec uint32) error {
	blk, off, err := fs.recordLoc(rec)
	if err != nil {
		return err
	}
	buf, err := fs.txMeta(blk, BTMFT)
	if err != nil {
		return err
	}
	clear(buf[off : off+RecordSize])
	fs.tx.Touch(rec)
	return nil
}

// ---------------------------------------------------------------------------
// File block mapping: direct runs plus run-extension blocks. Note the
// §5.4 lapse: pointers are used unvalidated.
// ---------------------------------------------------------------------------

func (fs *FS) blockPtr(r *mftRecord, l int64, alloc bool) (int64, error) {
	if l < 0 || l >= maxFileBlocks {
		return 0, vfs.ErrInval
	}
	if l < directRuns {
		if r.Direct[l] == 0 && alloc {
			blk, err := fs.allocBlock()
			if err != nil {
				return 0, err
			}
			r.Direct[l] = uint64(blk)
		}
		return int64(r.Direct[l]), nil
	}
	g := (l - directRuns) / ptrsPerExt
	idx := (l - directRuns) % ptrsPerExt
	if r.Ext[g] == 0 {
		if !alloc {
			return 0, nil
		}
		blk, err := fs.allocBlock()
		if err != nil {
			return 0, err
		}
		fs.tx.StageMeta(blk, make([]byte, BlockSize), BTMFT)
		r.Ext[g] = uint64(blk)
	}
	eb := int64(r.Ext[g])
	buf, err := fs.readBlockRetry(eb, BTMFT)
	if err != nil {
		return 0, err
	}
	ptr := int64(binary.LittleEndian.Uint64(buf[idx*8:]))
	if ptr == 0 && alloc {
		blk, err := fs.allocBlock()
		if err != nil {
			return 0, err
		}
		binary.LittleEndian.PutUint64(buf[idx*8:], uint64(blk))
		fs.tx.StageMeta(eb, buf, BTMFT)
		ptr = blk
	}
	return ptr, nil
}

// freeFileBlocks releases blocks past newSize.
func (fs *FS) freeFileBlocks(r *mftRecord, newSize int64) error {
	keep := (newSize + BlockSize - 1) / BlockSize
	old := (int64(r.Size) + BlockSize - 1) / BlockSize
	for l := keep; l < old && l < directRuns; l++ {
		if r.Direct[l] != 0 {
			if err := fs.freeBlock(int64(r.Direct[l])); err != nil {
				return err
			}
			r.Direct[l] = 0
		}
	}
	for g := int64(0); g < runExtCount; g++ {
		if r.Ext[g] == 0 {
			continue
		}
		base := directRuns + g*ptrsPerExt
		eb := int64(r.Ext[g])
		buf, err := fs.readBlockRetry(eb, BTMFT)
		if err != nil {
			return err
		}
		// Free first, edit after: a free that fails leaves the cached
		// block as the media and the transaction have it.
		cut := max(keep-base, 0)
		live, changed := 0, false
		for idx := int64(0); idx < ptrsPerExt; idx++ {
			ptr := int64(binary.LittleEndian.Uint64(buf[idx*8:]))
			if ptr == 0 {
				continue
			}
			if idx >= cut {
				if err := fs.freeBlock(ptr); err != nil {
					return err
				}
				changed = true
			} else {
				live++
			}
		}
		if live == 0 {
			if err := fs.freeBlock(eb); err != nil {
				return err
			}
			r.Ext[g] = 0
		} else if changed {
			clear(buf[cut*8 : ptrsPerExt*8])
			fs.tx.StageMeta(eb, buf, BTMFT)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Directories: blocks with a count header plus packed entries. Real NTFS
// uses B+-tree indexes; a linear index preserves the failure-policy
// surface (the "directory" block type) at far less complexity.
// ---------------------------------------------------------------------------

const dirEntHdr = 6

type dirEnt struct {
	Rec   uint32
	FType byte
	Name  []byte // aliases the block
	off   int
	end   int
}

// maxEntsDir bounds plausible entry counts — part of NTFS's strong
// metadata sanity checking (§5.4).
const maxEntsDir = BlockSize / dirEntHdr

// dirIter walks the entries of one directory block in place.
type dirIter struct {
	buf  []byte
	left uint32 // entries the count header still promises
	off  int
}

// iterDir starts a walk of a directory block, applying the entry-count
// sanity check first.
func (fs *FS) iterDir(buf []byte) (dirIter, error) {
	count := binary.LittleEndian.Uint32(buf[0:])
	if count > maxEntsDir {
		fs.rec.Detect(iron.DSanity, BTDir, "directory entry count out of range")
		fs.rec.Recover(iron.RPropagate, BTDir, "error propagated")
		fs.unmountable(BTDir, "corrupt directory block")
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
		Rec:   binary.LittleEndian.Uint32(buf[off:]),
		FType: buf[off+4],
		Name:  buf[off+dirEntHdr : end],
		off:   off,
		end:   end,
	}, true
}

func (fs *FS) dirBlocks(r *mftRecord, fn func(blk int64, buf []byte, it dirIter) (bool, error)) error {
	nblocks := (int64(r.Size) + BlockSize - 1) / BlockSize
	for l := int64(0); l < nblocks; l++ {
		blk, err := fs.blockPtr(r, l, false)
		if err != nil {
			return err
		}
		if blk == 0 {
			continue
		}
		buf, err := fs.readBlockRetry(blk, BTDir)
		if err != nil {
			return err
		}
		it, perr := fs.iterDir(buf)
		if perr != nil {
			return perr
		}
		stop, err := fn(blk, buf, it)
		if err != nil || stop {
			return err
		}
	}
	return nil
}

// LookupLocked implements namei.Store.
func (fs *FS) LookupLocked(_ uint32, r mftRecord, name string) (uint32, byte, error) {
	var rec uint32
	var ftype byte
	found := false
	err := fs.dirBlocks(&r, func(_ int64, _ []byte, it dirIter) (bool, error) {
		for e, ok := it.next(); ok; e, ok = it.next() {
			if string(e.Name) == name {
				rec, ftype, found = e.Rec, e.FType, true
				return true, nil
			}
		}
		return false, nil
	})
	if err != nil {
		return 0, 0, err
	}
	if !found {
		return 0, 0, vfs.ErrNotExist
	}
	return rec, ftype, nil
}

// DirAddLocked implements namei.Store: it appends an entry, extending the
// directory by a block when full.
func (fs *FS) DirAddLocked(dirRec uint32, r mftRecord, name string, child uint32, ftype byte) (mftRecord, error) {
	if len(name) > vfs.MaxNameLen {
		return r, vfs.ErrNameTooLong
	}
	need := dirEntHdr + len(name)
	done := false
	err := fs.dirBlocks(&r, func(blk int64, buf []byte, it dirIter) (bool, error) {
		n, end := 0, 4
		for e, ok := it.next(); ok; e, ok = it.next() {
			n, end = n+1, e.end
		}
		if end+need > BlockSize {
			return false, nil
		}
		binary.LittleEndian.PutUint32(buf[0:], uint32(n+1))
		binary.LittleEndian.PutUint32(buf[end:], child)
		buf[end+4] = ftype
		buf[end+5] = byte(len(name))
		copy(buf[end+dirEntHdr:], name)
		fs.tx.StageMeta(blk, buf, BTDir)
		done = true
		return true, nil
	})
	if err != nil || done {
		return r, err
	}
	l := (int64(r.Size) + BlockSize - 1) / BlockSize
	blk, err := fs.blockPtr(&r, l, true)
	if err != nil {
		return r, err
	}
	nb := make([]byte, BlockSize)
	binary.LittleEndian.PutUint32(nb[0:], 1)
	binary.LittleEndian.PutUint32(nb[4:], child)
	nb[8] = ftype
	nb[9] = byte(len(name))
	copy(nb[4+dirEntHdr:], name)
	fs.tx.StageMeta(blk, nb, BTDir)
	r.Size = uint64((l + 1) * BlockSize)
	return r, fs.StoreLocked(dirRec, r)
}

// DirRemoveLocked implements namei.Store: it deletes an entry, compacting
// the block.
func (fs *FS) DirRemoveLocked(_ uint32, r mftRecord, name string) error {
	found := false
	err := fs.dirBlocks(&r, func(blk int64, buf []byte, it dirIter) (bool, error) {
		var gone dirEnt
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
		// The entries chain without gaps: the ones after gone move down
		// whole, and the bytes they leave behind are zeroed.
		binary.LittleEndian.PutUint32(buf[0:], uint32(n-1))
		clear(buf[gone.off+copy(buf[gone.off:], buf[gone.end:end]):])
		fs.tx.StageMeta(blk, buf, BTDir)
		return true, nil
	})
	if err != nil {
		return err
	}
	if !found {
		return vfs.ErrNotExist
	}
	return nil
}

// DirEmptyLocked implements namei.Store.
func (fs *FS) DirEmptyLocked(_ uint32, r mftRecord) (bool, error) {
	empty := true
	err := fs.dirBlocks(&r, func(_ int64, _ []byte, it dirIter) (bool, error) {
		_, has := it.next()
		empty = !has
		return has, nil
	})
	return empty, err
}

// DirListLocked implements namei.Store.
func (fs *FS) DirListLocked(_ uint32, r mftRecord) ([]vfs.DirEntry, error) {
	var out []vfs.DirEntry
	err := fs.dirBlocks(&r, func(_ int64, _ []byte, it dirIter) (bool, error) {
		for e, ok := it.next(); ok; e, ok = it.next() {
			out = append(out, vfs.DirEntry{Name: string(e.Name), Ino: e.Rec, Type: vfs.FileType(e.FType)})
		}
		return false, nil
	})
	return out, err
}

// DirChangedLocked implements namei.Store: the directory's mtime.
func (fs *FS) DirChangedLocked(rec uint32, r mftRecord) (mftRecord, error) {
	r.Mtime = fs.Now()
	return r, fs.StoreLocked(rec, r)
}

// FreeLocked implements namei.Store: the runs, the MFT bitmap bit, then
// the record slot.
func (fs *FS) FreeLocked(rec uint32, r mftRecord) error {
	if err := fs.freeFileBlocks(&r, 0); err != nil {
		return err
	}
	if err := fs.freeRecord(rec); err != nil {
		return err
	}
	return fs.clearRecord(rec)
}
