package ntfs

import (
	"ironfs/internal/namei"
	"ironfs/internal/vfs"
)

// NTFS's namei.Store: the path walk, the namespace operations and the
// sequencing of Read, Write and Truncate are namei.Namespace's.

// MaxFileSize is the largest file the record's runs and extension records
// map, in bytes.
const MaxFileSize = maxFileBlocks * BlockSize

// RootLocked implements namei.Store.
func (fs *FS) RootLocked() (uint32, mftRecord, error) {
	r, err := fs.LoadLocked(RootRec)
	return RootRec, r, err
}

// KeyOf implements namei.Store: the MFT record number.
func (fs *FS) KeyOf(rec uint32) uint64 { return uint64(rec) }

// ReadLinkLocked implements namei.Store: the target is the link's single
// data block.
func (fs *FS) ReadLinkLocked(_ uint32, r mftRecord) (string, error) {
	if r.Size == 0 || r.Size > BlockSize {
		return "", vfs.ErrCorrupt
	}
	blk, err := fs.blockPtr(&r, 0, false)
	if err != nil {
		return "", err
	}
	if blk == 0 {
		return "", vfs.ErrCorrupt
	}
	buf, err := fs.readBlockRetry(blk, BTData)
	if err != nil {
		return "", err
	}
	return string(buf[:r.Size]), nil
}

// WriteLinkLocked implements namei.Store: the target is the link's single
// data block.
func (fs *FS) WriteLinkLocked(_ uint32, r mftRecord, target string) (mftRecord, error) {
	blk, err := fs.blockPtr(&r, 0, true)
	if err != nil {
		return r, err
	}
	copy(fs.tx.StageFresh(blk, BTData), target)
	return r, nil
}

// CreateLocked implements namei.Store.
func (fs *FS) CreateLocked(pRec uint32, pR mftRecord, name string, kind vfs.FileType, a namei.Attr) (uint32, mftRecord, error) {
	rec, err := fs.allocRecord()
	if err != nil {
		return 0, mftRecord{}, err
	}
	r := mftRecord{Magic: recMagic, Flags: kindFlags(kind), Attr: a}
	if pR, err = fs.DirAddLocked(pRec, pR, name, rec, byte(kind)); err != nil {
		return 0, mftRecord{}, err
	}
	pR.Mtime = a.Mtime
	if err := fs.StoreLocked(pRec, pR); err != nil {
		return 0, mftRecord{}, err
	}
	if err := fs.StoreLocked(rec, r); err != nil {
		return 0, mftRecord{}, err
	}
	return rec, r, nil
}

// ReadAtLocked implements namei.Store.
func (fs *FS) ReadAtLocked(_ uint32, r mftRecord, off int64, p []byte) (int, error) {
	n := int64(len(p))
	read := int64(0)
	for read < n {
		l := (off + read) / BlockSize
		bo := (off + read) % BlockSize
		chunk := min(BlockSize-bo, n-read)
		dst := p[read : read+chunk]
		blk, err := fs.blockPtr(&r, l, false)
		if err != nil {
			return int(read), err
		}
		if blk == 0 {
			clear(dst)
		} else if !fs.cache.GetInto(blk, int(bo), dst) {
			// Miss: fill from the device, copying out before the insert,
			// and read ahead. The hit path above copied under the shard
			// lock without allocating.
			load := func(buf []byte) error { return fs.loadBlockRetry(blk, BTData, buf) }
			if err := fs.cache.MissInto(blk, int(bo), dst, load); err != nil {
				return int(read), err
			}
			fs.ra.ReadAhead(fs.dev, blk, nil)
		}
		read += chunk
	}
	return int(read), nil
}

// WriteAtLocked implements namei.Store: a partial block is read and patched
// in place, a whole one overwrites its staged buffer or a fresh one. A
// partial block that cannot be read is staged as zeros around the patch.
func (fs *FS) WriteAtLocked(_ uint32, r mftRecord, off int64, data []byte) (mftRecord, int, error) {
	n := int64(len(data))
	written := int64(0)
	for written < n {
		l := (off + written) / BlockSize
		bo := (off + written) % BlockSize
		chunk := min(BlockSize-bo, n-written)
		pre, err := fs.blockPtr(&r, l, false)
		if err != nil {
			return r, int(written), err
		}
		blk, err := fs.blockPtr(&r, l, true)
		if err != nil {
			return r, int(written), err
		}
		var old []byte
		if pre != 0 && chunk != BlockSize {
			load := func(buf []byte) error { return fs.loadBlockRetry(blk, BTData, buf) }
			if b, rerr := fs.cache.Modify(blk, load); rerr == nil {
				old = b
			}
		}
		fs.tx.StageWrite(blk, old, bo, data[written:written+chunk], BTData)
		written += chunk
	}
	return r, int(written), nil
}

// CutLocked implements namei.Store.
func (fs *FS) CutLocked(_ uint32, r mftRecord, size int64) (mftRecord, error) {
	if err := fs.freeFileBlocks(&r, size); err != nil {
		return r, err
	}
	if size%BlockSize != 0 {
		if blk, perr := fs.blockPtr(&r, size/BlockSize, false); perr == nil && blk != 0 {
			load := func(buf []byte) error { return fs.loadBlockRetry(blk, BTData, buf) }
			if old, rerr := fs.cache.Modify(blk, load); rerr == nil {
				clear(old[size%BlockSize:])
				fs.tx.StageData(blk, old, BTData)
			}
		}
	}
	return r, nil
}
