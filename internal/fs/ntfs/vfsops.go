package ntfs

import (
	"ironfs/internal/namei"
	"ironfs/internal/vfs"
)

// NTFS's namei.Store and the vfs.FileSystem operations that move file data;
// the path walk and the namespace operations are namei.Namespace's.

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
	buf := make([]byte, BlockSize)
	copy(buf, target)
	fs.tx.StageData(blk, buf, BTData)
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

// Read implements vfs.FileSystem.
func (fs *FS) Read(path string, off int64, buf []byte) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.GuardReadLocked(); err != nil {
		return 0, err
	}
	rec, r, err := fs.ResolveLocked(path, true)
	if err != nil {
		return 0, err
	}
	if r.isDir() {
		return 0, vfs.ErrIsDir
	}
	if off < 0 {
		return 0, vfs.ErrInval
	}
	size := int64(r.Size)
	if off >= size {
		return 0, nil
	}
	n := int64(len(buf))
	if off+n > size {
		n = size - off
	}
	read := int64(0)
	for read < n {
		l := (off + read) / BlockSize
		bo := (off + read) % BlockSize
		chunk := BlockSize - bo
		if chunk > n-read {
			chunk = n - read
		}
		blk, err := fs.blockPtr(&r, l, false)
		if err != nil {
			return int(read), err
		}
		if blk == 0 {
			for i := int64(0); i < chunk; i++ {
				buf[read+i] = 0
			}
		} else if !fs.cache.GetInto(blk, int(bo), buf[read:read+chunk]) {
			// Miss: fill from the device, copy, and read ahead. The hit
			// path above copied under the shard lock without allocating.
			data, err := fs.fillBlockRetry(blk, BTData)
			if err != nil {
				return int(read), err
			}
			copy(buf[read:read+chunk], data[bo:bo+chunk])
			fs.ra.ReadAhead(fs.dev, blk, nil)
		}
		read += chunk
	}
	if !fs.noatime && fs.health.State() == vfs.Healthy {
		r.Atime = fs.Now()
		if err := fs.StoreLocked(rec, r); err == nil {
			if cerr := fs.MaybeCommitLocked(); cerr != nil {
				return int(read), cerr
			}
		}
	}
	return int(read), nil
}

// Write implements vfs.FileSystem.
func (fs *FS) Write(path string, off int64, data []byte) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.GuardWriteLocked(); err != nil {
		return 0, err
	}
	rec, r, err := fs.ResolveLocked(path, true)
	if err != nil {
		return 0, err
	}
	if r.isDir() {
		return 0, vfs.ErrIsDir
	}
	if off < 0 || off+int64(len(data)) > maxFileBlocks*BlockSize {
		return 0, vfs.ErrInval
	}
	written := int64(0)
	n := int64(len(data))
	for written < n {
		l := (off + written) / BlockSize
		bo := (off + written) % BlockSize
		chunk := BlockSize - bo
		if chunk > n-written {
			chunk = n - written
		}
		pre, err := fs.blockPtr(&r, l, false)
		if err != nil {
			return int(written), err
		}
		blk, err := fs.blockPtr(&r, l, true)
		if err != nil {
			return int(written), err
		}
		buf := make([]byte, BlockSize)
		if pre != 0 && (bo != 0 || chunk != BlockSize) {
			if old, rerr := fs.readBlockRetry(blk, BTData); rerr == nil {
				copy(buf, old)
			}
		}
		copy(buf[bo:bo+chunk], data[written:written+chunk])
		fs.tx.StageData(blk, buf, BTData)
		written += chunk
	}
	if off+n > int64(r.Size) {
		r.Size = uint64(off + n)
	}
	r.Mtime = fs.Now()
	if err := fs.StoreLocked(rec, r); err != nil {
		return int(written), err
	}
	if err := fs.MaybeCommitLocked(); err != nil {
		return int(written), err
	}
	return int(written), nil
}

// Truncate implements vfs.FileSystem.
func (fs *FS) Truncate(path string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.GuardWriteLocked(); err != nil {
		return err
	}
	rec, r, err := fs.ResolveLocked(path, true)
	if err != nil {
		return err
	}
	if r.isDir() {
		return vfs.ErrIsDir
	}
	if size < 0 || size > maxFileBlocks*BlockSize {
		return vfs.ErrInval
	}
	if size < int64(r.Size) {
		if err := fs.freeFileBlocks(&r, size); err != nil {
			return err
		}
		if size%BlockSize != 0 {
			if blk, perr := fs.blockPtr(&r, size/BlockSize, false); perr == nil && blk != 0 {
				if old, rerr := fs.readBlockRetry(blk, BTData); rerr == nil {
					nb := make([]byte, BlockSize)
					copy(nb, old[:size%BlockSize])
					fs.tx.StageData(blk, nb, BTData)
				}
			}
		}
	}
	r.Size = uint64(size)
	r.Mtime = fs.Now()
	if err := fs.StoreLocked(rec, r); err != nil {
		return err
	}
	return fs.MaybeCommitLocked()
}
