package ntfs

import (
	"errors"

	"ironfs/internal/namei"
	"ironfs/internal/vfs"
)

// NTFS's namei.Store and the vfs.FileSystem operations that carry its data
// layout and §5.4 reactions; the path walk and the lookup and attribute
// operations are namei.Namespace's.

// RootLocked implements namei.Store.
func (fs *FS) RootLocked() (uint32, *mftRecord, error) {
	r, err := fs.LoadLocked(RootRec)
	return RootRec, r, err
}

// LookupLocked implements namei.Store.
func (fs *FS) LookupLocked(_ uint32, dr *mftRecord, name string) (uint32, error) {
	rec, _, err := fs.dirLookup(dr, name)
	return rec, err
}

// KeyOf implements namei.Store: the MFT record number.
func (fs *FS) KeyOf(rec uint32) uint64 { return uint64(rec) }

// ReadLinkLocked implements namei.Store: the target is the link's single
// data block.
func (fs *FS) ReadLinkLocked(_ uint32, r *mftRecord) (string, error) {
	if r.Size == 0 || r.Size > BlockSize {
		return "", vfs.ErrCorrupt
	}
	blk, err := fs.blockPtr(r, 0, false)
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

// CreateLocked implements namei.Store.
func (fs *FS) CreateLocked(pRec uint32, pR *mftRecord, name string, kind vfs.FileType, a namei.Attr) (uint32, *mftRecord, error) {
	rec, err := fs.allocRecord()
	if err != nil {
		return 0, nil, err
	}
	r := &mftRecord{Magic: recMagic, Flags: kindFlags(kind), Attr: a}
	if err := fs.dirAdd(pRec, pR, name, rec, byte(kind)); err != nil {
		return 0, nil, err
	}
	pR.Mtime = a.Mtime
	if err := fs.StoreLocked(pRec, pR); err != nil {
		return 0, nil, err
	}
	if err := fs.StoreLocked(rec, r); err != nil {
		return 0, nil, err
	}
	return rec, r, nil
}

// Symlink implements vfs.FileSystem.
func (fs *FS) Symlink(target, linkpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.GuardWriteLocked(); err != nil {
		return err
	}
	if target == "" || len(target) > BlockSize {
		return vfs.ErrInval
	}
	rec, r, err := fs.MknodLocked(linkpath, 0o777, vfs.TypeSymlink)
	if err != nil {
		return err
	}
	blk, err := fs.blockPtr(r, 0, true)
	if err != nil {
		return err
	}
	buf := make([]byte, BlockSize)
	copy(buf, target)
	fs.tx.StageData(blk, buf, BTData)
	r.Size = uint64(len(target))
	if err := fs.StoreLocked(rec, r); err != nil {
		return err
	}
	return fs.MaybeCommitLocked()
}

// ReadDir implements vfs.FileSystem.
func (fs *FS) ReadDir(path string) ([]vfs.DirEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.GuardReadLocked(); err != nil {
		return nil, err
	}
	_, r, err := fs.ResolveLocked(path, true)
	if err != nil {
		return nil, err
	}
	if !r.isDir() {
		return nil, vfs.ErrNotDir
	}
	var out []vfs.DirEntry
	err = fs.dirBlocks(r, func(_ int64, _ []byte, it dirIter) (bool, error) {
		for e, ok := it.next(); ok; e, ok = it.next() {
			out = append(out, vfs.DirEntry{Name: string(e.Name), Ino: e.Rec, Type: vfs.FileType(e.FType)})
		}
		return false, nil
	})
	return out, err
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
		blk, err := fs.blockPtr(r, l, false)
		if err != nil {
			return int(read), err
		}
		if blk == 0 {
			for i := int64(0); i < chunk; i++ {
				buf[read+i] = 0
			}
		} else if !fs.cache.GetInto(blk, int(bo), buf[read:read+chunk]) {
			// Miss: fill from the device (which also drives read-ahead)
			// and copy. The hit path above copied under the shard lock
			// without allocating.
			data, err := fs.fillBlockRetry(blk, BTData)
			if err != nil {
				return int(read), err
			}
			copy(buf[read:read+chunk], data[bo:bo+chunk])
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
		pre, err := fs.blockPtr(r, l, false)
		if err != nil {
			return int(written), err
		}
		blk, err := fs.blockPtr(r, l, true)
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
		if err := fs.freeFileBlocks(r, size); err != nil {
			return err
		}
		if size%BlockSize != 0 {
			if blk, perr := fs.blockPtr(r, size/BlockSize, false); perr == nil && blk != 0 {
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

// Unlink implements vfs.FileSystem.
func (fs *FS) Unlink(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.GuardWriteLocked(); err != nil {
		return err
	}
	pRec, pR, name, err := fs.ParentLocked(path)
	if err != nil {
		return err
	}
	cRec, _, err := fs.dirLookup(pR, name)
	if err != nil {
		return err
	}
	cR, err := fs.LoadLocked(cRec)
	if err != nil {
		return err
	}
	if cR.isDir() {
		return vfs.ErrIsDir
	}
	if _, err := fs.dirRemove(pR, name); err != nil {
		return err
	}
	pR.Mtime = fs.Now()
	if err := fs.StoreLocked(pRec, pR); err != nil {
		return err
	}
	cR.Links--
	if cR.Links == 0 {
		if err := fs.freeFileBlocks(cR, 0); err != nil {
			return err
		}
		if err := fs.freeRecord(cRec); err != nil {
			return err
		}
		if err := fs.clearRecord(cRec); err != nil {
			return err
		}
	} else {
		cR.Ctime = fs.Now()
		if err := fs.StoreLocked(cRec, cR); err != nil {
			return err
		}
	}
	return fs.MaybeCommitLocked()
}

// Rmdir implements vfs.FileSystem.
func (fs *FS) Rmdir(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.GuardWriteLocked(); err != nil {
		return err
	}
	pRec, pR, name, err := fs.ParentLocked(path)
	if err != nil {
		return err
	}
	cRec, _, err := fs.dirLookup(pR, name)
	if err != nil {
		return err
	}
	cR, err := fs.LoadLocked(cRec)
	if err != nil {
		return err
	}
	if !cR.isDir() {
		return vfs.ErrNotDir
	}
	empty, err := fs.dirEmpty(cR)
	if err != nil {
		return err
	}
	if !empty {
		return vfs.ErrNotEmpty
	}
	if _, err := fs.dirRemove(pR, name); err != nil {
		return err
	}
	pR.Mtime = fs.Now()
	if err := fs.StoreLocked(pRec, pR); err != nil {
		return err
	}
	if err := fs.freeFileBlocks(cR, 0); err != nil {
		return err
	}
	if err := fs.freeRecord(cRec); err != nil {
		return err
	}
	if err := fs.clearRecord(cRec); err != nil {
		return err
	}
	return fs.MaybeCommitLocked()
}

// Link implements vfs.FileSystem.
func (fs *FS) Link(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.GuardWriteLocked(); err != nil {
		return err
	}
	oRec, oR, err := fs.ResolveLocked(oldpath, false)
	if err != nil {
		return err
	}
	if oR.isDir() {
		return vfs.ErrIsDir
	}
	pRec, pR, name, err := fs.ParentLocked(newpath)
	if err != nil {
		return err
	}
	if _, _, err := fs.dirLookup(pR, name); err == nil {
		return vfs.ErrExist
	} else if !errors.Is(err, vfs.ErrNotExist) {
		return err
	}
	if err := fs.dirAdd(pRec, pR, name, oRec, byte(oR.FileType())); err != nil {
		return err
	}
	pR.Mtime = fs.Now()
	if err := fs.StoreLocked(pRec, pR); err != nil {
		return err
	}
	oR.Links++
	oR.Ctime = fs.Now()
	if err := fs.StoreLocked(oRec, oR); err != nil {
		return err
	}
	return fs.MaybeCommitLocked()
}

// Rename implements vfs.FileSystem.
func (fs *FS) Rename(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.GuardWriteLocked(); err != nil {
		return err
	}
	oPRec, oPR, oName, err := fs.ParentLocked(oldpath)
	if err != nil {
		return err
	}
	cRec, cType, err := fs.dirLookup(oPR, oName)
	if err != nil {
		return err
	}
	nPRec, nPR, nName, err := fs.ParentLocked(newpath)
	if err != nil {
		return err
	}
	if nPRec == oPRec {
		nPR = oPR
	}
	if tRec, _, err := fs.dirLookup(nPR, nName); err == nil {
		tR, lerr := fs.LoadLocked(tRec)
		if lerr != nil {
			return lerr
		}
		if tR.isDir() {
			empty, derr := fs.dirEmpty(tR)
			if derr != nil {
				return derr
			}
			if !empty {
				return vfs.ErrNotEmpty
			}
		}
		if _, derr := fs.dirRemove(nPR, nName); derr != nil {
			return derr
		}
		tR.Links--
		if tR.Links == 0 || tR.isDir() {
			if derr := fs.freeFileBlocks(tR, 0); derr != nil {
				return derr
			}
			if derr := fs.freeRecord(tRec); derr != nil {
				return derr
			}
			if derr := fs.clearRecord(tRec); derr != nil {
				return derr
			}
		} else if serr := fs.StoreLocked(tRec, tR); serr != nil {
			return serr
		}
	} else if !errors.Is(err, vfs.ErrNotExist) {
		return err
	}
	if _, err := fs.dirRemove(oPR, oName); err != nil {
		return err
	}
	now := fs.Now()
	oPR.Mtime = now
	if err := fs.StoreLocked(oPRec, oPR); err != nil {
		return err
	}
	if err := fs.dirAdd(nPRec, nPR, nName, cRec, cType); err != nil {
		return err
	}
	nPR.Mtime = now
	if err := fs.StoreLocked(nPRec, nPR); err != nil {
		return err
	}
	return fs.MaybeCommitLocked()
}
