package jfs

import (
	"errors"

	"ironfs/internal/vfs"
)

// The vfs.FileSystem operations that carry JFS's data layout and §5.3
// reactions; the rest are namei.Namespace's.

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
	ino, in, err := fs.MknodLocked(linkpath, 0o777, vfs.TypeSymlink)
	if err != nil {
		return err
	}
	blk, err := fs.blockPtr(&in, 0, true, false)
	if err != nil {
		return err
	}
	buf := make([]byte, BlockSize)
	copy(buf, target)
	fs.tx.StageData(blk, buf, BTData)
	in.Size = uint64(len(target))
	if err := fs.StoreLocked(ino, in); err != nil {
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
	_, in, err := fs.ResolveLocked(path, true)
	if err != nil {
		return nil, err
	}
	if !in.IsDir() {
		return nil, vfs.ErrNotDir
	}
	var out []vfs.DirEntry
	err = fs.dirBlocks(&in, func(_ int64, _ []byte, it dirIter) (bool, error) {
		for e, ok := it.next(); ok; e, ok = it.next() {
			out = append(out, vfs.DirEntry{Name: string(e.Name), Ino: e.Ino, Type: vfs.FileType(e.FType)})
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
	ino, in, err := fs.ResolveLocked(path, true)
	if err != nil {
		return 0, err
	}
	if in.IsDir() {
		return 0, vfs.ErrIsDir
	}
	if off < 0 {
		return 0, vfs.ErrInval
	}
	size := int64(in.Size)
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
		blk, err := fs.blockPtr(&in, l, false, true)
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
			data, err := fs.fillData(blk)
			if err != nil {
				return int(read), err
			}
			copy(buf[read:read+chunk], data[bo:bo+chunk])
			fs.ra.ReadAhead(fs.dev, blk, nil)
		}
		read += chunk
	}
	if !fs.noatime && fs.health.State() == vfs.Healthy {
		in.Atime = fs.Now()
		if err := fs.StoreLocked(ino, in); err == nil {
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
	ino, in, err := fs.ResolveLocked(path, true)
	if err != nil {
		return 0, err
	}
	if in.IsDir() {
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
		pre, err := fs.blockPtr(&in, l, false, false)
		if err != nil {
			return int(written), err
		}
		blk, err := fs.blockPtr(&in, l, true, false)
		if err != nil {
			return int(written), err
		}
		buf := make([]byte, BlockSize)
		if pre != 0 && (bo != 0 || chunk != BlockSize) {
			if old, rerr := fs.readData(blk); rerr == nil {
				copy(buf, old)
			}
		}
		copy(buf[bo:bo+chunk], data[written:written+chunk])
		fs.tx.StageData(blk, buf, BTData)
		written += chunk
	}
	if off+n > int64(in.Size) {
		in.Size = uint64(off + n)
	}
	in.Mtime = fs.Now()
	if err := fs.StoreLocked(ino, in); err != nil {
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
	ino, in, err := fs.ResolveLocked(path, true)
	if err != nil {
		return err
	}
	if in.IsDir() {
		return vfs.ErrIsDir
	}
	if size < 0 || size > maxFileBlocks*BlockSize {
		return vfs.ErrInval
	}
	if size < int64(in.Size) {
		if err := fs.freeFileBlocks(&in, size); err != nil {
			return err
		}
		if size%BlockSize != 0 {
			if blk, perr := fs.blockPtr(&in, size/BlockSize, false, false); perr == nil && blk != 0 {
				if old, rerr := fs.readData(blk); rerr == nil {
					nb := make([]byte, BlockSize)
					copy(nb, old[:size%BlockSize])
					fs.tx.StageData(blk, nb, BTData)
				}
			}
		}
	}
	in.Size = uint64(size)
	in.Mtime = fs.Now()
	if err := fs.StoreLocked(ino, in); err != nil {
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
	pIno, pIn, name, err := fs.ParentLocked(path)
	if err != nil {
		return err
	}
	cIno, _, err := fs.dirLookup(&pIn, name)
	if err != nil {
		return err
	}
	cIn, err := fs.LoadLocked(cIno)
	if err != nil {
		return err
	}
	if cIn.IsDir() {
		return vfs.ErrIsDir
	}
	if _, err := fs.dirRemove(&pIn, name); err != nil {
		return err
	}
	pIn.Mtime = fs.Now()
	if err := fs.StoreLocked(pIno, pIn); err != nil {
		return err
	}
	cIn.Links--
	if cIn.Links == 0 {
		if err := fs.freeFileBlocks(&cIn, 0); err != nil {
			return err
		}
		if err := fs.freeInode(cIno); err != nil {
			return err
		}
		if err := fs.clearInode(cIno); err != nil {
			return err
		}
	} else {
		cIn.Ctime = fs.Now()
		if err := fs.StoreLocked(cIno, cIn); err != nil {
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
	pIno, pIn, name, err := fs.ParentLocked(path)
	if err != nil {
		return err
	}
	cIno, _, err := fs.dirLookup(&pIn, name)
	if err != nil {
		return err
	}
	cIn, err := fs.LoadLocked(cIno)
	if err != nil {
		return err
	}
	if !cIn.IsDir() {
		return vfs.ErrNotDir
	}
	empty, err := fs.dirEmpty(&cIn)
	if err != nil {
		return err
	}
	if !empty {
		return vfs.ErrNotEmpty
	}
	if _, err := fs.dirRemove(&pIn, name); err != nil {
		return err
	}
	pIn.Mtime = fs.Now()
	if err := fs.StoreLocked(pIno, pIn); err != nil {
		return err
	}
	if err := fs.freeFileBlocks(&cIn, 0); err != nil {
		return err
	}
	if err := fs.freeInode(cIno); err != nil {
		return err
	}
	if err := fs.clearInode(cIno); err != nil {
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
	oIno, oIn, err := fs.ResolveLocked(oldpath, false)
	if err != nil {
		return err
	}
	if oIn.IsDir() {
		return vfs.ErrIsDir
	}
	pIno, pIn, name, err := fs.ParentLocked(newpath)
	if err != nil {
		return err
	}
	if _, _, err := fs.dirLookup(&pIn, name); err == nil {
		return vfs.ErrExist
	} else if !errors.Is(err, vfs.ErrNotExist) {
		return err
	}
	if err := fs.dirAdd(pIno, &pIn, name, oIno, byte(oIn.FileType())); err != nil {
		return err
	}
	pIn.Mtime = fs.Now()
	if err := fs.StoreLocked(pIno, pIn); err != nil {
		return err
	}
	oIn.Links++
	oIn.Ctime = fs.Now()
	if err := fs.StoreLocked(oIno, oIn); err != nil {
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
	oPIno, oPIn, oName, err := fs.ParentLocked(oldpath)
	if err != nil {
		return err
	}
	cIno, cType, err := fs.dirLookup(&oPIn, oName)
	if err != nil {
		return err
	}
	nPIno, nPInode, nName, err := fs.ParentLocked(newpath)
	if err != nil {
		return err
	}
	// One directory is one inode: every change below lands on oPIn.
	nPIn := &nPInode
	if nPIno == oPIno {
		nPIn = &oPIn
	}
	if tIno, _, err := fs.dirLookup(nPIn, nName); err == nil {
		tIn, lerr := fs.LoadLocked(tIno)
		if lerr != nil {
			return lerr
		}
		if tIn.IsDir() {
			empty, derr := fs.dirEmpty(&tIn)
			if derr != nil {
				return derr
			}
			if !empty {
				return vfs.ErrNotEmpty
			}
		}
		if _, derr := fs.dirRemove(nPIn, nName); derr != nil {
			return derr
		}
		tIn.Links--
		if tIn.Links == 0 || tIn.IsDir() {
			if derr := fs.freeFileBlocks(&tIn, 0); derr != nil {
				return derr
			}
			if derr := fs.freeInode(tIno); derr != nil {
				return derr
			}
			if derr := fs.clearInode(tIno); derr != nil {
				return derr
			}
		} else if serr := fs.StoreLocked(tIno, tIn); serr != nil {
			return serr
		}
	} else if !errors.Is(err, vfs.ErrNotExist) {
		return err
	}
	if _, err := fs.dirRemove(&oPIn, oName); err != nil {
		return err
	}
	now := fs.Now()
	oPIn.Mtime = now
	if err := fs.StoreLocked(oPIno, oPIn); err != nil {
		return err
	}
	if err := fs.dirAdd(nPIno, nPIn, nName, cIno, cType); err != nil {
		return err
	}
	nPIn.Mtime = now
	if err := fs.StoreLocked(nPIno, *nPIn); err != nil {
		return err
	}
	return fs.MaybeCommitLocked()
}
