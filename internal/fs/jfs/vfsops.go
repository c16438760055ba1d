package jfs

import (
	"errors"

	"ironfs/internal/vfs"
)

// The vfs.FileSystem operations.

// Create implements vfs.FileSystem.
func (fs *FS) Create(path string, mode uint16) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardWrite(); err != nil {
		return err
	}
	if _, _, err := fs.createNode(path, mode, modeRegular); err != nil {
		return err
	}
	return fs.maybeCommit()
}

// Mkdir implements vfs.FileSystem.
func (fs *FS) Mkdir(path string, mode uint16) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardWrite(); err != nil {
		return err
	}
	if _, _, err := fs.createNode(path, mode, modeDir); err != nil {
		return err
	}
	return fs.maybeCommit()
}

// Symlink implements vfs.FileSystem.
func (fs *FS) Symlink(target, linkpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardWrite(); err != nil {
		return err
	}
	if target == "" || len(target) > BlockSize {
		return vfs.ErrInval
	}
	ino, in, err := fs.createNode(linkpath, 0o777, modeSymlink)
	if err != nil {
		return err
	}
	blk, err := fs.blockPtr(in, 0, true, false)
	if err != nil {
		return err
	}
	buf := make([]byte, BlockSize)
	copy(buf, target)
	fs.stageData(blk, buf)
	in.Size = uint64(len(target))
	if err := fs.storeInode(ino, in); err != nil {
		return err
	}
	return fs.maybeCommit()
}

// Readlink implements vfs.FileSystem.
func (fs *FS) Readlink(path string) (string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardRead(); err != nil {
		return "", err
	}
	_, in, err := fs.resolve(path, false)
	if err != nil {
		return "", err
	}
	if !in.isSymlink() {
		return "", vfs.ErrInval
	}
	return fs.readSymlink(in)
}

// Open implements vfs.FileSystem.
func (fs *FS) Open(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardRead(); err != nil {
		return err
	}
	_, _, err := fs.resolve(path, true)
	return err
}

// Access implements vfs.FileSystem.
func (fs *FS) Access(path string) error { return fs.Open(path) }

func fileInfo(ino uint32, in *inode) vfs.FileInfo {
	t := vfs.TypeRegular
	switch in.Mode & modeTypeMsk {
	case modeDir:
		t = vfs.TypeDirectory
	case modeSymlink:
		t = vfs.TypeSymlink
	}
	return vfs.FileInfo{
		Ino: ino, Type: t, Size: int64(in.Size), Links: in.Links,
		Mode: in.Mode & modePermMsk, UID: in.UID, GID: in.GID,
		Atime: in.Atime, Mtime: in.Mtime, Ctime: in.Ctime,
	}
}

// Stat implements vfs.FileSystem.
func (fs *FS) Stat(path string) (vfs.FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardRead(); err != nil {
		return vfs.FileInfo{}, err
	}
	ino, in, err := fs.resolve(path, true)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return fileInfo(ino, in), nil
}

// Lstat implements vfs.FileSystem.
func (fs *FS) Lstat(path string) (vfs.FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardRead(); err != nil {
		return vfs.FileInfo{}, err
	}
	ino, in, err := fs.resolve(path, false)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return fileInfo(ino, in), nil
}

// ReadDir implements vfs.FileSystem.
func (fs *FS) ReadDir(path string) ([]vfs.DirEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardRead(); err != nil {
		return nil, err
	}
	_, in, err := fs.resolve(path, true)
	if err != nil {
		return nil, err
	}
	if !in.isDir() {
		return nil, vfs.ErrNotDir
	}
	var out []vfs.DirEntry
	err = fs.dirBlocks(in, func(_ int64, _ []byte, it dirIter) (bool, error) {
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
	if err := fs.guardRead(); err != nil {
		return 0, err
	}
	ino, in, err := fs.resolve(path, true)
	if err != nil {
		return 0, err
	}
	if in.isDir() {
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
		blk, err := fs.blockPtr(in, l, false, true)
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
			data, err := fs.fillData(blk)
			if err != nil {
				return int(read), err
			}
			copy(buf[read:read+chunk], data[bo:bo+chunk])
		}
		read += chunk
	}
	if !fs.noatime && fs.health.State() == vfs.Healthy {
		in.Atime = fs.now()
		if err := fs.storeInode(ino, in); err == nil {
			if cerr := fs.maybeCommit(); cerr != nil {
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
	if err := fs.guardWrite(); err != nil {
		return 0, err
	}
	ino, in, err := fs.resolve(path, true)
	if err != nil {
		return 0, err
	}
	if in.isDir() {
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
		pre, err := fs.blockPtr(in, l, false, false)
		if err != nil {
			return int(written), err
		}
		blk, err := fs.blockPtr(in, l, true, false)
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
		fs.stageData(blk, buf)
		written += chunk
	}
	if off+n > int64(in.Size) {
		in.Size = uint64(off + n)
	}
	in.Mtime = fs.now()
	if err := fs.storeInode(ino, in); err != nil {
		return int(written), err
	}
	if err := fs.maybeCommit(); err != nil {
		return int(written), err
	}
	return int(written), nil
}

// Truncate implements vfs.FileSystem.
func (fs *FS) Truncate(path string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardWrite(); err != nil {
		return err
	}
	ino, in, err := fs.resolve(path, true)
	if err != nil {
		return err
	}
	if in.isDir() {
		return vfs.ErrIsDir
	}
	if size < 0 || size > maxFileBlocks*BlockSize {
		return vfs.ErrInval
	}
	if size < int64(in.Size) {
		if err := fs.freeFileBlocks(in, size); err != nil {
			return err
		}
		if size%BlockSize != 0 {
			if blk, perr := fs.blockPtr(in, size/BlockSize, false, false); perr == nil && blk != 0 {
				if old, rerr := fs.readData(blk); rerr == nil {
					nb := make([]byte, BlockSize)
					copy(nb, old[:size%BlockSize])
					fs.stageData(blk, nb)
				}
			}
		}
	}
	in.Size = uint64(size)
	in.Mtime = fs.now()
	if err := fs.storeInode(ino, in); err != nil {
		return err
	}
	return fs.maybeCommit()
}

// Fsync implements vfs.FileSystem (journal.Engine.Fsync is the
// group-commit protocol).
func (fs *FS) Fsync(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardWrite(); err != nil {
		return err
	}
	defer fs.jn.EndFsync(fs.jn.BeginFsync())
	ino, _, err := fs.resolve(path, true)
	if err != nil {
		return err
	}
	return fs.jn.Fsync(fs, uint64(ino))
}

// Unlink implements vfs.FileSystem.
func (fs *FS) Unlink(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardWrite(); err != nil {
		return err
	}
	pIno, pIn, name, err := fs.resolveParent(path)
	if err != nil {
		return err
	}
	cIno, _, err := fs.dirLookup(pIn, name)
	if err != nil {
		return err
	}
	cIn, err := fs.loadInode(cIno)
	if err != nil {
		return err
	}
	if cIn.isDir() {
		return vfs.ErrIsDir
	}
	if _, err := fs.dirRemove(pIn, name); err != nil {
		return err
	}
	pIn.Mtime = fs.now()
	if err := fs.storeInode(pIno, pIn); err != nil {
		return err
	}
	cIn.Links--
	if cIn.Links == 0 {
		if err := fs.freeFileBlocks(cIn, 0); err != nil {
			return err
		}
		if err := fs.freeInode(cIno); err != nil {
			return err
		}
		if err := fs.clearInode(cIno); err != nil {
			return err
		}
	} else {
		cIn.Ctime = fs.now()
		if err := fs.storeInode(cIno, cIn); err != nil {
			return err
		}
	}
	return fs.maybeCommit()
}

// Rmdir implements vfs.FileSystem.
func (fs *FS) Rmdir(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardWrite(); err != nil {
		return err
	}
	pIno, pIn, name, err := fs.resolveParent(path)
	if err != nil {
		return err
	}
	cIno, _, err := fs.dirLookup(pIn, name)
	if err != nil {
		return err
	}
	cIn, err := fs.loadInode(cIno)
	if err != nil {
		return err
	}
	if !cIn.isDir() {
		return vfs.ErrNotDir
	}
	empty, err := fs.dirEmpty(cIn)
	if err != nil {
		return err
	}
	if !empty {
		return vfs.ErrNotEmpty
	}
	if _, err := fs.dirRemove(pIn, name); err != nil {
		return err
	}
	pIn.Mtime = fs.now()
	if err := fs.storeInode(pIno, pIn); err != nil {
		return err
	}
	if err := fs.freeFileBlocks(cIn, 0); err != nil {
		return err
	}
	if err := fs.freeInode(cIno); err != nil {
		return err
	}
	if err := fs.clearInode(cIno); err != nil {
		return err
	}
	return fs.maybeCommit()
}

// Link implements vfs.FileSystem.
func (fs *FS) Link(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardWrite(); err != nil {
		return err
	}
	oIno, oIn, err := fs.resolve(oldpath, false)
	if err != nil {
		return err
	}
	if oIn.isDir() {
		return vfs.ErrIsDir
	}
	pIno, pIn, name, err := fs.resolveParent(newpath)
	if err != nil {
		return err
	}
	if _, _, err := fs.dirLookup(pIn, name); err == nil {
		return vfs.ErrExist
	} else if !errors.Is(err, vfs.ErrNotExist) {
		return err
	}
	t := vfs.TypeRegular
	if oIn.isSymlink() {
		t = vfs.TypeSymlink
	}
	if err := fs.dirAdd(pIno, pIn, name, oIno, byte(t)); err != nil {
		return err
	}
	pIn.Mtime = fs.now()
	if err := fs.storeInode(pIno, pIn); err != nil {
		return err
	}
	oIn.Links++
	oIn.Ctime = fs.now()
	if err := fs.storeInode(oIno, oIn); err != nil {
		return err
	}
	return fs.maybeCommit()
}

// Rename implements vfs.FileSystem.
func (fs *FS) Rename(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardWrite(); err != nil {
		return err
	}
	oPIno, oPIn, oName, err := fs.resolveParent(oldpath)
	if err != nil {
		return err
	}
	cIno, cType, err := fs.dirLookup(oPIn, oName)
	if err != nil {
		return err
	}
	nPIno, nPIn, nName, err := fs.resolveParent(newpath)
	if err != nil {
		return err
	}
	if nPIno == oPIno {
		nPIn = oPIn
	}
	if tIno, _, err := fs.dirLookup(nPIn, nName); err == nil {
		tIn, lerr := fs.loadInode(tIno)
		if lerr != nil {
			return lerr
		}
		if tIn.isDir() {
			empty, derr := fs.dirEmpty(tIn)
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
		if tIn.Links == 0 || tIn.isDir() {
			if derr := fs.freeFileBlocks(tIn, 0); derr != nil {
				return derr
			}
			if derr := fs.freeInode(tIno); derr != nil {
				return derr
			}
			if derr := fs.clearInode(tIno); derr != nil {
				return derr
			}
		} else if serr := fs.storeInode(tIno, tIn); serr != nil {
			return serr
		}
	} else if !errors.Is(err, vfs.ErrNotExist) {
		return err
	}
	if _, err := fs.dirRemove(oPIn, oName); err != nil {
		return err
	}
	now := fs.now()
	oPIn.Mtime = now
	if err := fs.storeInode(oPIno, oPIn); err != nil {
		return err
	}
	if err := fs.dirAdd(nPIno, nPIn, nName, cIno, cType); err != nil {
		return err
	}
	nPIn.Mtime = now
	if err := fs.storeInode(nPIno, nPIn); err != nil {
		return err
	}
	return fs.maybeCommit()
}

// Chmod implements vfs.FileSystem.
func (fs *FS) Chmod(path string, mode uint16) error {
	return fs.setattr(path, func(in *inode) {
		in.Mode = (in.Mode & modeTypeMsk) | (mode & modePermMsk)
	})
}

// Chown implements vfs.FileSystem.
func (fs *FS) Chown(path string, uid, gid uint32) error {
	return fs.setattr(path, func(in *inode) { in.UID, in.GID = uid, gid })
}

// Utimes implements vfs.FileSystem.
func (fs *FS) Utimes(path string, atime, mtime int64) error {
	return fs.setattr(path, func(in *inode) { in.Atime, in.Mtime = atime, mtime })
}

func (fs *FS) setattr(path string, mutate func(*inode)) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardWrite(); err != nil {
		return err
	}
	ino, in, err := fs.resolve(path, true)
	if err != nil {
		return err
	}
	mutate(in)
	in.Ctime = fs.now()
	if err := fs.storeInode(ino, in); err != nil {
		return err
	}
	return fs.maybeCommit()
}
