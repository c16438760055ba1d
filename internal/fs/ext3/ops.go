package ext3

import (
	"errors"

	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// This file implements the vfs.FileSystem operations.

// maxSymlinkDepth bounds symlink chains during path resolution.
const maxSymlinkDepth = 8

// swallowIO reproduces the §5.1 bug in which some ext3 operations
// (truncate, rmdir) detect an I/O problem but fail *silently*: the error is
// replaced by success. FixBugs restores propagation.
func (fs *FS) swallowIO(err error) error {
	if err == nil || fs.opts.FixBugs {
		return err
	}
	if errors.Is(err, vfs.ErrIO) || errors.Is(err, vfs.ErrCorrupt) || errors.Is(err, vfs.ErrReadOnly) {
		return nil
	}
	return err
}

// resolve walks an absolute path to an inode. follow controls whether a
// symlink in the final component is chased.
func (fs *FS) resolve(path string, follow bool) (uint32, *inode, error) {
	parts, err := vfs.SplitPath(path)
	if err != nil {
		return 0, nil, err
	}
	return fs.walk(parts, follow, 0)
}

func (fs *FS) walk(parts []string, follow bool, depth int) (uint32, *inode, error) {
	if depth > maxSymlinkDepth {
		return 0, nil, vfs.ErrInval
	}
	ino := RootIno
	in, err := fs.loadInode(ino)
	if err != nil {
		return 0, nil, err
	}
	if !in.allocated() {
		return 0, nil, vfs.ErrCorrupt
	}
	for i, name := range parts {
		if !in.isDir() {
			return 0, nil, vfs.ErrNotDir
		}
		child, _, err := fs.dirLookup(in, name)
		if err != nil {
			return 0, nil, err
		}
		cin, err := fs.loadInode(child)
		if err != nil {
			return 0, nil, err
		}
		if !cin.allocated() {
			return 0, nil, vfs.ErrNotExist
		}
		last := i == len(parts)-1
		if cin.isSymlink() && (!last || follow) {
			target, err := fs.readSymlink(cin)
			if err != nil {
				return 0, nil, err
			}
			tparts, err := vfs.SplitPath(target)
			if err != nil {
				return 0, nil, err
			}
			rest := append(append([]string{}, tparts...), parts[i+1:]...)
			return fs.walk(rest, follow, depth+1)
		}
		ino, in = child, cin
	}
	return ino, in, nil
}

// resolveParent resolves the directory containing path's final component.
func (fs *FS) resolveParent(path string) (uint32, *inode, string, error) {
	dirParts, name, err := vfs.SplitDir(path)
	if err != nil {
		return 0, nil, "", err
	}
	ino, in, err := fs.walk(dirParts, true, 0)
	if err != nil {
		return 0, nil, "", err
	}
	if !in.isDir() {
		return 0, nil, "", vfs.ErrNotDir
	}
	return ino, in, name, nil
}

// readSymlink reads a symlink's target from its single data block.
func (fs *FS) readSymlink(in *inode) (string, error) {
	if in.Size == 0 || in.Size > BlockSize {
		return "", vfs.ErrCorrupt
	}
	phys, err := fs.bmap(in, 0, false)
	if err != nil {
		return "", err
	}
	if phys == 0 {
		return "", vfs.ErrCorrupt
	}
	buf, err := fs.readData(phys, BTData, nil, 0, false)
	if err != nil {
		return "", err
	}
	return string(buf[:in.Size]), nil
}

// createNode is the shared creation path for files, directories, symlinks.
func (fs *FS) createNode(path string, mode uint16, ftype uint16) (uint32, *inode, error) {
	pIno, pIn, name, err := fs.resolveParent(path)
	if err != nil {
		return 0, nil, err
	}
	if _, _, err := fs.dirLookup(pIn, name); err == nil {
		return 0, nil, vfs.ErrExist
	} else if !errors.Is(err, vfs.ErrNotExist) {
		return 0, nil, err
	}
	ino, err := fs.allocInode(fs.groupOfInode(pIno))
	if err != nil {
		return 0, nil, err
	}
	now := fs.now()
	in := &inode{Mode: ftype | (mode & modePermMsk), Links: 1, Atime: now, Mtime: now, Ctime: now}

	// ixt3 Dp: preallocate the file's parity block at create (§6.1).
	if fs.opts.DataParity && ftype == modeRegular {
		pblk, err := fs.allocBlock(fs.groupOfInode(ino), BTParity)
		if err == nil {
			in.Parity = uint64(pblk)
			fs.tx.dataNew(pblk, BTParity)
		}
	}

	var vt vfs.FileType
	switch ftype {
	case modeDir:
		vt = vfs.TypeDirectory
	case modeSymlink:
		vt = vfs.TypeSymlink
	default:
		vt = vfs.TypeRegular
	}
	if err := fs.dirAdd(pIno, pIn, name, ino, byte(vt)); err != nil {
		if ferr := fs.freeInode(ino); ferr != nil {
			// The create already failed and that error propagates; a
			// cleanup failure on top additionally leaks the inode until
			// fsck, which deserves a record rather than silence.
			fs.rec.Detect(iron.DErrorCode, BTIBitmap, "inode free failed during create cleanup")
			fs.rec.Recover(iron.RPropagate, BTIBitmap, "create error propagated; inode leaked until fsck")
		}
		return 0, nil, err
	}
	pIn.Mtime = now
	if err := fs.storeInode(pIno, pIn); err != nil {
		return 0, nil, err
	}
	if err := fs.storeInode(ino, in); err != nil {
		return 0, nil, err
	}
	return ino, in, nil
}

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
	phys, err := fs.bmap(in, 0, true)
	if err != nil {
		return err
	}
	buf := fs.tx.dataNew(phys, BTData)
	copy(buf, target)
	in.Size = uint64(len(target))
	if err := fs.storeInode(ino, in); err != nil {
		return err
	}
	return fs.maybeCommit()
}

// Readlink implements vfs.FileSystem.
func (fs *FS) Readlink(path string) (string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
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

// Open implements vfs.FileSystem: a pure existence/type walk.
func (fs *FS) Open(path string) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if err := fs.guardRead(); err != nil {
		return err
	}
	_, _, err := fs.resolve(path, true)
	return err
}

// Access implements vfs.FileSystem.
func (fs *FS) Access(path string) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if err := fs.guardRead(); err != nil {
		return err
	}
	_, _, err := fs.resolve(path, true)
	return err
}

// Stat implements vfs.FileSystem.
func (fs *FS) Stat(path string) (vfs.FileInfo, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if err := fs.guardRead(); err != nil {
		return vfs.FileInfo{}, err
	}
	ino, in, err := fs.resolve(path, true)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return in.fileInfo(ino), nil
}

// Lstat implements vfs.FileSystem.
func (fs *FS) Lstat(path string) (vfs.FileInfo, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if err := fs.guardRead(); err != nil {
		return vfs.FileInfo{}, err
	}
	ino, in, err := fs.resolve(path, false)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return in.fileInfo(ino), nil
}

// ReadDir implements vfs.FileSystem.
func (fs *FS) ReadDir(path string) ([]vfs.DirEntry, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
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
	return fs.dirList(in)
}

// Read implements vfs.FileSystem. With Options.NoAtime the read runs under
// the shared lock — it mutates nothing but the (internally synchronized)
// buffer cache, so concurrent readers proceed in parallel. Otherwise the
// POSIX atime update makes Read a mutating, journaled operation and it
// takes the write lock like any other.
func (fs *FS) Read(path string, off int64, buf []byte) (int, error) {
	if fs.opts.NoAtime {
		fs.mu.RLock()
		defer fs.mu.RUnlock()
		n, _, _, err := fs.readLocked(path, off, buf)
		return n, err
	}
	//iron:lockorderok the NoAtime branch above returns under RLock; the write-path Lock below is a disjoint path the linear scan misreads as nesting
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ino, in, err := fs.readLocked(path, off, buf)
	if err != nil {
		return n, err
	}
	// atime update, journaled like any metadata change (only when the
	// file system is still writable).
	if fs.health.State() == vfs.Healthy {
		in.Atime = fs.now()
		if serr := fs.storeInode(ino, in); serr == nil {
			if cerr := fs.maybeCommit(); cerr != nil {
				return n, cerr
			}
		}
	}
	return n, nil
}

// readLocked is the body of Read minus the atime update; the caller holds
// fs.mu (shared or exclusive).
func (fs *FS) readLocked(path string, off int64, buf []byte) (int, uint32, *inode, error) {
	if err := fs.guardRead(); err != nil {
		return 0, 0, nil, err
	}
	ino, in, err := fs.resolve(path, true)
	if err != nil {
		return 0, 0, nil, err
	}
	if in.isDir() {
		return 0, 0, nil, vfs.ErrIsDir
	}
	if off < 0 {
		return 0, 0, nil, vfs.ErrInval
	}
	size := int64(in.Size)
	if off >= size {
		return 0, ino, in, nil
	}
	n := int64(len(buf))
	if off+n > size {
		n = size - off
	}
	// A read spanning several blocks goes down ext3's readahead path,
	// which is where its narrow retry lives (§5.1).
	prefetch := (off+n-1)/BlockSize > off/BlockSize

	read := int64(0)
	for read < n {
		l := (off + read) / BlockSize
		bo := (off + read) % BlockSize
		chunk := BlockSize - bo
		if chunk > n-read {
			chunk = n - read
		}
		phys, err := fs.bmap(in, l, false)
		if err != nil {
			return int(read), ino, in, err
		}
		if phys == 0 {
			for i := int64(0); i < chunk; i++ {
				buf[read+i] = 0
			}
		} else {
			data, err := fs.readData(phys, BTData, in, l, prefetch)
			if err != nil {
				return int(read), ino, in, err
			}
			copy(buf[read:read+chunk], data[bo:bo+chunk])
		}
		read += chunk
	}
	return int(read), ino, in, nil
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
	if off < 0 || off+int64(len(data)) > MaxFileSize {
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
		pre := fs.bmapHas(in, l)
		phys, err := fs.bmap(in, l, true)
		if err != nil {
			return int(written), err
		}
		var buf []byte
		if !pre {
			buf = fs.tx.dataNew(phys, BTData)
		} else {
			// Populate the cache with verified (and, with Dp, recovered)
			// contents before the read-modify-write, so a latent error or
			// silent corruption in the old block cannot leak into the
			// parity group or the new contents.
			if _, rerr := fs.readData(phys, BTData, in, l, false); rerr != nil && (bo != 0 || chunk != BlockSize) {
				return int(written), rerr
			}
			buf, err = fs.tx.data(phys, BTData)
			if err != nil {
				return int(written), err
			}
		}
		var old []byte
		if fs.opts.DataParity && in.Parity != 0 {
			old = make([]byte, BlockSize)
			copy(old, buf)
		}
		copy(buf[bo:bo+chunk], data[written:written+chunk])
		if fs.opts.DataParity && in.Parity != 0 {
			if err := fs.updateParityDelta(in, old, buf); err != nil {
				return int(written), err
			}
		}
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

// bmapHas reports whether logical block l is currently mapped, without
// allocating. Errors count as "mapped" so the write path re-reads and
// surfaces them properly.
func (fs *FS) bmapHas(in *inode, l int64) bool {
	phys, err := fs.bmap(in, l, false)
	return err != nil || phys != 0
}

// Truncate implements vfs.FileSystem. Stock ext3's silent-failure bug
// applies here: I/O errors encountered while freeing blocks do not reach
// the caller (§5.1).
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
	if size < 0 || size > MaxFileSize {
		return vfs.ErrInval
	}
	if size < int64(in.Size) {
		if err := fs.truncateBlocks(in, size); err != nil {
			if serr := fs.swallowIO(err); serr != nil {
				return serr
			}
		}
		// Zero the tail of the new last block so growth re-exposes zeros.
		if size%BlockSize != 0 {
			if phys, err := fs.bmap(in, size/BlockSize, false); err == nil && phys != 0 {
				//iron:policy ext3 §5.1:RZero truncate fails silently: the tail-zero priming read's error vanishes with the rest of the truncate path
				_, _ = fs.readData(phys, BTData, in, size/BlockSize, false)
				if buf, err := fs.tx.data(phys, BTData); err == nil {
					var old []byte
					if fs.opts.DataParity && in.Parity != 0 {
						old = make([]byte, BlockSize)
						copy(old, buf)
					}
					for i := size % BlockSize; i < BlockSize; i++ {
						buf[i] = 0
					}
					if fs.opts.DataParity && in.Parity != 0 {
						//iron:policy ext3 §5.1:RZero parity refresh during truncate is swallowed like every other truncate failure
						_ = fs.updateParityDelta(in, old, buf)
					}
				}
			}
		}
	}
	in.Size = uint64(size)
	in.Mtime = fs.now()
	if err := fs.storeInode(ino, in); err != nil {
		return fs.swallowIO(err)
	}
	if err := fs.maybeCommit(); err != nil {
		return fs.swallowIO(err)
	}
	return nil
}

// Unlink implements vfs.FileSystem. Policy fidelity notes: stock ext3 does
// not sanity-check the link count before decrementing (§5.1), so a
// corrupted count underflows silently; FixBugs adds the check.
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
	if fs.opts.FixBugs && cIn.Links == 0 {
		fs.rec.Detect(iron.DSanity, BTInode, "link count already zero")
		fs.rec.Recover(iron.RPropagate, BTInode, "unlink refused")
		return vfs.ErrCorrupt
	}
	if _, err := fs.dirRemove(pIn, name); err != nil {
		return err
	}
	pIn.Mtime = fs.now()
	if err := fs.storeInode(pIno, pIn); err != nil {
		return err
	}
	cIn.Links-- // underflows on corruption without FixBugs — reproduced bug
	if cIn.Links == 0 {
		if err := fs.truncateBlocks(cIn, 0); err != nil {
			if serr := fs.swallowIO(err); serr != nil {
				return serr
			}
		}
		if cIn.Parity != 0 {
			if err := fs.freeBlock(int64(cIn.Parity)); err != nil {
				return fs.swallowIO(err)
			}
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

// Rmdir implements vfs.FileSystem; its silent-failure bug mirrors
// Truncate's.
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
		return fs.swallowIO(err)
	}
	if !cIn.isDir() {
		return vfs.ErrNotDir
	}
	empty, err := fs.dirIsEmpty(cIn)
	if err != nil {
		return fs.swallowIO(err)
	}
	if !empty {
		return vfs.ErrNotEmpty
	}
	if _, err := fs.dirRemove(pIn, name); err != nil {
		return fs.swallowIO(err)
	}
	pIn.Mtime = fs.now()
	if err := fs.storeInode(pIno, pIn); err != nil {
		return err
	}
	if err := fs.truncateBlocks(cIn, 0); err != nil {
		if serr := fs.swallowIO(err); serr != nil {
			return serr
		}
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
	if oIn.Links == 0xFFFF {
		return vfs.ErrTooManyLink
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
	if err := fs.dirAdd(pIno, pIn, name, oIno, byte(oIn.fileType())); err != nil {
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

// Rename implements vfs.FileSystem. An existing target file is replaced;
// an existing target directory must be empty.
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
	if tIno, _, err := fs.dirLookup(nPIn, nName); err == nil {
		tIn, err := fs.loadInode(tIno)
		if err != nil {
			return err
		}
		if tIn.isDir() {
			empty, err := fs.dirIsEmpty(tIn)
			if err != nil {
				return err
			}
			if !empty {
				return vfs.ErrNotEmpty
			}
			if _, err := fs.dirRemove(nPIn, nName); err != nil {
				return err
			}
			if err := fs.truncateBlocks(tIn, 0); err != nil {
				return fs.swallowIO(err)
			}
			if err := fs.freeInode(tIno); err != nil {
				return err
			}
			if err := fs.clearInode(tIno); err != nil {
				return err
			}
		} else {
			if _, err := fs.dirRemove(nPIn, nName); err != nil {
				return err
			}
			tIn.Links--
			if tIn.Links == 0 {
				if err := fs.truncateBlocks(tIn, 0); err != nil {
					return fs.swallowIO(err)
				}
				if tIn.Parity != 0 {
					if err := fs.freeBlock(int64(tIn.Parity)); err != nil {
						return fs.swallowIO(err)
					}
				}
				if err := fs.freeInode(tIno); err != nil {
					return err
				}
				if err := fs.clearInode(tIno); err != nil {
					return err
				}
			} else if err := fs.storeInode(tIno, tIn); err != nil {
				return err
			}
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
	// Re-load the destination parent if it is the same directory: the
	// removal above may have changed it via the oPIn alias.
	if nPIno == oPIno {
		nPIn = oPIn
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

// Fsync implements vfs.FileSystem: commits the running transaction if it
// holds changes to the named file, else waits for the commit that carried
// them (journal.Engine.Fsync is the group-commit protocol).
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

// Chmod implements vfs.FileSystem.
func (fs *FS) Chmod(path string, mode uint16) error {
	return fs.setattr(path, func(in *inode) {
		in.Mode = (in.Mode & modeTypeMsk) | (mode & modePermMsk)
	})
}

// Chown implements vfs.FileSystem.
func (fs *FS) Chown(path string, uid, gid uint32) error {
	return fs.setattr(path, func(in *inode) {
		in.UID, in.GID = uid, gid
	})
}

// Utimes implements vfs.FileSystem.
func (fs *FS) Utimes(path string, atime, mtime int64) error {
	return fs.setattr(path, func(in *inode) {
		in.Atime, in.Mtime = atime, mtime
	})
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
