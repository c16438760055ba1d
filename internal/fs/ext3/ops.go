package ext3

import (
	"errors"

	"ironfs/internal/iron"
	"ironfs/internal/namei"
	"ironfs/internal/vfs"
)

// This file implements ext3's namei.Store and the vfs.FileSystem operations
// that carry its data layout and §5.1 reactions; the path walk and the
// lookup and attribute operations are namei.Namespace's.

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

// RootLocked implements namei.Store.
func (fs *FS) RootLocked() (uint32, *inode, error) {
	in, err := fs.LoadLocked(RootIno)
	if err != nil {
		return 0, nil, err
	}
	if !in.Allocated() {
		return 0, nil, vfs.ErrCorrupt
	}
	return RootIno, in, nil
}

// LookupLocked implements namei.Store.
func (fs *FS) LookupLocked(_ uint32, dn *inode, name string) (uint32, error) {
	ino, _, err := fs.dirLookup(dn, name)
	return ino, err
}

// KeyOf implements namei.Store: the inode number.
func (fs *FS) KeyOf(ino uint32) uint64 { return uint64(ino) }

// ReadLinkLocked implements namei.Store: the target is the link's single
// data block.
func (fs *FS) ReadLinkLocked(_ uint32, in *inode) (string, error) {
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

// CreateLocked implements namei.Store.
func (fs *FS) CreateLocked(pIno uint32, pIn *inode, name string, kind vfs.FileType, a namei.Attr) (uint32, *inode, error) {
	ino, err := fs.allocInode(fs.groupOfInode(pIno))
	if err != nil {
		return 0, nil, err
	}
	in := &inode{TypedAttr: namei.Typed(kind, a)}

	// ixt3 Dp: preallocate the file's parity block at create (§6.1).
	if fs.opts.DataParity && kind == vfs.TypeRegular {
		pblk, err := fs.allocBlock(fs.groupOfInode(ino), BTParity)
		if err == nil {
			in.Parity = uint64(pblk)
			fs.txDataNew(pblk, BTParity)
		}
	}

	if err := fs.dirAdd(pIno, pIn, name, ino, byte(kind)); err != nil {
		if ferr := fs.freeInode(ino); ferr != nil {
			// The create already failed and that error propagates; a
			// cleanup failure on top additionally leaks the inode until
			// fsck, which deserves a record rather than silence.
			fs.rec.Detect(iron.DErrorCode, BTIBitmap, "inode free failed during create cleanup")
			fs.rec.Recover(iron.RPropagate, BTIBitmap, "create error propagated; inode leaked until fsck")
		}
		return 0, nil, err
	}
	pIn.Mtime = a.Mtime
	if err := fs.StoreLocked(pIno, pIn); err != nil {
		return 0, nil, err
	}
	if err := fs.StoreLocked(ino, in); err != nil {
		return 0, nil, err
	}
	return ino, in, nil
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
	ino, in, err := fs.MknodLocked(linkpath, 0o777, vfs.TypeSymlink)
	if err != nil {
		return err
	}
	phys, err := fs.bmap(in, 0, true)
	if err != nil {
		return err
	}
	buf := fs.txDataNew(phys, BTData)
	copy(buf, target)
	in.Size = uint64(len(target))
	if err := fs.StoreLocked(ino, in); err != nil {
		return err
	}
	return fs.MaybeCommitLocked()
}

// ReadDir implements vfs.FileSystem.
func (fs *FS) ReadDir(path string) ([]vfs.DirEntry, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
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
		in.Atime = fs.Now()
		if serr := fs.StoreLocked(ino, in); serr == nil {
			if cerr := fs.MaybeCommitLocked(); cerr != nil {
				return n, cerr
			}
		}
	}
	return n, nil
}

// readLocked is the body of Read minus the atime update; the caller holds
// fs.mu (shared or exclusive).
func (fs *FS) readLocked(path string, off int64, buf []byte) (int, uint32, *inode, error) {
	if err := fs.GuardReadLocked(); err != nil {
		return 0, 0, nil, err
	}
	ino, in, err := fs.ResolveLocked(path, true)
	if err != nil {
		return 0, 0, nil, err
	}
	if in.IsDir() {
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
			buf = fs.txDataNew(phys, BTData)
		} else {
			// Populate the cache with verified (and, with Dp, recovered)
			// contents before the read-modify-write, so a latent error or
			// silent corruption in the old block cannot leak into the
			// parity group or the new contents.
			if _, rerr := fs.readData(phys, BTData, in, l, false); rerr != nil && (bo != 0 || chunk != BlockSize) {
				return int(written), rerr
			}
			buf, err = fs.txData(phys, BTData)
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
	in.Mtime = fs.Now()
	if err := fs.StoreLocked(ino, in); err != nil {
		return int(written), err
	}
	if err := fs.MaybeCommitLocked(); err != nil {
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
				if buf, err := fs.txData(phys, BTData); err == nil {
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
	in.Mtime = fs.Now()
	if err := fs.StoreLocked(ino, in); err != nil {
		return fs.swallowIO(err)
	}
	if err := fs.MaybeCommitLocked(); err != nil {
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
	if err := fs.GuardWriteLocked(); err != nil {
		return err
	}
	pIno, pIn, name, err := fs.ParentLocked(path)
	if err != nil {
		return err
	}
	cIno, _, err := fs.dirLookup(pIn, name)
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
	if fs.opts.FixBugs && cIn.Links == 0 {
		fs.rec.Detect(iron.DSanity, BTInode, "link count already zero")
		fs.rec.Recover(iron.RPropagate, BTInode, "unlink refused")
		return vfs.ErrCorrupt
	}
	if _, err := fs.dirRemove(pIn, name); err != nil {
		return err
	}
	pIn.Mtime = fs.Now()
	if err := fs.StoreLocked(pIno, pIn); err != nil {
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
		cIn.Ctime = fs.Now()
		if err := fs.StoreLocked(cIno, cIn); err != nil {
			return err
		}
	}
	return fs.MaybeCommitLocked()
}

// Rmdir implements vfs.FileSystem; its silent-failure bug mirrors
// Truncate's.
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
	cIno, _, err := fs.dirLookup(pIn, name)
	if err != nil {
		return err
	}
	cIn, err := fs.LoadLocked(cIno)
	if err != nil {
		return fs.swallowIO(err)
	}
	if !cIn.IsDir() {
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
	pIn.Mtime = fs.Now()
	if err := fs.StoreLocked(pIno, pIn); err != nil {
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
	if oIn.Links == 0xFFFF {
		return vfs.ErrTooManyLink
	}
	pIno, pIn, name, err := fs.ParentLocked(newpath)
	if err != nil {
		return err
	}
	if _, _, err := fs.dirLookup(pIn, name); err == nil {
		return vfs.ErrExist
	} else if !errors.Is(err, vfs.ErrNotExist) {
		return err
	}
	if err := fs.dirAdd(pIno, pIn, name, oIno, byte(oIn.FileType())); err != nil {
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

// Rename implements vfs.FileSystem. An existing target file is replaced;
// an existing target directory must be empty.
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
	cIno, cType, err := fs.dirLookup(oPIn, oName)
	if err != nil {
		return err
	}
	nPIno, nPIn, nName, err := fs.ParentLocked(newpath)
	if err != nil {
		return err
	}
	if tIno, _, err := fs.dirLookup(nPIn, nName); err == nil {
		tIn, err := fs.LoadLocked(tIno)
		if err != nil {
			return err
		}
		if tIn.IsDir() {
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
			} else if err := fs.StoreLocked(tIno, tIn); err != nil {
				return err
			}
		}
	} else if !errors.Is(err, vfs.ErrNotExist) {
		return err
	}

	if _, err := fs.dirRemove(oPIn, oName); err != nil {
		return err
	}
	now := fs.Now()
	oPIn.Mtime = now
	if err := fs.StoreLocked(oPIno, oPIn); err != nil {
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
	if err := fs.StoreLocked(nPIno, nPIn); err != nil {
		return err
	}
	return fs.MaybeCommitLocked()
}
