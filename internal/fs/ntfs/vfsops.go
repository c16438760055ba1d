package ntfs

import (
	"errors"

	"ironfs/internal/vfs"
)

// The vfs.FileSystem operations.

const maxSymlinkDepth = 8

func (fs *FS) resolve(path string, follow bool) (uint32, *mftRecord, error) {
	parts, err := vfs.SplitPath(path)
	if err != nil {
		return 0, nil, err
	}
	return fs.walk(parts, follow, 0)
}

func (fs *FS) walk(parts []string, follow bool, depth int) (uint32, *mftRecord, error) {
	if depth > maxSymlinkDepth {
		return 0, nil, vfs.ErrInval
	}
	rec := RootRec
	r, err := fs.loadRecord(rec)
	if err != nil {
		return 0, nil, err
	}
	for i, name := range parts {
		if !r.isDir() {
			return 0, nil, vfs.ErrNotDir
		}
		child, _, err := fs.dirLookup(r, name)
		if err != nil {
			return 0, nil, err
		}
		cr, err := fs.loadRecord(child)
		if err != nil {
			return 0, nil, err
		}
		if !cr.inUse() {
			return 0, nil, vfs.ErrNotExist
		}
		last := i == len(parts)-1
		if cr.isSymlink() && (!last || follow) {
			target, err := fs.readSymlink(cr)
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
		rec, r = child, cr
	}
	return rec, r, nil
}

func (fs *FS) resolveParent(path string) (uint32, *mftRecord, string, error) {
	dirParts, name, err := vfs.SplitDir(path)
	if err != nil {
		return 0, nil, "", err
	}
	rec, r, err := fs.walk(dirParts, true, 0)
	if err != nil {
		return 0, nil, "", err
	}
	if !r.isDir() {
		return 0, nil, "", vfs.ErrNotDir
	}
	return rec, r, name, nil
}

func (fs *FS) readSymlink(r *mftRecord) (string, error) {
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

func (fs *FS) createNode(path string, mode uint16, flags uint16) (uint32, *mftRecord, error) {
	pRec, pR, name, err := fs.resolveParent(path)
	if err != nil {
		return 0, nil, err
	}
	if _, _, err := fs.dirLookup(pR, name); err == nil {
		return 0, nil, vfs.ErrExist
	} else if !errors.Is(err, vfs.ErrNotExist) {
		return 0, nil, err
	}
	rec, err := fs.allocRecord()
	if err != nil {
		return 0, nil, err
	}
	now := fs.now()
	r := &mftRecord{Magic: recMagic, Flags: flagInUse | flags, Links: 1,
		Mode: mode, Atime: now, Mtime: now, Ctime: now}
	var vt vfs.FileType
	switch {
	case flags&flagDir != 0:
		vt = vfs.TypeDirectory
	case flags&flagSymlink != 0:
		vt = vfs.TypeSymlink
	default:
		vt = vfs.TypeRegular
	}
	if err := fs.dirAdd(pRec, pR, name, rec, byte(vt)); err != nil {
		return 0, nil, err
	}
	pR.Mtime = now
	if err := fs.storeRecord(pRec, pR); err != nil {
		return 0, nil, err
	}
	if err := fs.storeRecord(rec, r); err != nil {
		return 0, nil, err
	}
	return rec, r, nil
}

// Create implements vfs.FileSystem.
func (fs *FS) Create(path string, mode uint16) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardWrite(); err != nil {
		return err
	}
	if _, _, err := fs.createNode(path, mode, 0); err != nil {
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
	if _, _, err := fs.createNode(path, mode, flagDir); err != nil {
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
	rec, r, err := fs.createNode(linkpath, 0o777, flagSymlink)
	if err != nil {
		return err
	}
	blk, err := fs.blockPtr(r, 0, true)
	if err != nil {
		return err
	}
	buf := make([]byte, BlockSize)
	copy(buf, target)
	fs.stageData(blk, buf)
	r.Size = uint64(len(target))
	if err := fs.storeRecord(rec, r); err != nil {
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
	_, r, err := fs.resolve(path, false)
	if err != nil {
		return "", err
	}
	if !r.isSymlink() {
		return "", vfs.ErrInval
	}
	return fs.readSymlink(r)
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

func fileInfo(rec uint32, r *mftRecord) vfs.FileInfo {
	t := vfs.TypeRegular
	switch {
	case r.isDir():
		t = vfs.TypeDirectory
	case r.isSymlink():
		t = vfs.TypeSymlink
	}
	return vfs.FileInfo{
		Ino: rec, Type: t, Size: int64(r.Size), Links: r.Links,
		Mode: r.Mode, UID: r.UID, GID: r.GID,
		Atime: r.Atime, Mtime: r.Mtime, Ctime: r.Ctime,
	}
}

// Stat implements vfs.FileSystem.
func (fs *FS) Stat(path string) (vfs.FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardRead(); err != nil {
		return vfs.FileInfo{}, err
	}
	rec, r, err := fs.resolve(path, true)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return fileInfo(rec, r), nil
}

// Lstat implements vfs.FileSystem.
func (fs *FS) Lstat(path string) (vfs.FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardRead(); err != nil {
		return vfs.FileInfo{}, err
	}
	rec, r, err := fs.resolve(path, false)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return fileInfo(rec, r), nil
}

// ReadDir implements vfs.FileSystem.
func (fs *FS) ReadDir(path string) ([]vfs.DirEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardRead(); err != nil {
		return nil, err
	}
	_, r, err := fs.resolve(path, true)
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
	if err := fs.guardRead(); err != nil {
		return 0, err
	}
	rec, r, err := fs.resolve(path, true)
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
		r.Atime = fs.now()
		if err := fs.storeRecord(rec, r); err == nil {
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
	rec, r, err := fs.resolve(path, true)
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
		fs.stageData(blk, buf)
		written += chunk
	}
	if off+n > int64(r.Size) {
		r.Size = uint64(off + n)
	}
	r.Mtime = fs.now()
	if err := fs.storeRecord(rec, r); err != nil {
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
	rec, r, err := fs.resolve(path, true)
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
					fs.stageData(blk, nb)
				}
			}
		}
	}
	r.Size = uint64(size)
	r.Mtime = fs.now()
	if err := fs.storeRecord(rec, r); err != nil {
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
	rec, _, err := fs.resolve(path, true)
	if err != nil {
		return err
	}
	return fs.jn.Fsync(fs, uint64(rec))
}

// Unlink implements vfs.FileSystem.
func (fs *FS) Unlink(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardWrite(); err != nil {
		return err
	}
	pRec, pR, name, err := fs.resolveParent(path)
	if err != nil {
		return err
	}
	cRec, _, err := fs.dirLookup(pR, name)
	if err != nil {
		return err
	}
	cR, err := fs.loadRecord(cRec)
	if err != nil {
		return err
	}
	if cR.isDir() {
		return vfs.ErrIsDir
	}
	if _, err := fs.dirRemove(pR, name); err != nil {
		return err
	}
	pR.Mtime = fs.now()
	if err := fs.storeRecord(pRec, pR); err != nil {
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
		cR.Ctime = fs.now()
		if err := fs.storeRecord(cRec, cR); err != nil {
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
	pRec, pR, name, err := fs.resolveParent(path)
	if err != nil {
		return err
	}
	cRec, _, err := fs.dirLookup(pR, name)
	if err != nil {
		return err
	}
	cR, err := fs.loadRecord(cRec)
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
	pR.Mtime = fs.now()
	if err := fs.storeRecord(pRec, pR); err != nil {
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
	return fs.maybeCommit()
}

// Link implements vfs.FileSystem.
func (fs *FS) Link(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardWrite(); err != nil {
		return err
	}
	oRec, oR, err := fs.resolve(oldpath, false)
	if err != nil {
		return err
	}
	if oR.isDir() {
		return vfs.ErrIsDir
	}
	pRec, pR, name, err := fs.resolveParent(newpath)
	if err != nil {
		return err
	}
	if _, _, err := fs.dirLookup(pR, name); err == nil {
		return vfs.ErrExist
	} else if !errors.Is(err, vfs.ErrNotExist) {
		return err
	}
	t := vfs.TypeRegular
	if oR.isSymlink() {
		t = vfs.TypeSymlink
	}
	if err := fs.dirAdd(pRec, pR, name, oRec, byte(t)); err != nil {
		return err
	}
	pR.Mtime = fs.now()
	if err := fs.storeRecord(pRec, pR); err != nil {
		return err
	}
	oR.Links++
	oR.Ctime = fs.now()
	if err := fs.storeRecord(oRec, oR); err != nil {
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
	oPRec, oPR, oName, err := fs.resolveParent(oldpath)
	if err != nil {
		return err
	}
	cRec, cType, err := fs.dirLookup(oPR, oName)
	if err != nil {
		return err
	}
	nPRec, nPR, nName, err := fs.resolveParent(newpath)
	if err != nil {
		return err
	}
	if nPRec == oPRec {
		nPR = oPR
	}
	if tRec, _, err := fs.dirLookup(nPR, nName); err == nil {
		tR, lerr := fs.loadRecord(tRec)
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
		} else if serr := fs.storeRecord(tRec, tR); serr != nil {
			return serr
		}
	} else if !errors.Is(err, vfs.ErrNotExist) {
		return err
	}
	if _, err := fs.dirRemove(oPR, oName); err != nil {
		return err
	}
	now := fs.now()
	oPR.Mtime = now
	if err := fs.storeRecord(oPRec, oPR); err != nil {
		return err
	}
	if err := fs.dirAdd(nPRec, nPR, nName, cRec, cType); err != nil {
		return err
	}
	nPR.Mtime = now
	if err := fs.storeRecord(nPRec, nPR); err != nil {
		return err
	}
	return fs.maybeCommit()
}

// Chmod implements vfs.FileSystem.
func (fs *FS) Chmod(path string, mode uint16) error {
	return fs.setattr(path, func(r *mftRecord) { r.Mode = mode })
}

// Chown implements vfs.FileSystem.
func (fs *FS) Chown(path string, uid, gid uint32) error {
	return fs.setattr(path, func(r *mftRecord) { r.UID, r.GID = uid, gid })
}

// Utimes implements vfs.FileSystem.
func (fs *FS) Utimes(path string, atime, mtime int64) error {
	return fs.setattr(path, func(r *mftRecord) { r.Atime, r.Mtime = atime, mtime })
}

func (fs *FS) setattr(path string, mutate func(*mftRecord)) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardWrite(); err != nil {
		return err
	}
	rec, r, err := fs.resolve(path, true)
	if err != nil {
		return err
	}
	mutate(r)
	r.Ctime = fs.now()
	if err := fs.storeRecord(rec, r); err != nil {
		return err
	}
	return fs.maybeCommit()
}
