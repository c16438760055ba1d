package reiser

import (
	"errors"

	"ironfs/internal/vfs"
)

// VFS operations over the tree engine.

const maxSymlinkDepth = 8

// resolve walks an absolute path to an object reference and its stat data.
func (fs *FS) resolve(path string, follow bool) (objRef, *statData, error) {
	parts, err := vfs.SplitPath(path)
	if err != nil {
		return objRef{}, nil, err
	}
	return fs.walk(parts, follow, 0)
}

func (fs *FS) walk(parts []string, follow bool, depth int) (objRef, *statData, error) {
	if depth > maxSymlinkDepth {
		return objRef{}, nil, vfs.ErrInval
	}
	ref := rootRef()
	sd, err := fs.getStat(ref)
	if err != nil {
		return objRef{}, nil, err
	}
	for i, name := range parts {
		if !sd.isDir() {
			return objRef{}, nil, vfs.ErrNotDir
		}
		ent, err := fs.dirLookup(ref, name)
		if err != nil {
			return objRef{}, nil, err
		}
		cRef := ent.Child
		cSd, err := fs.getStat(cRef)
		if err != nil {
			return objRef{}, nil, err
		}
		last := i == len(parts)-1
		if cSd.fileType() == vfs.TypeSymlink && (!last || follow) {
			target, err := fs.readSymlink(cRef, cSd)
			if err != nil {
				return objRef{}, nil, err
			}
			tparts, err := vfs.SplitPath(target)
			if err != nil {
				return objRef{}, nil, err
			}
			rest := append(append([]string{}, tparts...), parts[i+1:]...)
			return fs.walk(rest, follow, depth+1)
		}
		ref, sd = cRef, cSd
	}
	return ref, sd, nil
}

// resolveParent resolves the directory containing path's final component.
func (fs *FS) resolveParent(path string) (objRef, *statData, string, error) {
	dirParts, name, err := vfs.SplitDir(path)
	if err != nil {
		return objRef{}, nil, "", err
	}
	ref, sd, err := fs.walk(dirParts, true, 0)
	if err != nil {
		return objRef{}, nil, "", err
	}
	if !sd.isDir() {
		return objRef{}, nil, "", vfs.ErrNotDir
	}
	return ref, sd, name, nil
}

func (fs *FS) readSymlink(r objRef, sd *statData) (string, error) {
	has, tail, err := fs.hasTail(r)
	if err != nil {
		return "", err
	}
	if !has || uint64(len(tail)) < sd.Size {
		return "", vfs.ErrCorrupt
	}
	return string(tail[:sd.Size]), nil
}

// createNode allocates an object and links it into its parent.
func (fs *FS) createNode(path string, mode uint16, ftype uint16) (objRef, error) {
	pRef, _, name, err := fs.resolveParent(path)
	if err != nil {
		return objRef{}, err
	}
	if _, err := fs.dirLookup(pRef, name); err == nil {
		return objRef{}, vfs.ErrExist
	} else if !errors.Is(err, vfs.ErrNotExist) {
		return objRef{}, err
	}
	ref := objRef{DirID: pRef.ObjID, ObjID: fs.allocOID()}
	now := fs.now()
	sd := &statData{Mode: ftype | (mode & modePermMsk), Links: 1, Atime: now, Mtime: now, Ctime: now}
	if err := fs.insertItem(item{K: ref.statKey(), Body: sd.marshal()}); err != nil {
		return objRef{}, err
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
	if err := fs.dirAddEntry(pRef, dirEnt{Child: ref, FType: byte(vt), Name: name}); err != nil {
		return objRef{}, err
	}
	return ref, nil
}

// Create implements vfs.FileSystem.
func (fs *FS) Create(path string, mode uint16) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardWrite(); err != nil {
		return err
	}
	if _, err := fs.createNode(path, mode, modeRegular); err != nil {
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
	if _, err := fs.createNode(path, mode, modeDir); err != nil {
		return err
	}
	return fs.maybeCommit()
}

// Symlink implements vfs.FileSystem; the target is stored as a tail.
func (fs *FS) Symlink(target, linkpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardWrite(); err != nil {
		return err
	}
	if target == "" || len(target) > tailMax {
		return vfs.ErrInval
	}
	ref, err := fs.createNode(linkpath, 0o777, modeSymlink)
	if err != nil {
		return err
	}
	if err := fs.insertItem(item{K: ref.directKey(), Body: []byte(target)}); err != nil {
		return err
	}
	sd, err := fs.getStat(ref)
	if err != nil {
		return err
	}
	sd.Size = uint64(len(target))
	if err := fs.putStat(ref, sd); err != nil {
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
	ref, sd, err := fs.resolve(path, false)
	if err != nil {
		return "", err
	}
	if sd.fileType() != vfs.TypeSymlink {
		return "", vfs.ErrInval
	}
	return fs.readSymlink(ref, sd)
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

// Stat implements vfs.FileSystem.
func (fs *FS) Stat(path string) (vfs.FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardRead(); err != nil {
		return vfs.FileInfo{}, err
	}
	ref, sd, err := fs.resolve(path, true)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return fileInfo(ref, sd), nil
}

// Lstat implements vfs.FileSystem.
func (fs *FS) Lstat(path string) (vfs.FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardRead(); err != nil {
		return vfs.FileInfo{}, err
	}
	ref, sd, err := fs.resolve(path, false)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return fileInfo(ref, sd), nil
}

func fileInfo(ref objRef, sd *statData) vfs.FileInfo {
	return vfs.FileInfo{
		Ino:   ref.ObjID,
		Type:  sd.fileType(),
		Size:  int64(sd.Size),
		Links: sd.Links,
		Mode:  sd.Mode & modePermMsk,
		UID:   sd.UID,
		GID:   sd.GID,
		Atime: sd.Atime,
		Mtime: sd.Mtime,
		Ctime: sd.Ctime,
	}
}

// ReadDir implements vfs.FileSystem.
func (fs *FS) ReadDir(path string) ([]vfs.DirEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardRead(); err != nil {
		return nil, err
	}
	ref, sd, err := fs.resolve(path, true)
	if err != nil {
		return nil, err
	}
	if !sd.isDir() {
		return nil, vfs.ErrNotDir
	}
	ents, err := fs.dirEntries(ref)
	if err != nil {
		return nil, err
	}
	out := make([]vfs.DirEntry, 0, len(ents))
	for _, e := range ents {
		out = append(out, vfs.DirEntry{Name: e.Name, Ino: e.Child.ObjID, Type: vfs.FileType(e.FType)})
	}
	return out, nil
}

// Read implements vfs.FileSystem.
func (fs *FS) Read(path string, off int64, buf []byte) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardRead(); err != nil {
		return 0, err
	}
	ref, sd, err := fs.resolve(path, true)
	if err != nil {
		return 0, err
	}
	if sd.isDir() {
		return 0, vfs.ErrIsDir
	}
	if off < 0 {
		return 0, vfs.ErrInval
	}
	size := int64(sd.Size)
	if off >= size {
		return 0, nil
	}
	n := int64(len(buf))
	if off+n > size {
		n = size - off
	}
	if has, tail, herr := fs.hasTail(ref); herr != nil {
		return 0, herr
	} else if has {
		copied := copy(buf[:n], tail[off:])
		return copied, nil
	}
	read := int64(0)
	for read < n {
		idx := (off + read) / BlockSize
		bo := (off + read) % BlockSize
		chunk := BlockSize - bo
		if chunk > n-read {
			chunk = n - read
		}
		ptr, err := fs.blockPtr(ref, idx, false)
		if err != nil {
			return int(read), err
		}
		if ptr == 0 {
			for i := int64(0); i < chunk; i++ {
				buf[read+i] = 0
			}
		} else if !fs.cache.GetInto(ptr, int(bo), buf[read:read+chunk]) {
			// Miss: fill from the device (which also drives read-ahead)
			// and copy. The hit path above copied under the shard lock
			// without allocating.
			data, err := fs.fillDataBlock(ptr)
			if err != nil {
				return int(read), err
			}
			copy(buf[read:read+chunk], data[bo:bo+chunk])
		}
		read += chunk
	}
	if !fs.noatime && fs.health.State() == vfs.Healthy {
		sd.Atime = fs.now()
		if err := fs.putStat(ref, sd); err == nil {
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
	ref, sd, err := fs.resolve(path, true)
	if err != nil {
		return 0, err
	}
	if sd.isDir() {
		return 0, vfs.ErrIsDir
	}
	if off < 0 {
		return 0, vfs.ErrInval
	}
	newSize := off + int64(len(data))
	if int64(sd.Size) > newSize {
		newSize = int64(sd.Size)
	}

	if newSize <= tailMax {
		// Small file: keep (or grow) the tail in a direct item.
		has, tail, herr := fs.hasTail(ref)
		if herr != nil {
			return 0, herr
		}
		body := make([]byte, newSize)
		copy(body, tail)
		copy(body[off:], data)
		var werr error
		if has {
			werr = fs.replaceItem(ref.directKey(), body)
		} else {
			werr = fs.insertItem(item{K: ref.directKey(), Body: body})
		}
		if werr != nil {
			return 0, werr
		}
	} else {
		if err := fs.convertTail(ref); err != nil {
			return 0, err
		}
		written := int64(0)
		n := int64(len(data))
		for written < n {
			idx := (off + written) / BlockSize
			bo := (off + written) % BlockSize
			chunk := BlockSize - bo
			if chunk > n-written {
				chunk = n - written
			}
			ptr, err := fs.blockPtr(ref, idx, true)
			if err != nil {
				return int(written), err
			}
			var buf []byte
			if bo == 0 && chunk == BlockSize {
				buf = make([]byte, BlockSize)
			} else if cur := fs.cache.Get(ptr); cur != nil {
				buf = make([]byte, BlockSize)
				copy(buf, cur)
			} else {
				buf = make([]byte, BlockSize)
				if int64(sd.Size) > idx*BlockSize {
					if old, rerr := fs.readDataBlock(ptr); rerr == nil {
						copy(buf, old)
					}
				}
			}
			copy(buf[bo:bo+chunk], data[written:written+chunk])
			fs.stageData(ptr, buf)
			written += chunk
		}
	}

	sd.Size = uint64(newSize)
	if off+int64(len(data)) > int64(sd.Size) {
		sd.Size = uint64(off + int64(len(data)))
	}
	sd.Mtime = fs.now()
	if err := fs.putStat(ref, sd); err != nil {
		return 0, err
	}
	if err := fs.maybeCommit(); err != nil {
		return 0, err
	}
	return len(data), nil
}

// Truncate implements vfs.FileSystem.
func (fs *FS) Truncate(path string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardWrite(); err != nil {
		return err
	}
	ref, sd, err := fs.resolve(path, true)
	if err != nil {
		return err
	}
	if sd.isDir() {
		return vfs.ErrIsDir
	}
	if size < 0 {
		return vfs.ErrInval
	}
	if size < int64(sd.Size) {
		if has, tail, herr := fs.hasTail(ref); herr == nil && has {
			if err := fs.replaceItem(ref.directKey(), append([]byte{}, tail[:size]...)); err != nil {
				return err
			}
		} else {
			if err := fs.freeFileBlocks(ref, size); err != nil {
				return err
			}
			// Zero the cut of the boundary block.
			if size%BlockSize != 0 {
				if ptr, perr := fs.blockPtr(ref, size/BlockSize, false); perr == nil && ptr != 0 {
					if old, rerr := fs.readDataBlock(ptr); rerr == nil {
						nb := make([]byte, BlockSize)
						copy(nb, old[:size%BlockSize])
						fs.stageData(ptr, nb)
					}
				}
			}
		}
	}
	sd.Size = uint64(size)
	sd.Mtime = fs.now()
	if err := fs.putStat(ref, sd); err != nil {
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
	ref, _, err := fs.resolve(path, true)
	if err != nil {
		return err
	}
	return fs.jn.Fsync(fs, uint64(ref.DirID)<<32|uint64(ref.ObjID))
}

// Unlink implements vfs.FileSystem.
func (fs *FS) Unlink(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardWrite(); err != nil {
		return err
	}
	pRef, _, name, err := fs.resolveParent(path)
	if err != nil {
		return err
	}
	ent, err := fs.dirLookup(pRef, name)
	if err != nil {
		return err
	}
	sd, err := fs.getStat(ent.Child)
	if err != nil {
		return err
	}
	if sd.isDir() {
		return vfs.ErrIsDir
	}
	if _, err := fs.dirRemoveEntry(pRef, name); err != nil {
		return err
	}
	sd.Links--
	if sd.Links == 0 {
		if err := fs.removeObject(ent.Child); err != nil {
			return err
		}
	} else {
		sd.Ctime = fs.now()
		if err := fs.putStat(ent.Child, sd); err != nil {
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
	pRef, _, name, err := fs.resolveParent(path)
	if err != nil {
		return err
	}
	ent, err := fs.dirLookup(pRef, name)
	if err != nil {
		return err
	}
	sd, err := fs.getStat(ent.Child)
	if err != nil {
		return err
	}
	if !sd.isDir() {
		return vfs.ErrNotDir
	}
	ents, err := fs.dirEntries(ent.Child)
	if err != nil {
		return err
	}
	if len(ents) > 0 {
		return vfs.ErrNotEmpty
	}
	if _, err := fs.dirRemoveEntry(pRef, name); err != nil {
		return err
	}
	if err := fs.removeObject(ent.Child); err != nil {
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
	oRef, oSd, err := fs.resolve(oldpath, false)
	if err != nil {
		return err
	}
	if oSd.isDir() {
		return vfs.ErrIsDir
	}
	pRef, _, name, err := fs.resolveParent(newpath)
	if err != nil {
		return err
	}
	if _, err := fs.dirLookup(pRef, name); err == nil {
		return vfs.ErrExist
	} else if !errors.Is(err, vfs.ErrNotExist) {
		return err
	}
	if err := fs.dirAddEntry(pRef, dirEnt{Child: oRef, FType: byte(oSd.fileType()), Name: name}); err != nil {
		return err
	}
	oSd.Links++
	oSd.Ctime = fs.now()
	if err := fs.putStat(oRef, oSd); err != nil {
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
	oPRef, _, oName, err := fs.resolveParent(oldpath)
	if err != nil {
		return err
	}
	ent, err := fs.dirLookup(oPRef, oName)
	if err != nil {
		return err
	}
	nPRef, _, nName, err := fs.resolveParent(newpath)
	if err != nil {
		return err
	}
	if tEnt, err := fs.dirLookup(nPRef, nName); err == nil {
		tSd, serr := fs.getStat(tEnt.Child)
		if serr != nil {
			return serr
		}
		if tSd.isDir() {
			tents, derr := fs.dirEntries(tEnt.Child)
			if derr != nil {
				return derr
			}
			if len(tents) > 0 {
				return vfs.ErrNotEmpty
			}
			if _, derr := fs.dirRemoveEntry(nPRef, nName); derr != nil {
				return derr
			}
			if derr := fs.removeObject(tEnt.Child); derr != nil {
				return derr
			}
		} else {
			if _, derr := fs.dirRemoveEntry(nPRef, nName); derr != nil {
				return derr
			}
			tSd.Links--
			if tSd.Links == 0 {
				if derr := fs.removeObject(tEnt.Child); derr != nil {
					return derr
				}
			} else if perr := fs.putStat(tEnt.Child, tSd); perr != nil {
				return perr
			}
		}
	} else if !errors.Is(err, vfs.ErrNotExist) {
		return err
	}
	if _, err := fs.dirRemoveEntry(oPRef, oName); err != nil {
		return err
	}
	if err := fs.dirAddEntry(nPRef, dirEnt{Child: ent.Child, FType: ent.FType, Name: nName}); err != nil {
		return err
	}
	return fs.maybeCommit()
}

// Chmod implements vfs.FileSystem.
func (fs *FS) Chmod(path string, mode uint16) error {
	return fs.setattr(path, func(sd *statData) {
		sd.Mode = (sd.Mode & modeTypeMsk) | (mode & modePermMsk)
	})
}

// Chown implements vfs.FileSystem.
func (fs *FS) Chown(path string, uid, gid uint32) error {
	return fs.setattr(path, func(sd *statData) { sd.UID, sd.GID = uid, gid })
}

// Utimes implements vfs.FileSystem.
func (fs *FS) Utimes(path string, atime, mtime int64) error {
	return fs.setattr(path, func(sd *statData) { sd.Atime, sd.Mtime = atime, mtime })
}

func (fs *FS) setattr(path string, mutate func(*statData)) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.guardWrite(); err != nil {
		return err
	}
	ref, sd, err := fs.resolve(path, true)
	if err != nil {
		return err
	}
	mutate(sd)
	sd.Ctime = fs.now()
	if err := fs.putStat(ref, sd); err != nil {
		return err
	}
	return fs.maybeCommit()
}
