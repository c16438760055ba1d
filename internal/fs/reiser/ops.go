package reiser

import (
	"errors"

	"ironfs/internal/namei"
	"ironfs/internal/vfs"
)

// ReiserFS's namei.Store and the vfs.FileSystem operations that carry its
// data layout and §5.2 reactions, over the tree engine; the path walk and
// the lookup and attribute operations are namei.Namespace's.

// RootLocked implements namei.Store.
func (fs *FS) RootLocked() (objRef, *statData, error) {
	sd, err := fs.LoadLocked(rootRef())
	return rootRef(), sd, err
}

// LookupLocked implements namei.Store.
func (fs *FS) LookupLocked(dir objRef, _ *statData, name string) (objRef, error) {
	ent, err := fs.dirLookup(dir, name)
	return ent.Child, err
}

// KeyOf implements namei.Store: the key prefix, object id low.
func (fs *FS) KeyOf(r objRef) uint64 { return uint64(r.DirID)<<32 | uint64(r.ObjID) }

// ReadLinkLocked implements namei.Store: the target is the link's tail.
func (fs *FS) ReadLinkLocked(r objRef, sd *statData) (string, error) {
	has, tail, err := fs.hasTail(r)
	if err != nil {
		return "", err
	}
	if !has || uint64(len(tail)) < sd.Size {
		return "", vfs.ErrCorrupt
	}
	return string(tail[:sd.Size]), nil
}

// CreateLocked implements namei.Store: the stat item goes in first, then
// the directory entry.
func (fs *FS) CreateLocked(pRef objRef, _ *statData, name string, kind vfs.FileType, a namei.Attr) (objRef, *statData, error) {
	ref := objRef{DirID: pRef.ObjID, ObjID: fs.allocOID()}
	sd := &statData{namei.Typed(kind, a)}
	if err := fs.insertItem(item{K: ref.statKey(), Body: sd.marshal()}); err != nil {
		return objRef{}, nil, err
	}
	if err := fs.dirAddEntry(pRef, dirEnt{Child: ref, FType: byte(kind), Name: name}); err != nil {
		return objRef{}, nil, err
	}
	return ref, sd, nil
}

// Symlink implements vfs.FileSystem; the target is stored as a tail.
func (fs *FS) Symlink(target, linkpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.GuardWriteLocked(); err != nil {
		return err
	}
	if target == "" || len(target) > tailMax {
		return vfs.ErrInval
	}
	ref, _, err := fs.MknodLocked(linkpath, 0o777, vfs.TypeSymlink)
	if err != nil {
		return err
	}
	if err := fs.insertItem(item{K: ref.directKey(), Body: []byte(target)}); err != nil {
		return err
	}
	sd, err := fs.LoadLocked(ref)
	if err != nil {
		return err
	}
	sd.Size = uint64(len(target))
	if err := fs.StoreLocked(ref, sd); err != nil {
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
	ref, sd, err := fs.ResolveLocked(path, true)
	if err != nil {
		return nil, err
	}
	if !sd.IsDir() {
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
	if err := fs.GuardReadLocked(); err != nil {
		return 0, err
	}
	ref, sd, err := fs.ResolveLocked(path, true)
	if err != nil {
		return 0, err
	}
	if sd.IsDir() {
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
		sd.Atime = fs.Now()
		if err := fs.StoreLocked(ref, sd); err == nil {
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
	ref, sd, err := fs.ResolveLocked(path, true)
	if err != nil {
		return 0, err
	}
	if sd.IsDir() {
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
			fs.tx.StageData(ptr, buf, BTData)
			written += chunk
		}
	}

	sd.Size = uint64(newSize)
	if off+int64(len(data)) > int64(sd.Size) {
		sd.Size = uint64(off + int64(len(data)))
	}
	sd.Mtime = fs.Now()
	if err := fs.StoreLocked(ref, sd); err != nil {
		return 0, err
	}
	if err := fs.MaybeCommitLocked(); err != nil {
		return 0, err
	}
	return len(data), nil
}

// Truncate implements vfs.FileSystem.
func (fs *FS) Truncate(path string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.GuardWriteLocked(); err != nil {
		return err
	}
	ref, sd, err := fs.ResolveLocked(path, true)
	if err != nil {
		return err
	}
	if sd.IsDir() {
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
						fs.tx.StageData(ptr, nb, BTData)
					}
				}
			}
		}
	}
	sd.Size = uint64(size)
	sd.Mtime = fs.Now()
	if err := fs.StoreLocked(ref, sd); err != nil {
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
	pRef, _, name, err := fs.ParentLocked(path)
	if err != nil {
		return err
	}
	ent, err := fs.dirLookup(pRef, name)
	if err != nil {
		return err
	}
	sd, err := fs.LoadLocked(ent.Child)
	if err != nil {
		return err
	}
	if sd.IsDir() {
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
		sd.Ctime = fs.Now()
		if err := fs.StoreLocked(ent.Child, sd); err != nil {
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
	pRef, _, name, err := fs.ParentLocked(path)
	if err != nil {
		return err
	}
	ent, err := fs.dirLookup(pRef, name)
	if err != nil {
		return err
	}
	sd, err := fs.LoadLocked(ent.Child)
	if err != nil {
		return err
	}
	if !sd.IsDir() {
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
	return fs.MaybeCommitLocked()
}

// Link implements vfs.FileSystem.
func (fs *FS) Link(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.GuardWriteLocked(); err != nil {
		return err
	}
	oRef, oSd, err := fs.ResolveLocked(oldpath, false)
	if err != nil {
		return err
	}
	if oSd.IsDir() {
		return vfs.ErrIsDir
	}
	pRef, _, name, err := fs.ParentLocked(newpath)
	if err != nil {
		return err
	}
	if _, err := fs.dirLookup(pRef, name); err == nil {
		return vfs.ErrExist
	} else if !errors.Is(err, vfs.ErrNotExist) {
		return err
	}
	if err := fs.dirAddEntry(pRef, dirEnt{Child: oRef, FType: byte(oSd.FileType()), Name: name}); err != nil {
		return err
	}
	oSd.Links++
	oSd.Ctime = fs.Now()
	if err := fs.StoreLocked(oRef, oSd); err != nil {
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
	oPRef, _, oName, err := fs.ParentLocked(oldpath)
	if err != nil {
		return err
	}
	ent, err := fs.dirLookup(oPRef, oName)
	if err != nil {
		return err
	}
	nPRef, _, nName, err := fs.ParentLocked(newpath)
	if err != nil {
		return err
	}
	if tEnt, err := fs.dirLookup(nPRef, nName); err == nil {
		tSd, serr := fs.LoadLocked(tEnt.Child)
		if serr != nil {
			return serr
		}
		if tSd.IsDir() {
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
			} else if perr := fs.StoreLocked(tEnt.Child, tSd); perr != nil {
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
	return fs.MaybeCommitLocked()
}
