package reiser

import (
	"ironfs/internal/namei"
	"ironfs/internal/vfs"
)

// ReiserFS's namei.Store, over the tree engine: the path walk, the
// namespace operations and the sequencing of Read, Write and Truncate are
// namei.Namespace's.

// RootLocked implements namei.Store.
func (fs *FS) RootLocked() (objRef, statData, error) {
	sd, err := fs.LoadLocked(rootRef())
	return rootRef(), sd, err
}

// LookupLocked implements namei.Store.
func (fs *FS) LookupLocked(dir objRef, _ statData, name string) (objRef, byte, error) {
	ent, err := fs.dirLookup(dir, name)
	return ent.Child, ent.FType, err
}

// KeyOf implements namei.Store: the key prefix, object id low.
func (fs *FS) KeyOf(r objRef) uint64 { return uint64(r.DirID)<<32 | uint64(r.ObjID) }

// ReadLinkLocked implements namei.Store: the target is the link's tail.
func (fs *FS) ReadLinkLocked(r objRef, sd statData) (string, error) {
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
func (fs *FS) CreateLocked(pRef objRef, _ statData, name string, kind vfs.FileType, a namei.Attr) (objRef, statData, error) {
	ref := objRef{DirID: pRef.ObjID, ObjID: fs.allocOID()}
	sd := statData{namei.Typed(kind, a)}
	if err := fs.insertItem(item{K: ref.statKey(), Body: sd.marshal()}); err != nil {
		return objRef{}, statData{}, err
	}
	if _, err := fs.DirAddLocked(pRef, statData{}, name, ref, byte(kind)); err != nil {
		return objRef{}, statData{}, err
	}
	return ref, sd, nil
}

// WriteLinkLocked implements namei.Store: the target is stored as a tail.
func (fs *FS) WriteLinkLocked(ref objRef, _ statData, target string) (statData, error) {
	if err := fs.insertItem(item{K: ref.directKey(), Body: []byte(target)}); err != nil {
		return statData{}, err
	}
	return fs.LoadLocked(ref)
}

// ReadAtLocked implements namei.Store: a small file is its tail item,
// past whose end (a truncate grew the file) is a hole.
func (fs *FS) ReadAtLocked(ref objRef, _ statData, off int64, p []byte) (int, error) {
	if has, tail, err := fs.hasTail(ref); err != nil {
		return 0, err
	} else if has {
		got := 0
		if off < int64(len(tail)) {
			got = copy(p, tail[off:])
		}
		clear(p[got:])
		return len(p), nil
	}
	n := int64(len(p))
	read := int64(0)
	for read < n {
		idx := (off + read) / BlockSize
		bo := (off + read) % BlockSize
		chunk := min(BlockSize-bo, n-read)
		dst := p[read : read+chunk]
		ptr, _, err := fs.blockPtr(ref, idx, false)
		if err != nil {
			return int(read), err
		}
		if ptr == 0 {
			clear(dst)
		} else if !fs.cache.GetInto(ptr, int(bo), dst) {
			// Miss: fill from the device, copying out before the insert,
			// and read ahead. The hit path above copied under the shard
			// lock without allocating.
			load := func(buf []byte) error { return fs.loadDataBlock(ptr, buf) }
			if err := fs.cache.MissInto(ptr, int(bo), dst, load); err != nil {
				return int(read), err
			}
			fs.ra.ReadAhead(fs.dev, ptr, nil)
		}
		read += chunk
	}
	return int(read), nil
}

// WriteAtLocked implements namei.Store: a file that stays within tailMax
// keeps (or grows) its tail in a direct item; a larger one converts the
// tail to block 0 and is written block by block, as is one that already
// has blocks.
func (fs *FS) WriteAtLocked(ref objRef, sd statData, off int64, data []byte) (statData, int, error) {
	n := int64(len(data))
	if newSize := max(off+n, int64(sd.Size)); newSize <= tailMax {
		has, tail, err := fs.hasTail(ref)
		if err != nil {
			return sd, 0, err
		}
		// A block file cut back to tail size keeps its blocks, and is
		// written block by block like any other.
		var blk int64
		if !has && sd.Size > 0 {
			if blk, _, err = fs.blockPtr(ref, 0, false); err != nil {
				return sd, 0, err
			}
		}
		if blk == 0 {
			body := make([]byte, newSize)
			copy(body, tail)
			copy(body[off:], data)
			if has {
				err = fs.replaceItem(ref.directKey(), body)
			} else {
				err = fs.insertItem(item{K: ref.directKey(), Body: body})
			}
			if err != nil {
				return sd, 0, err
			}
			return sd, len(data), nil
		}
	}
	if err := fs.convertTail(ref); err != nil {
		return sd, 0, err
	}
	written := int64(0)
	for written < n {
		idx := (off + written) / BlockSize
		bo := (off + written) % BlockSize
		chunk := min(BlockSize-bo, n-written)
		ptr, fresh, err := fs.blockPtr(ref, idx, true)
		if err != nil {
			return sd, int(written), err
		}
		// A block allocated here, for a hole, starts zeroed: what the device
		// holds there is a freed block's old contents. So does a partial
		// block past the end of the file unless it is resident, or one that
		// cannot be read. Each looks the block up once.
		var old []byte
		switch {
		case chunk == BlockSize || fresh:
			// Nothing of the old block survives the write.
		case int64(sd.Size) > idx*BlockSize:
			load := func(buf []byte) error { return fs.loadDataBlock(ptr, buf) }
			if b, rerr := fs.cache.Modify(ptr, load); rerr == nil {
				old = b
			}
		default:
			old = fs.cache.Borrow(ptr)
		}
		fs.tx.StageWrite(ptr, old, bo, data[written:written+chunk], BTData)
		written += chunk
	}
	return sd, int(written), nil
}

// CutLocked implements namei.Store: a tail is shortened in place, a block
// file loses its blocks and indirect items past size.
func (fs *FS) CutLocked(ref objRef, sd statData, size int64) (statData, error) {
	if has, tail, herr := fs.hasTail(ref); herr == nil && has {
		return sd, fs.replaceItem(ref.directKey(), append([]byte{}, tail[:min(size, int64(len(tail)))]...))
	}
	if err := fs.freeFileBlocks(ref, size); err != nil {
		return sd, err
	}
	// Zero the cut of the boundary block.
	if size%BlockSize != 0 {
		if ptr, _, perr := fs.blockPtr(ref, size/BlockSize, false); perr == nil && ptr != 0 {
			load := func(buf []byte) error { return fs.loadDataBlock(ptr, buf) }
			if old, rerr := fs.cache.Modify(ptr, load); rerr == nil {
				clear(old[size%BlockSize:])
				fs.tx.StageData(ptr, old, BTData)
			}
		}
	}
	return sd, nil
}
