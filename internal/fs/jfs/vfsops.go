package jfs

// How JFS moves file data, for namei.Namespace's Read, Write and Truncate.

// MaxFileSize is the largest file the inode's extents and internal blocks
// map, in bytes.
const MaxFileSize = maxFileBlocks * BlockSize

// ReadAtLocked implements namei.Store.
func (fs *FS) ReadAtLocked(_ uint32, in inode, off int64, p []byte) (int, error) {
	n := int64(len(p))
	read := int64(0)
	for read < n {
		l := (off + read) / BlockSize
		bo := (off + read) % BlockSize
		chunk := min(BlockSize-bo, n-read)
		dst := p[read : read+chunk]
		blk, err := fs.blockPtr(&in, l, false, true)
		if err != nil {
			return int(read), err
		}
		if blk == 0 {
			clear(dst)
		} else if !fs.cache.GetInto(blk, int(bo), dst) {
			// Miss: fill from the device, copying out before the insert,
			// and read ahead. The hit path above copied under the shard
			// lock without allocating.
			load := func(buf []byte) error { return fs.loadData(blk, buf) }
			if err := fs.cache.MissInto(blk, int(bo), dst, load); err != nil {
				return int(read), err
			}
			fs.ra.ReadAhead(fs.dev, blk, nil)
		}
		read += chunk
	}
	return int(read), nil
}

// WriteAtLocked implements namei.Store: a partial block is read and patched
// in place, a whole one overwrites its staged buffer or a fresh one. A
// partial block that cannot be read is staged as zeros around the patch.
func (fs *FS) WriteAtLocked(_ uint32, in inode, off int64, data []byte) (inode, int, error) {
	n := int64(len(data))
	written := int64(0)
	for written < n {
		l := (off + written) / BlockSize
		bo := (off + written) % BlockSize
		chunk := min(BlockSize-bo, n-written)
		pre, err := fs.blockPtr(&in, l, false, false)
		if err != nil {
			return in, int(written), err
		}
		blk, err := fs.blockPtr(&in, l, true, false)
		if err != nil {
			return in, int(written), err
		}
		var old []byte
		if pre != 0 && chunk != BlockSize {
			load := func(buf []byte) error { return fs.loadData(blk, buf) }
			if b, rerr := fs.cache.Modify(blk, load); rerr == nil {
				old = b
			}
		}
		fs.tx.StageWrite(blk, old, bo, data[written:written+chunk], BTData)
		written += chunk
	}
	return in, int(written), nil
}

// CutLocked implements namei.Store.
func (fs *FS) CutLocked(_ uint32, in inode, size int64) (inode, error) {
	if err := fs.freeFileBlocks(&in, size); err != nil {
		return in, err
	}
	if size%BlockSize != 0 {
		if blk, perr := fs.blockPtr(&in, size/BlockSize, false, false); perr == nil && blk != 0 {
			load := func(buf []byte) error { return fs.loadData(blk, buf) }
			if old, rerr := fs.cache.Modify(blk, load); rerr == nil {
				clear(old[size%BlockSize:])
				fs.tx.StageData(blk, old, BTData)
			}
		}
	}
	return in, nil
}
