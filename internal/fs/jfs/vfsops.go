package jfs

import "ironfs/internal/vfs"

// The vfs.FileSystem operations that move file data; the rest are
// namei.Namespace's.

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
