package ext3

import (
	"errors"

	"ironfs/internal/iron"
	"ironfs/internal/namei"
	"ironfs/internal/vfs"
)

// This file implements ext3's namei.Store and the two namei.Volume hooks
// that carry its §5.1 reactions between an operation's steps: swallowIO
// and zeroLinks. The path walk, the namespace operations and the
// sequencing of Read, Write and Truncate are namei.Namespace's.

// swallowIO reproduces the §5.1 bug in which some ext3 operations
// (truncate, rmdir) detect an I/O problem but fail *silently*: the error is
// replaced by success. FixBugs restores propagation. It is the volume's
// namei.Volume.Swallow, and CutLocked and FreeLocked carry on past what it
// swallows.
func (fs *FS) swallowIO(err error) error {
	if err == nil || fs.opts.FixBugs {
		return err
	}
	if errors.Is(err, vfs.ErrIO) || errors.Is(err, vfs.ErrCorrupt) || errors.Is(err, vfs.ErrReadOnly) {
		return nil
	}
	return err
}

// zeroLinks is the sanity check stock ext3 lacks (§5.1), the volume's
// namei.Volume.ZeroLinks under FixBugs: an unlink of an object whose link
// count is already zero is refused. Stock ext3 lets the count underflow.
func (fs *FS) zeroLinks() error {
	fs.rec.Detect(iron.DSanity, BTInode, "link count already zero")
	fs.rec.Recover(iron.RPropagate, BTInode, "unlink refused")
	return vfs.ErrCorrupt
}

// RootLocked implements namei.Store.
func (fs *FS) RootLocked() (uint32, inode, error) {
	in, err := fs.LoadLocked(RootIno)
	if err != nil {
		return 0, inode{}, err
	}
	if !in.Allocated() {
		return 0, inode{}, vfs.ErrCorrupt
	}
	return RootIno, in, nil
}

// KeyOf implements namei.Store: the inode number.
func (fs *FS) KeyOf(ino uint32) uint64 { return uint64(ino) }

// ReadLinkLocked implements namei.Store: the target is the link's single
// data block.
func (fs *FS) ReadLinkLocked(_ uint32, in inode) (string, error) {
	if in.Size == 0 || in.Size > BlockSize {
		return "", vfs.ErrCorrupt
	}
	phys, err := fs.bmap(&in, 0, false)
	if err != nil {
		return "", err
	}
	if phys == 0 {
		return "", vfs.ErrCorrupt
	}
	buf := make([]byte, in.Size)
	if !fs.cache.GetInto(phys, 0, buf) {
		load := func(f []byte) error { return fs.loadData(phys, f, BTData, nil, 0, false) }
		if err := fs.cache.MissInto(phys, 0, buf, load); err != nil {
			return "", err
		}
	}
	return string(buf), nil
}

// CreateLocked implements namei.Store.
func (fs *FS) CreateLocked(pIno uint32, pIn inode, name string, kind vfs.FileType, a namei.Attr) (uint32, inode, error) {
	ino, err := fs.allocInode(fs.groupOfInode(pIno))
	if err != nil {
		return 0, inode{}, err
	}
	in := inode{TypedAttr: namei.Typed(kind, a)}
	if pIn, err = fs.DirAddLocked(pIno, pIn, name, ino, byte(kind)); err != nil {
		if ferr := fs.freeInode(ino); ferr != nil {
			// The create already failed and that error propagates; a
			// cleanup failure on top additionally leaks the inode until
			// fsck, which deserves a record rather than silence.
			fs.rec.Detect(iron.DErrorCode, BTIBitmap, "inode free failed during create cleanup")
			fs.rec.Recover(iron.RPropagate, BTIBitmap, "create error propagated; inode leaked until fsck")
		}
		return 0, inode{}, err
	}
	pIn.Mtime = a.Mtime
	if err := fs.StoreLocked(pIno, pIn); err != nil {
		return 0, inode{}, err
	}
	if err := fs.StoreLocked(ino, in); err != nil {
		return 0, inode{}, err
	}
	return ino, in, nil
}

// DirChangedLocked implements namei.Store: the directory's mtime.
func (fs *FS) DirChangedLocked(ino uint32, in inode) (inode, error) {
	in.Mtime = fs.Now()
	return in, fs.StoreLocked(ino, in)
}

// FreeLocked implements namei.Store: the blocks, the bitmap bit, then the
// table slot. Stock ext3 goes on past a failure to free the blocks as if
// it had not happened (§5.1); FixBugs stops there.
func (fs *FS) FreeLocked(ino uint32, in inode) error {
	if err := fs.truncateBlocks(&in, 0); err != nil {
		if serr := fs.swallowIO(err); serr != nil {
			return serr
		}
	}
	if err := fs.freeInode(ino); err != nil {
		return err
	}
	return fs.clearInode(ino)
}

// WriteLinkLocked implements namei.Store: the target is the link's single
// data block.
func (fs *FS) WriteLinkLocked(_ uint32, in inode, target string) (inode, error) {
	phys, err := fs.bmap(&in, 0, true)
	if err != nil {
		return in, err
	}
	copy(fs.txDataNew(phys, BTData), target)
	return in, nil
}

// ReadAtLocked implements namei.Store. A read spanning several blocks goes
// down ext3's readahead path, which is where its narrow retry lives (§5.1).
func (fs *FS) ReadAtLocked(_ uint32, in inode, off int64, p []byte) (int, error) {
	n := int64(len(p))
	prefetch := (off+n-1)/BlockSize > off/BlockSize
	read := int64(0)
	for read < n {
		l := (off + read) / BlockSize
		bo := (off + read) % BlockSize
		chunk := min(BlockSize-bo, n-read)
		dst := p[read : read+chunk]
		phys, err := fs.bmap(&in, l, false)
		if err != nil {
			return int(read), err
		}
		if phys == 0 {
			clear(dst)
		} else if !fs.cache.GetInto(phys, int(bo), dst) {
			// Miss: fill from the device, copying out before the insert,
			// and read ahead of it. Neither path holds a cache buffer.
			load := func(buf []byte) error { return fs.loadData(phys, buf, BTData, &in, l, prefetch) }
			if err := fs.cache.MissInto(phys, int(bo), dst, load); err != nil {
				return int(read), err
			}
			fs.ra.ReadAhead(fs.dev, phys, fs.prefetchOK)
		}
		read += chunk
	}
	return int(read), nil
}

// WriteAtLocked implements namei.Store.
func (fs *FS) WriteAtLocked(ino uint32, in inode, off int64, data []byte) (inode, int, error) {
	// ixt3 Dp (§6.1): a file's parity block is born with its first data,
	// just ahead of the blocks this write allocates, as ordered data in the
	// transaction that stores the inode naming it.
	born := int64(0)
	if fs.opts.DataParity && in.Parity == 0 && len(data) > 0 && in.unmapped() {
		if pblk, err := fs.allocBlock(fs.groupOfInode(ino), BTParity); err == nil {
			born, in.Parity = pblk, uint64(pblk)
			fs.txDataNew(pblk, BTParity)
		}
	}

	written := int64(0)
	n := int64(len(data))
	for written < n {
		l := (off + written) / BlockSize
		bo := (off + written) % BlockSize
		chunk := min(BlockSize-bo, n-written)
		pre := fs.bmapHas(&in, l)
		phys, err := fs.bmap(&in, l, true)
		if err != nil {
			if born != 0 {
				// The inode is not stored, so nothing would name the parity.
				if ferr := fs.freeBlock(born); ferr != nil {
					return in, int(written), ferr
				}
			}
			return in, int(written), err
		}
		var buf []byte
		if !pre {
			buf = fs.txDataNew(phys, BTData)
		} else {
			// Populate the cache with verified (and, with Dp, recovered)
			// contents before the read-modify-write, so a latent error or
			// silent corruption in the old block cannot leak into the
			// parity group or the new contents.
			load := func(buf []byte) error { return fs.loadData(phys, buf, BTData, &in, l, false) }
			if _, rerr := fs.cache.Modify(phys, load); rerr != nil && chunk != BlockSize {
				return in, int(written), rerr
			}
			buf, err = fs.txData(phys, BTData)
			if err != nil {
				return in, int(written), err
			}
		}
		old := fs.parityOld(&in, buf)
		copy(buf[bo:bo+chunk], data[written:written+chunk])
		if err := fs.updateParityDelta(&in, old, buf); err != nil {
			return in, int(written), err
		}
		written += chunk
	}
	return in, int(written), nil
}

// bmapHas reports whether logical block l is currently mapped, without
// allocating. Errors count as "mapped" so the write path re-reads and
// surfaces them properly.
func (fs *FS) bmapHas(in *inode, l int64) bool {
	phys, err := fs.bmap(in, l, false)
	return err != nil || phys != 0
}

// CutLocked implements namei.Store. Stock ext3 carries on past an I/O
// error freeing the blocks as if it had not happened (§5.1); FixBugs
// stops there.
func (fs *FS) CutLocked(_ uint32, in inode, size int64) (inode, error) {
	if err := fs.truncateBlocks(&in, size); err != nil {
		if serr := fs.swallowIO(err); serr != nil {
			return in, serr
		}
	}
	// Zero the tail of the new last block so growth re-exposes zeros.
	if size%BlockSize != 0 {
		if phys, err := fs.bmap(&in, size/BlockSize, false); err == nil && phys != 0 {
			load := func(buf []byte) error { return fs.loadData(phys, buf, BTData, &in, size/BlockSize, false) }
			//iron:policy ext3 §5.1:RZero truncate fails silently: the tail-zero priming read's error vanishes with the rest of the truncate path
			_, _ = fs.cache.Modify(phys, load)
			if buf, err := fs.txData(phys, BTData); err == nil {
				old := fs.parityOld(&in, buf)
				clear(buf[size%BlockSize : BlockSize])
				//iron:policy ext3 §5.1:RZero parity refresh during truncate is swallowed like every other truncate failure
				_ = fs.updateParityDelta(&in, old, buf)
			}
		}
	}
	return in, nil
}
