package namei

import "ironfs/internal/vfs"

// The operations that move file data. Each walks to the file, refuses a
// directory and an offset or size out of range, hands the Store exactly
// the bytes inside the file, and records what it did in the node: atime
// for a read, size and mtime for a write or truncate. How the bytes move —
// block mapping, holes, the cache, read-ahead, allocation, ReiserFS tails
// and what a failed read of any of them does — is the Store's.

// SetNoAtime suppresses the atime update on Read (the noatime mount
// option), so Read stores nothing and takes the read-side lock. Set before
// Mount.
func (ns *Namespace[R, N]) SetNoAtime(on bool) { ns.noatime = on }

// Read implements vfs.FileSystem. Every successful read stamps atime, one
// at or past EOF too, journaled like any metadata change while the volume
// is healthy; a failed stamp is not the reader's error.
func (ns *Namespace[R, N]) Read(path string, off int64, p []byte) (int, error) {
	if ns.noatime {
		ns.v.RMu.Lock()
		defer ns.v.RMu.Unlock()
	} else {
		ns.v.Mu.Lock()
		defer ns.v.Mu.Unlock()
	}
	if err := ns.GuardReadLocked(); err != nil {
		return 0, err
	}
	ref, n, err := ns.ResolveLocked(path, true)
	if err != nil {
		return 0, err
	}
	if n.FileType() == vfs.TypeDirectory {
		return 0, vfs.ErrIsDir
	}
	if off < 0 {
		return 0, vfs.ErrInval
	}
	read := 0
	if size := int64(n.Attrs().Size); off < size {
		if int64(len(p)) > size-off {
			p = p[:size-off]
		}
		if read, err = ns.s.ReadAtLocked(ref, n, off, p); err != nil {
			return read, err
		}
	}
	if !ns.noatime && ns.v.Health.State() == vfs.Healthy {
		a := n.Attrs()
		a.Atime = ns.Now()
		if err := ns.s.StoreLocked(ref, n.WithAttrs(a)); err == nil {
			if cerr := ns.s.MaybeCommitLocked(); cerr != nil {
				return read, cerr
			}
		}
	}
	return read, nil
}

// Write implements vfs.FileSystem. It returns the bytes the Store moved,
// also when storing the node or the commit then fails.
func (ns *Namespace[R, N]) Write(path string, off int64, p []byte) (int, error) {
	ns.v.Mu.Lock()
	defer ns.v.Mu.Unlock()
	if err := ns.GuardWriteLocked(); err != nil {
		return 0, err
	}
	ref, n, err := ns.ResolveLocked(path, true)
	if err != nil {
		return 0, err
	}
	if n.FileType() == vfs.TypeDirectory {
		return 0, vfs.ErrIsDir
	}
	end := off + int64(len(p))
	if off < 0 || end > ns.v.MaxFileSize {
		return 0, vfs.ErrInval
	}
	n, written, err := ns.s.WriteAtLocked(ref, n, off, p)
	if err != nil {
		return written, err
	}
	a := n.Attrs()
	if end > int64(a.Size) {
		a.Size = uint64(end)
	}
	a.Mtime = ns.Now()
	if err := ns.s.StoreLocked(ref, n.WithAttrs(a)); err != nil {
		return written, err
	}
	if err := ns.s.MaybeCommitLocked(); err != nil {
		return written, err
	}
	return written, nil
}

// Truncate implements vfs.FileSystem. Volume.Swallow sees a failed store
// or commit.
func (ns *Namespace[R, N]) Truncate(path string, size int64) error {
	ns.v.Mu.Lock()
	defer ns.v.Mu.Unlock()
	if err := ns.GuardWriteLocked(); err != nil {
		return err
	}
	ref, n, err := ns.ResolveLocked(path, true)
	if err != nil {
		return err
	}
	if n.FileType() == vfs.TypeDirectory {
		return vfs.ErrIsDir
	}
	if size < 0 || size > ns.v.MaxFileSize {
		return vfs.ErrInval
	}
	if size < int64(n.Attrs().Size) {
		if n, err = ns.s.CutLocked(ref, n, size); err != nil {
			return err
		}
	}
	a := n.Attrs()
	a.Size = uint64(size)
	a.Mtime = ns.Now()
	if err := ns.s.StoreLocked(ref, n.WithAttrs(a)); err != nil {
		return ns.swallow(err)
	}
	if err := ns.s.MaybeCommitLocked(); err != nil {
		return ns.swallow(err)
	}
	return nil
}
