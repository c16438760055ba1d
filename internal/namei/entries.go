package namei

import (
	"errors"
	"math"

	"ironfs/internal/vfs"
)

// The operations that list or change directory entries. Each visits the
// parent, the entry and the object in one order on every file system; what
// a directory block looks like, how an object is freed and what a failed
// read of either does are the Store's.

// Symlink implements vfs.FileSystem.
func (ns *Namespace[R, N]) Symlink(target, linkpath string) error {
	ns.v.Mu.Lock()
	defer ns.v.Mu.Unlock()
	if err := ns.GuardWriteLocked(); err != nil {
		return err
	}
	if target == "" || len(target) > ns.v.SymlinkMax {
		return vfs.ErrInval
	}
	ref, n, err := ns.MknodLocked(linkpath, 0o777, vfs.TypeSymlink)
	if err != nil {
		return err
	}
	if n, err = ns.s.WriteLinkLocked(ref, n, target); err != nil {
		return err
	}
	a := n.Attrs()
	a.Size = uint64(len(target))
	if err := ns.s.StoreLocked(ref, n.WithAttrs(a)); err != nil {
		return err
	}
	return ns.s.MaybeCommitLocked()
}

// ReadDir implements vfs.FileSystem.
func (ns *Namespace[R, N]) ReadDir(path string) ([]vfs.DirEntry, error) {
	ns.v.RMu.Lock()
	defer ns.v.RMu.Unlock()
	if err := ns.GuardReadLocked(); err != nil {
		return nil, err
	}
	ref, n, err := ns.ResolveLocked(path, true)
	if err != nil {
		return nil, err
	}
	if n.FileType() != vfs.TypeDirectory {
		return nil, vfs.ErrNotDir
	}
	return ns.s.DirListLocked(ref, n)
}

// Unlink implements vfs.FileSystem: the entry goes, then the parent records
// the change, then the object loses a link and, with its last, is freed.
// Volume.ZeroLinks answers for a count that is already zero.
func (ns *Namespace[R, N]) Unlink(path string) error {
	ns.v.Mu.Lock()
	defer ns.v.Mu.Unlock()
	if err := ns.GuardWriteLocked(); err != nil {
		return err
	}
	dir, dn, name, err := ns.ParentLocked(path)
	if err != nil {
		return err
	}
	ref, _, err := ns.s.LookupLocked(dir, dn, name)
	if err != nil {
		return err
	}
	n, err := ns.s.LoadLocked(ref)
	if err != nil {
		return err
	}
	if n.FileType() == vfs.TypeDirectory {
		return vfs.ErrIsDir
	}
	a := n.Attrs()
	if a.Links == 0 && ns.v.ZeroLinks != nil {
		return ns.v.ZeroLinks()
	}
	if err := ns.s.DirRemoveLocked(dir, dn, name); err != nil {
		return err
	}
	if _, err := ns.s.DirChangedLocked(dir, dn); err != nil {
		return err
	}
	a.Links--
	if a.Links == 0 {
		if err := ns.s.FreeLocked(ref, n.WithAttrs(a)); err != nil {
			return err
		}
	} else {
		a.Ctime = ns.Now()
		if err := ns.s.StoreLocked(ref, n.WithAttrs(a)); err != nil {
			return err
		}
	}
	return ns.s.MaybeCommitLocked()
}

// Rmdir implements vfs.FileSystem. Volume.Swallow sees a failed load,
// emptiness check or entry removal.
func (ns *Namespace[R, N]) Rmdir(path string) error {
	ns.v.Mu.Lock()
	defer ns.v.Mu.Unlock()
	if err := ns.GuardWriteLocked(); err != nil {
		return err
	}
	dir, dn, name, err := ns.ParentLocked(path)
	if err != nil {
		return err
	}
	ref, _, err := ns.s.LookupLocked(dir, dn, name)
	if err != nil {
		return err
	}
	n, err := ns.s.LoadLocked(ref)
	if err != nil {
		return ns.swallow(err)
	}
	if n.FileType() != vfs.TypeDirectory {
		return vfs.ErrNotDir
	}
	empty, err := ns.s.DirEmptyLocked(ref, n)
	if err != nil {
		return ns.swallow(err)
	}
	if !empty {
		return vfs.ErrNotEmpty
	}
	if err := ns.s.DirRemoveLocked(dir, dn, name); err != nil {
		return ns.swallow(err)
	}
	if _, err := ns.s.DirChangedLocked(dir, dn); err != nil {
		return err
	}
	if err := ns.s.FreeLocked(ref, n); err != nil {
		return err
	}
	return ns.s.MaybeCommitLocked()
}

// Link implements vfs.FileSystem. A file at the link-count ceiling takes
// no more names.
func (ns *Namespace[R, N]) Link(oldpath, newpath string) error {
	ns.v.Mu.Lock()
	defer ns.v.Mu.Unlock()
	if err := ns.GuardWriteLocked(); err != nil {
		return err
	}
	ref, n, err := ns.ResolveLocked(oldpath, false)
	if err != nil {
		return err
	}
	if n.FileType() == vfs.TypeDirectory {
		return vfs.ErrIsDir
	}
	a := n.Attrs()
	if a.Links == math.MaxUint16 {
		return vfs.ErrTooManyLink
	}
	dir, dn, name, err := ns.ParentLocked(newpath)
	if err != nil {
		return err
	}
	if _, _, err := ns.s.LookupLocked(dir, dn, name); err == nil {
		return vfs.ErrExist
	} else if !errors.Is(err, vfs.ErrNotExist) {
		return err
	}
	if dn, err = ns.s.DirAddLocked(dir, dn, name, ref, byte(n.FileType())); err != nil {
		return err
	}
	if _, err := ns.s.DirChangedLocked(dir, dn); err != nil {
		return err
	}
	a.Links++
	a.Ctime = ns.Now()
	if err := ns.s.StoreLocked(ref, n.WithAttrs(a)); err != nil {
		return err
	}
	return ns.s.MaybeCommitLocked()
}

// move is a rename resolved: the entry to move and the name it moves to.
type move[R any, N any] struct {
	OldDir  R
	OldNode N
	OldName string
	// Child and Type are the object the old entry names and the type byte
	// the entry holds.
	Child   R
	Type    byte
	NewDir  R
	NewNode N
	NewName string
	// SameDir reports that both names are in one directory: a change to
	// OldNode is a change to NewNode.
	SameDir bool
}

// moveLocked resolves a rename's two paths: the old entry, which must
// exist, and the new name's directory. noop reports that both paths name
// the same entry, which POSIX makes a successful rename that changes
// nothing. An object moved to a name beneath itself — the new directory is
// the object or lies under it, also through a symbolic link — is
// vfs.ErrInval: the move would cut its subtree off the root.
func (ns *Namespace[R, N]) moveLocked(oldpath, newpath string) (m move[R, N], noop bool, err error) {
	if m.OldDir, m.OldNode, m.OldName, err = ns.ParentLocked(oldpath); err != nil {
		return m, false, err
	}
	if m.Child, m.Type, err = ns.s.LookupLocked(m.OldDir, m.OldNode, m.OldName); err != nil {
		return m, false, err
	}
	under := ancestor{key: ns.s.KeyOf(m.Child)}
	if m.NewDir, m.NewNode, m.NewName, err = ns.parentLocked(newpath, &under); err != nil {
		return m, false, err
	}
	m.SameDir = ns.s.KeyOf(m.NewDir) == ns.s.KeyOf(m.OldDir)
	if m.SameDir && m.NewName == m.OldName {
		return m, true, nil
	}
	if under.found {
		return m, false, vfs.ErrInval
	}
	return m, false, nil
}

// Rename implements vfs.FileSystem. An existing target file loses the
// name; an existing target directory must be empty and is freed. The
// target must be of the moved object's kind, as rename(2) requires: a
// file onto a directory is vfs.ErrIsDir, a directory onto a file
// vfs.ErrNotDir.
func (ns *Namespace[R, N]) Rename(oldpath, newpath string) error {
	ns.v.Mu.Lock()
	defer ns.v.Mu.Unlock()
	if err := ns.GuardWriteLocked(); err != nil {
		return err
	}
	m, noop, err := ns.moveLocked(oldpath, newpath)
	if err != nil || noop {
		return err
	}
	if t, _, err := ns.s.LookupLocked(m.NewDir, m.NewNode, m.NewName); err == nil {
		tn, err := ns.s.LoadLocked(t)
		if err != nil {
			return err
		}
		isDir := tn.FileType() == vfs.TypeDirectory
		if srcDir := vfs.FileType(m.Type) == vfs.TypeDirectory; isDir != srcDir {
			if isDir {
				return vfs.ErrIsDir
			}
			return vfs.ErrNotDir
		}
		if isDir {
			empty, err := ns.s.DirEmptyLocked(t, tn)
			if err != nil {
				return err
			}
			if !empty {
				return vfs.ErrNotEmpty
			}
		}
		if err := ns.s.DirRemoveLocked(m.NewDir, m.NewNode, m.NewName); err != nil {
			return err
		}
		a := tn.Attrs()
		a.Links--
		if a.Links == 0 || isDir {
			err = ns.s.FreeLocked(t, tn.WithAttrs(a))
		} else {
			err = ns.s.StoreLocked(t, tn.WithAttrs(a))
		}
		if err != nil {
			return err
		}
	} else if !errors.Is(err, vfs.ErrNotExist) {
		return err
	}
	if err := ns.s.DirRemoveLocked(m.OldDir, m.OldNode, m.OldName); err != nil {
		return err
	}
	on, err := ns.s.DirChangedLocked(m.OldDir, m.OldNode)
	if err != nil {
		return err
	}
	nn := m.NewNode
	if m.SameDir {
		nn = on
	}
	if nn, err = ns.s.DirAddLocked(m.NewDir, nn, m.NewName, m.Child, m.Type); err != nil {
		return err
	}
	if _, err := ns.s.DirChangedLocked(m.NewDir, nn); err != nil {
		return err
	}
	return ns.s.MaybeCommitLocked()
}
