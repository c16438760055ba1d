// Package namei is the generic half of a file system: the paper's Figure 1
// puts path traversal and the attribute calls in a layer above the specific
// file systems, and the failure policy (§5) below it. ext3/ixt3, ReiserFS,
// JFS and NTFS differ in how a directory block is searched, how an inode is
// stored and what happens when either read fails; they do not differ in how
// a path is walked, when a symbolic link is followed, what stat returns or
// how chmod is sequenced. That is stated once, here.
//
// A file system embeds a Namespace — which makes it most of a
// vfs.FileSystem — and implements Store. The operations that carry data
// layout and measured policy (Symlink, ReadDir, Read, Write, Truncate,
// Unlink, Rmdir, Link, Rename) stay with the file system and call
// ResolveLocked, ParentLocked and MknodLocked for the walk.
package namei

import (
	"errors"
	"sync"

	"ironfs/internal/journal"
	"ironfs/internal/vfs"
)

// maxSymlinkDepth bounds symlink chains during path resolution.
const maxSymlinkDepth = 8

// Node is a file system's in-memory inode as the namespace layer sees it:
// the shared attributes plus the two facts about it that each on-disk
// format encodes its own way.
type Node interface {
	Attrs() *Attr
	FileType() vfs.FileType
	// Allocated reports whether the slot the node was loaded from holds a
	// live object.
	Allocated() bool
}

// Store is one file system as the namespace layer sees it — the
// journal.Committer and fsck.Target cut: the layer owns the walk and the
// sequencing, the file system keeps its layout and its §5 reactions. R
// names an object (an inode or MFT record number, a ReiserFS key prefix), N
// is its loaded node. Every Locked method runs with the volume lock held.
type Store[R any, N Node] interface {
	journal.Committer
	// MountedLocked reports whether the volume is mounted.
	MountedLocked() bool
	// RootLocked loads the root directory.
	RootLocked() (R, N, error)
	// LoadLocked loads the node ref names.
	LoadLocked(ref R) (N, error)
	// LookupLocked searches directory dir for name; vfs.ErrNotExist
	// means the directory was read and does not hold it.
	LookupLocked(dir R, dn N, name string) (R, error)
	// ReadLinkLocked reads the target of symbolic link ref.
	ReadLinkLocked(ref R, n N) (string, error)
	// StoreLocked stages n as the new image of ref in the running
	// transaction.
	StoreLocked(ref R, n N) error
	// CreateLocked allocates an object of the given kind with attributes
	// a and enters it in directory dir under name, which the caller has
	// checked is free.
	CreateLocked(dir R, dn N, name string, kind vfs.FileType, a Attr) (R, N, error)
	// KeyOf widens ref to the key journal.Committer.TouchedLocked takes.
	// Its low 32 bits are the object number stat reports as Ino.
	KeyOf(ref R) uint64
	// MaybeCommitLocked ends a mutating operation: it commits the running
	// transaction once it is large enough.
	MaybeCommitLocked() error
	// SyncLocked commits the running transaction and brings the volume to
	// its sync(2) state.
	SyncLocked() error
}

// Volume is what a file system hands its namespace once, at construction.
type Volume struct {
	// Mu is the volume lock every mutating entry point takes.
	//
	//iron:lockorder 10 the owning file system's big lock under its namespace-side name
	Mu sync.Locker
	// RMu is what the read-only entry points take: Mu again, or its
	// shared side where the file system's read paths run in parallel.
	//
	//iron:lockorder 10 the read side of the same lock
	RMu sync.Locker
	// Health gates every operation: read-only refuses updates, panicked
	// refuses everything.
	Health *vfs.Health
	// Journal is the volume's commit engine, for Fsync.
	Journal *journal.Engine
}

// Namespace is the one path walk and the lookup and attribute operations
// built on it.
type Namespace[R any, N Node] struct {
	v Volume
	s Store[R, N]
	// clock is the logical timestamp counter.
	clock int64
}

// New returns the namespace of store s on volume v.
func New[R any, N Node](s Store[R, N], v Volume) Namespace[R, N] {
	return Namespace[R, N]{v: v, s: s}
}

// Health returns the current RStop state of the file system.
func (ns *Namespace[R, N]) Health() vfs.HealthState { return ns.v.Health.State() }

// HealthTransitions returns the degrade transition log: every downward
// health move with the subsystem and cause that forced it.
func (ns *Namespace[R, N]) HealthTransitions() []vfs.Transition { return ns.v.Health.Transitions() }

// Now advances and returns the logical timestamp counter.
func (ns *Namespace[R, N]) Now() int64 {
	ns.clock++
	return ns.clock
}

// GuardWriteLocked is the common prologue for mutating operations.
func (ns *Namespace[R, N]) GuardWriteLocked() error {
	if !ns.s.MountedLocked() {
		return vfs.ErrNotMounted
	}
	return ns.v.Health.CheckWrite()
}

// GuardReadLocked is the common prologue for read-only operations.
func (ns *Namespace[R, N]) GuardReadLocked() error {
	if !ns.s.MountedLocked() {
		return vfs.ErrNotMounted
	}
	return ns.v.Health.CheckRead()
}

// fail is the error return of a walk.
func (ns *Namespace[R, N]) fail(err error) (R, N, error) {
	var ref R
	var n N
	return ref, n, err
}

// ResolveLocked walks an absolute path to an object. follow controls
// whether a symlink in the final component is chased.
func (ns *Namespace[R, N]) ResolveLocked(path string, follow bool) (R, N, error) {
	parts, err := vfs.SplitPath(path)
	if err != nil {
		return ns.fail(err)
	}
	return ns.walk(parts, follow, 0)
}

func (ns *Namespace[R, N]) walk(parts []string, follow bool, depth int) (R, N, error) {
	if depth > maxSymlinkDepth {
		return ns.fail(vfs.ErrInval)
	}
	ref, n, err := ns.s.RootLocked()
	if err != nil {
		return ns.fail(err)
	}
	for i, name := range parts {
		if n.FileType() != vfs.TypeDirectory {
			return ns.fail(vfs.ErrNotDir)
		}
		child, err := ns.s.LookupLocked(ref, n, name)
		if err != nil {
			return ns.fail(err)
		}
		cn, err := ns.s.LoadLocked(child)
		if err != nil {
			return ns.fail(err)
		}
		if !cn.Allocated() {
			return ns.fail(vfs.ErrNotExist)
		}
		last := i == len(parts)-1
		if cn.FileType() == vfs.TypeSymlink && (!last || follow) {
			target, err := ns.s.ReadLinkLocked(child, cn)
			if err != nil {
				return ns.fail(err)
			}
			tparts, err := vfs.SplitPath(target)
			if err != nil {
				return ns.fail(err)
			}
			rest := append(append([]string{}, tparts...), parts[i+1:]...)
			return ns.walk(rest, follow, depth+1)
		}
		ref, n = child, cn
	}
	return ref, n, nil
}

// ParentLocked resolves the directory containing path's final component,
// which it also returns.
func (ns *Namespace[R, N]) ParentLocked(path string) (R, N, string, error) {
	fail := func(err error) (R, N, string, error) {
		ref, n, err := ns.fail(err)
		return ref, n, "", err
	}
	dirParts, name, err := vfs.SplitDir(path)
	if err != nil {
		return fail(err)
	}
	ref, n, err := ns.walk(dirParts, true, 0)
	if err != nil {
		return fail(err)
	}
	if n.FileType() != vfs.TypeDirectory {
		return fail(vfs.ErrNotDir)
	}
	return ref, n, name, nil
}

// MknodLocked is the shared creation path for files, directories and
// symlinks: it refuses an existing name and hands the rest to the store.
func (ns *Namespace[R, N]) MknodLocked(path string, mode uint16, kind vfs.FileType) (R, N, error) {
	dir, dn, name, err := ns.ParentLocked(path)
	if err != nil {
		return ns.fail(err)
	}
	if _, err := ns.s.LookupLocked(dir, dn, name); err == nil {
		return ns.fail(vfs.ErrExist)
	} else if !errors.Is(err, vfs.ErrNotExist) {
		return ns.fail(err)
	}
	now := ns.Now()
	return ns.s.CreateLocked(dir, dn, name, kind,
		Attr{Mode: mode & permMask, Links: 1, Atime: now, Mtime: now, Ctime: now})
}

func (ns *Namespace[R, N]) mknod(path string, mode uint16, kind vfs.FileType) error {
	ns.v.Mu.Lock()
	defer ns.v.Mu.Unlock()
	if err := ns.GuardWriteLocked(); err != nil {
		return err
	}
	if _, _, err := ns.MknodLocked(path, mode, kind); err != nil {
		return err
	}
	return ns.s.MaybeCommitLocked()
}

// Create implements vfs.FileSystem.
func (ns *Namespace[R, N]) Create(path string, mode uint16) error {
	return ns.mknod(path, mode, vfs.TypeRegular)
}

// Mkdir implements vfs.FileSystem.
func (ns *Namespace[R, N]) Mkdir(path string, mode uint16) error {
	return ns.mknod(path, mode, vfs.TypeDirectory)
}

// Open implements vfs.FileSystem: a pure existence/type walk.
func (ns *Namespace[R, N]) Open(path string) error {
	ns.v.RMu.Lock()
	defer ns.v.RMu.Unlock()
	if err := ns.GuardReadLocked(); err != nil {
		return err
	}
	_, _, err := ns.ResolveLocked(path, true)
	return err
}

// Access implements vfs.FileSystem.
func (ns *Namespace[R, N]) Access(path string) error { return ns.Open(path) }

func (ns *Namespace[R, N]) stat(path string, follow bool) (vfs.FileInfo, error) {
	ns.v.RMu.Lock()
	defer ns.v.RMu.Unlock()
	if err := ns.GuardReadLocked(); err != nil {
		return vfs.FileInfo{}, err
	}
	ref, n, err := ns.ResolveLocked(path, follow)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	return n.Attrs().info(uint32(ns.s.KeyOf(ref)), n.FileType()), nil
}

// Stat implements vfs.FileSystem.
func (ns *Namespace[R, N]) Stat(path string) (vfs.FileInfo, error) { return ns.stat(path, true) }

// Lstat implements vfs.FileSystem.
func (ns *Namespace[R, N]) Lstat(path string) (vfs.FileInfo, error) { return ns.stat(path, false) }

// Readlink implements vfs.FileSystem.
func (ns *Namespace[R, N]) Readlink(path string) (string, error) {
	ns.v.RMu.Lock()
	defer ns.v.RMu.Unlock()
	if err := ns.GuardReadLocked(); err != nil {
		return "", err
	}
	ref, n, err := ns.ResolveLocked(path, false)
	if err != nil {
		return "", err
	}
	if n.FileType() != vfs.TypeSymlink {
		return "", vfs.ErrInval
	}
	return ns.s.ReadLinkLocked(ref, n)
}

// Fsync implements vfs.FileSystem: commits the running transaction if it
// holds changes to the named file, else waits for the commit that carried
// them (journal.Engine.Fsync is the group-commit protocol).
func (ns *Namespace[R, N]) Fsync(path string) error {
	ns.v.Mu.Lock()
	defer ns.v.Mu.Unlock()
	if err := ns.GuardWriteLocked(); err != nil {
		return err
	}
	defer ns.v.Journal.EndFsync(ns.v.Journal.BeginFsync())
	ref, _, err := ns.ResolveLocked(path, true)
	if err != nil {
		return err
	}
	return ns.v.Journal.Fsync(ns.s, ns.s.KeyOf(ref))
}

// Sync implements vfs.FileSystem.
func (ns *Namespace[R, N]) Sync() error {
	ns.v.Mu.Lock()
	defer ns.v.Mu.Unlock()
	if err := ns.GuardWriteLocked(); err != nil {
		return err
	}
	return ns.s.SyncLocked()
}

// Chmod implements vfs.FileSystem.
func (ns *Namespace[R, N]) Chmod(path string, mode uint16) error {
	return ns.setattr(path, func(a *Attr) { a.Mode = a.Mode&^permMask | mode&permMask })
}

// Chown implements vfs.FileSystem.
func (ns *Namespace[R, N]) Chown(path string, uid, gid uint32) error {
	return ns.setattr(path, func(a *Attr) { a.UID, a.GID = uid, gid })
}

// Utimes implements vfs.FileSystem.
func (ns *Namespace[R, N]) Utimes(path string, atime, mtime int64) error {
	return ns.setattr(path, func(a *Attr) { a.Atime, a.Mtime = atime, mtime })
}

func (ns *Namespace[R, N]) setattr(path string, mutate func(*Attr)) error {
	ns.v.Mu.Lock()
	defer ns.v.Mu.Unlock()
	if err := ns.GuardWriteLocked(); err != nil {
		return err
	}
	ref, n, err := ns.ResolveLocked(path, true)
	if err != nil {
		return err
	}
	a := n.Attrs()
	mutate(a)
	a.Ctime = ns.Now()
	if err := ns.s.StoreLocked(ref, n); err != nil {
		return err
	}
	return ns.s.MaybeCommitLocked()
}
