// Package namei is the generic half of a file system: the paper's Figure 1
// puts path traversal and the namespace calls in a layer above the specific
// file systems, and the failure policy (§5) below it. ext3/ixt3, ReiserFS,
// JFS and NTFS differ in how a directory block is searched, how an inode is
// stored and what happens when either read fails; they do not differ in how
// a path is walked, when a symbolic link is followed, what stat returns, how
// chmod is sequenced or in which order unlink, link and rename visit the
// parent, the entry and the object. That is stated once, here.
//
// The same holds for file data: when a read is clamped to the size, when
// it stamps atime, and how a write or truncate records size and mtime are
// stated here too; how the bytes move is the file system's.
//
// A file system embeds a Namespace — which makes it a vfs.FileSystem apart
// from mount, unmount and statfs — and implements Store. The few reactions
// that fire between an operation's steps rather than inside one Store call
// (stock ext3's silent truncate and rmdir failures and its link-count
// check, §5.1) are two Volume hooks, Swallow and ZeroLinks.
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
// format encodes its own way. N is the node type itself, a struct passed
// by value: a pointer handed through Store or through a method of a type
// parameter escapes, and would cost every object a walk visits one heap
// allocation.
type Node[N any] interface {
	Attrs() Attr
	// WithAttrs returns the node with its attributes replaced by a.
	WithAttrs(a Attr) N
	FileType() vfs.FileType
	// Allocated reports whether the slot the node was loaded from holds a
	// live object.
	Allocated() bool
}

// Store is one file system as the namespace layer sees it — the
// journal.Committer and fsck.Target cut: the layer owns the walk and the
// sequencing, the file system keeps its layout and its §5 reactions. R
// names an object (an inode or MFT record number, a ReiserFS key prefix), N
// is its loaded node, by value. Every Locked method runs with the volume
// lock held.
type Store[R any, N Node[N]] interface {
	journal.Committer
	// MountedLocked reports whether the volume is mounted.
	MountedLocked() bool
	// RootLocked loads the root directory.
	RootLocked() (R, N, error)
	// LoadLocked loads the node ref names.
	LoadLocked(ref R) (N, error)
	// LookupLocked searches directory dir for name and returns the object
	// and the type byte its entry holds; vfs.ErrNotExist means the
	// directory was read and does not hold it.
	LookupLocked(dir R, dn N, name string) (R, byte, error)
	// ReadLinkLocked reads the target of symbolic link ref.
	ReadLinkLocked(ref R, n N) (string, error)
	// StoreLocked stages n as the new image of ref in the running
	// transaction.
	StoreLocked(ref R, n N) error
	// CreateLocked allocates an object of the given kind with attributes
	// a and enters it in directory dir under name, which the caller has
	// checked is free.
	CreateLocked(dir R, dn N, name string, kind vfs.FileType, a Attr) (R, N, error)
	// DirListLocked lists the entries of directory ref.
	DirListLocked(ref R, n N) ([]vfs.DirEntry, error)
	// DirAddLocked enters child, whose entry type byte is ftype, in
	// directory dir under name, which the caller has checked is free. It
	// returns the directory's node as the entry left it: a format may grow
	// the directory and store it.
	DirAddLocked(dir R, dn N, name string, child R, ftype byte) (N, error)
	// DirRemoveLocked deletes name's entry from directory dir.
	DirRemoveLocked(dir R, dn N, name string) error
	// DirEmptyLocked reports whether directory ref holds no entries.
	DirEmptyLocked(ref R, n N) (bool, error)
	// DirChangedLocked records a change to directory dir's entries (its
	// mtime, where the format keeps one) and returns the node as recorded.
	DirChangedLocked(dir R, dn N) (N, error)
	// FreeLocked releases object ref, whose last name is gone: its blocks,
	// its slot and its number.
	FreeLocked(ref R, n N) error
	// ReadAtLocked fills p, which lies inside the file, with the bytes of
	// file ref at off: holes read as zeros.
	ReadAtLocked(ref R, n N, off int64, p []byte) (int, error)
	// WriteAtLocked stores p at off in file ref, allocating what it
	// maps, and returns the node as that left it and the bytes moved; the
	// caller sets size and mtime.
	WriteAtLocked(ref R, n N, off int64, p []byte) (N, int, error)
	// CutLocked frees what file ref holds past size, which is below its
	// size, and zeroes the rest of the new last block; the caller sets
	// size and mtime.
	CutLocked(ref R, n N, size int64) (N, error)
	// WriteLinkLocked stores target, which fits Volume.SymlinkMax, as the
	// body of the new symbolic link ref and returns its node as that left
	// it; the caller sets the size.
	WriteLinkLocked(ref R, n N, target string) (N, error)
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
	// SymlinkMax is the longest symlink target the format stores.
	SymlinkMax int
	// MaxFileSize is the largest file the format's block map reaches, in
	// bytes; math.MaxInt64 where it has no limit.
	MaxFileSize int64
	// Swallow, where set, is the reaction to an error at the steps a file
	// system may fail silently at: Truncate's store and commit, and Rmdir's
	// load, emptiness check and entry removal. What it returns ends the
	// call, nil as a success. Unset, every error propagates.
	Swallow func(error) error
	// ZeroLinks, where set, is what Unlink returns for an object whose
	// link count is already zero, before the entry goes. Unset, the count
	// underflows.
	ZeroLinks func() error
}

// Namespace is the one path walk and the namespace operations built on it.
type Namespace[R any, N Node[N]] struct {
	v Volume
	s Store[R, N]
	// clock is the logical timestamp counter.
	clock int64
	// noatime suppresses Read's atime update.
	noatime bool
}

// New returns the namespace of store s on volume v.
func New[R any, N Node[N]](s Store[R, N], v Volume) Namespace[R, N] {
	return Namespace[R, N]{v: v, s: s}
}

// Health returns the current RStop state of the file system.
func (ns *Namespace[R, N]) Health() vfs.HealthState { return ns.v.Health.State() }

// HealthTransitions returns the degrade transition log: every downward
// health move with the subsystem and cause that forced it.
func (ns *Namespace[R, N]) HealthTransitions() []vfs.Transition { return ns.v.Health.Transitions() }

// swallow is Volume.Swallow's reaction to err, or err where it is unset.
func (ns *Namespace[R, N]) swallow(err error) error {
	if ns.v.Swallow == nil {
		return err
	}
	return ns.v.Swallow(err)
}

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
	var buf [vfs.SplitDepth]string
	parts, err := vfs.SplitPath(buf[:0], path)
	if err != nil {
		return ns.fail(err)
	}
	return ns.walk(parts, follow, 0, nil)
}

// ancestor asks a walk whether the object keyed key is on the path it
// resolves: the root, each directory below it, or the object it ends at. A
// symbolic link restarts the question at the root, where its target
// starts.
type ancestor struct {
	key   uint64
	found bool
}

func (ns *Namespace[R, N]) walk(parts []string, follow bool, depth int, on *ancestor) (R, N, error) {
	if depth > maxSymlinkDepth {
		return ns.fail(vfs.ErrInval)
	}
	ref, n, err := ns.s.RootLocked()
	if err != nil {
		return ns.fail(err)
	}
	if on != nil {
		on.found = ns.s.KeyOf(ref) == on.key
	}
	for i, name := range parts {
		if n.FileType() != vfs.TypeDirectory {
			return ns.fail(vfs.ErrNotDir)
		}
		child, _, err := ns.s.LookupLocked(ref, n, name)
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
			var buf [vfs.SplitDepth]string
			rest, err := vfs.SplitPath(buf[:0], target)
			if err != nil {
				return ns.fail(err)
			}
			return ns.walk(append(rest, parts[i+1:]...), follow, depth+1, on)
		}
		ref, n = child, cn
		if on != nil && ns.s.KeyOf(ref) == on.key {
			on.found = true
		}
	}
	return ref, n, nil
}

// ParentLocked resolves the directory containing path's final component,
// which it also returns.
func (ns *Namespace[R, N]) ParentLocked(path string) (R, N, string, error) {
	return ns.parentLocked(path, nil)
}

func (ns *Namespace[R, N]) parentLocked(path string, on *ancestor) (R, N, string, error) {
	fail := func(err error) (R, N, string, error) {
		ref, n, err := ns.fail(err)
		return ref, n, "", err
	}
	var buf [vfs.SplitDepth]string
	dirParts, name, err := vfs.SplitDir(buf[:0], path)
	if err != nil {
		return fail(err)
	}
	ref, n, err := ns.walk(dirParts, true, 0, on)
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
	if _, _, err := ns.s.LookupLocked(dir, dn, name); err == nil {
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
	mutate(&a)
	a.Ctime = ns.Now()
	if err := ns.s.StoreLocked(ref, n.WithAttrs(a)); err != nil {
		return err
	}
	return ns.s.MaybeCommitLocked()
}
