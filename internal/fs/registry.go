// Package fs is the unified front door to every file system in this
// repository. Harnesses and CLIs address a file system by name — "ext3",
// "reiserfs", "jfs", "ntfs", "ixt3" — and get back the same four verbs for
// each: Mkfs, New/Mount, Check, NewResolver. Before this registry existed,
// every tool carried its own per-FS switch statement and each FS exposed a
// differently-shaped constructor and oracle (ext3's took ext3.Options,
// ixt3's took ixt3.Features, the other three took nothing); the registry
// absorbs those shapes behind one Options struct with per-FS validation, so a flag
// parsed by a CLI maps 1:1 onto a field here and an unsupported
// combination fails loudly at mount time instead of being silently
// ignored.
package fs

import (
	"fmt"
	"sort"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/fs/ext3"
	"ironfs/internal/fs/jfs"
	"ironfs/internal/fs/ntfs"
	"ironfs/internal/fs/reiser"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// Options is the one option set every registered file system is
// constructed from. Each file system validates the subset it supports and
// rejects the rest by name, so a harness can expose these as flags without
// knowing which target they will reach.
type Options struct {
	// Mc/Dc/Mr/Dp/Tc are the IRON features of the paper's Table 6:
	// metadata checksums, data checksums, metadata replication, data
	// parity, transactional checksums. Valid only for ixt3.
	Mc, Dc, Mr, Dp, Tc bool
	// FixBugs repairs stock ext3's failure-policy bugs without enabling
	// any IRON feature. Valid for ext3 (ixt3 implies it).
	FixBugs bool
	// NoBarrier drops ext3's payload/commit ordering barrier, modeling a
	// drive whose cache ignores flushes (§6.2). Valid for ext3.
	NoBarrier bool
	// NoAtime suppresses the atime update on Read, which then takes the
	// read-side lock (shared on ext3 and ixt3). Valid for every file
	// system.
	NoAtime bool
	// JournalBlocks/BlocksPerGroup/ITableBlocks override the ext3-family
	// mkfs geometry (0 = default). Valid for ext3 and ixt3.
	JournalBlocks, BlocksPerGroup, ITableBlocks int64
}

// ext3Options translates to the implementation's option struct.
func (o Options) ext3Options() ext3.Options {
	return ext3.Options{
		MetaChecksum: o.Mc, DataChecksum: o.Dc, MetaReplica: o.Mr,
		DataParity: o.Dp, TxnChecksum: o.Tc,
		FixBugs: o.FixBugs, NoBarrier: o.NoBarrier, NoAtime: o.NoAtime,
		JournalBlocks: o.JournalBlocks, BlocksPerGroup: o.BlocksPerGroup,
		ITableBlocks: o.ITableBlocks,
	}
}

// Checker is the unified consistency oracle: Check mounts (replaying any
// journal) and walks the image, returning nil for a consistent image,
// vfs.ErrInconsistent (possibly wrapped) for structural damage, or another
// error when the image cannot be examined at all. Every file system's
// oracle is the same sequence, fsck.Driver's Oracle, over a fresh instance.
type Checker interface {
	Check(dev disk.Device) error
}

// checker is the Checker of one (file system, options) pair.
type checker struct {
	e    *entry
	opts Options
}

func (c checker) Check(dev disk.Device) error {
	return c.e.newFS(dev, c.opts, iron.NewRecorder()).(interface{ Oracle() error }).Oracle()
}

// entry is one registered file system.
type entry struct {
	name     string
	blocks   func() []iron.BlockType
	validate func(Options) error
	mkfs     func(disk.Device, Options) error
	newFS    func(disk.Device, Options, *iron.Recorder) vfs.FileSystem
	resolver func(*disk.Disk) faultinject.TypeResolver
}

// rejectOpts fails when any option outside allowed (a field-name set) is
// set or any supported option carries an illegal value, naming both the
// offender and the file system — a multi-volume server config mixes many
// (fs, options) pairs, so an unattributed option error is undebuggable.
func rejectOpts(name string, o Options, allowed map[string]bool) error {
	geom := []struct {
		field string
		v     int64
	}{
		{"journal-blocks", o.JournalBlocks},
		{"blocks-per-group", o.BlocksPerGroup},
		{"itable-blocks", o.ITableBlocks},
	}
	for _, g := range geom {
		if g.v < 0 {
			return fmt.Errorf("fs: %s: option %s: invalid value %d (must be >= 0)",
				name, g.field, g.v)
		}
	}
	set := map[string]bool{
		"mc": o.Mc, "dc": o.Dc, "mr": o.Mr, "dp": o.Dp, "tc": o.Tc,
		"fixbugs": o.FixBugs, "nobarrier": o.NoBarrier, "noatime": o.NoAtime,
		"journal-blocks":   o.JournalBlocks != 0,
		"blocks-per-group": o.BlocksPerGroup != 0,
		"itable-blocks":    o.ITableBlocks != 0,
	}
	var bad []string
	for field, isSet := range set {
		if isSet && !allowed[field] {
			bad = append(bad, field)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("fs: %s does not support option(s) %v", name, bad)
}

// simpleAllowed is the option set of the non-ext3-family file systems:
// just the noatime mount option.
var simpleAllowed = map[string]bool{"noatime": true}

var ext3Allowed = map[string]bool{
	"fixbugs": true, "nobarrier": true, "noatime": true,
	"journal-blocks": true, "blocks-per-group": true, "itable-blocks": true,
}

var ixt3Allowed = map[string]bool{
	"mc": true, "dc": true, "mr": true, "dp": true, "tc": true, "noatime": true,
	"journal-blocks": true, "blocks-per-group": true, "itable-blocks": true,
}

// registry lists the built-in file systems in the paper's order.
var registry = []entry{
	{
		name:     "ext3",
		blocks:   ext3.BlockTypes,
		validate: func(o Options) error { return rejectOpts("ext3", o, ext3Allowed) },
		mkfs:     func(dev disk.Device, o Options) error { return ext3.Mkfs(dev, o.ext3Options()) },
		newFS: func(dev disk.Device, o Options, rec *iron.Recorder) vfs.FileSystem {
			return ext3.New(dev, o.ext3Options(), rec)
		},
		resolver: func(raw *disk.Disk) faultinject.TypeResolver { return ext3.NewResolver(raw) },
	},
	{
		name:     "reiserfs",
		blocks:   reiser.BlockTypes,
		validate: func(o Options) error { return rejectOpts("reiserfs", o, simpleAllowed) },
		mkfs:     func(dev disk.Device, o Options) error { return reiser.Mkfs(dev) },
		newFS: func(dev disk.Device, o Options, rec *iron.Recorder) vfs.FileSystem {
			f := reiser.New(dev, rec)
			f.SetNoAtime(o.NoAtime)
			return f
		},
		resolver: func(raw *disk.Disk) faultinject.TypeResolver { return reiser.NewResolver(raw) },
	},
	{
		name:     "jfs",
		blocks:   jfs.BlockTypes,
		validate: func(o Options) error { return rejectOpts("jfs", o, simpleAllowed) },
		mkfs:     func(dev disk.Device, o Options) error { return jfs.Mkfs(dev) },
		newFS: func(dev disk.Device, o Options, rec *iron.Recorder) vfs.FileSystem {
			f := jfs.New(dev, rec)
			f.SetNoAtime(o.NoAtime)
			return f
		},
		resolver: func(raw *disk.Disk) faultinject.TypeResolver { return jfs.NewResolver(raw) },
	},
	{
		name:     "ntfs",
		blocks:   ntfs.BlockTypes,
		validate: func(o Options) error { return rejectOpts("ntfs", o, simpleAllowed) },
		mkfs:     func(dev disk.Device, o Options) error { return ntfs.Mkfs(dev) },
		newFS: func(dev disk.Device, o Options, rec *iron.Recorder) vfs.FileSystem {
			f := ntfs.New(dev, rec)
			f.SetNoAtime(o.NoAtime)
			return f
		},
		resolver: func(raw *disk.Disk) faultinject.TypeResolver { return ntfs.NewResolver(raw) },
	},
	{
		name:     "ixt3",
		blocks:   ext3.BlockTypes,
		validate: func(o Options) error { return rejectOpts("ixt3", o, ixt3Allowed) },
		mkfs: func(dev disk.Device, o Options) error {
			o.FixBugs = true
			return ext3.Mkfs(dev, o.ext3Options())
		},
		newFS: func(dev disk.Device, o Options, rec *iron.Recorder) vfs.FileSystem {
			o.FixBugs = true
			return ext3.New(dev, o.ext3Options(), rec)
		},
		resolver: func(raw *disk.Disk) faultinject.TypeResolver { return ext3.NewResolver(raw) },
	},
}

// lookup finds a registry entry by name.
func lookup(name string) (*entry, error) {
	for i := range registry {
		if registry[i].name == name {
			return &registry[i], nil
		}
	}
	return nil, fmt.Errorf("fs: unknown file system %q (have %v)", name, Names())
}

// Names returns the registered file system names in the paper's order:
// ext3, reiserfs, jfs, ntfs, ixt3.
func Names() []string {
	out := make([]string, len(registry))
	for i := range registry {
		out[i] = registry[i].name
	}
	return out
}

// Validate reports whether opts is a legal option set for the named file
// system, without touching a device.
func Validate(name string, opts Options) error {
	e, err := lookup(name)
	if err != nil {
		return err
	}
	return e.validate(opts)
}

// Mkfs formats dev for the named file system.
func Mkfs(name string, dev disk.Device, opts Options) error {
	e, err := lookup(name)
	if err != nil {
		return err
	}
	if err := e.validate(opts); err != nil {
		return err
	}
	return e.mkfs(dev, opts)
}

// New returns an unmounted instance of the named file system over a
// formatted device, reporting policy events into rec (which may be nil).
func New(name string, dev disk.Device, opts Options, rec *iron.Recorder) (vfs.FileSystem, error) {
	e, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if err := e.validate(opts); err != nil {
		return nil, err
	}
	return e.newFS(dev, opts, rec), nil
}

// Mount is the one-call path: construct the named file system over dev and
// mount it (replaying any journal). The returned file system is ready for
// use.
func Mount(name string, dev disk.Device, opts Options) (vfs.FileSystem, error) {
	fsys, err := New(name, dev, opts, nil)
	if err != nil {
		return nil, err
	}
	if err := fsys.Mount(); err != nil {
		return nil, err
	}
	return fsys, nil
}

// NewChecker returns the consistency oracle for the named file system.
// Options matter for the ext3 family, whose oracle must know the feature
// set to vet checksums and replicas.
func NewChecker(name string, opts Options) (Checker, error) {
	e, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if err := e.validate(opts); err != nil {
		return nil, err
	}
	return checker{e, opts}, nil
}

// Check runs the named file system's consistency oracle once.
func Check(name string, dev disk.Device, opts Options) error {
	c, err := NewChecker(name, opts)
	if err != nil {
		return err
	}
	return c.Check(dev)
}

// NewResolver builds the named file system's gray-box block-type resolver
// over the raw disk.
func NewResolver(name string, raw *disk.Disk) (faultinject.TypeResolver, error) {
	e, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return e.resolver(raw), nil
}

// BlockTypes returns the structure types fingerprinting exercises for the
// named file system, in matrix row order.
func BlockTypes(name string) ([]iron.BlockType, error) {
	e, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return e.blocks(), nil
}

// Health reports the RStop state of an instance produced by this registry,
// regardless of which concrete file system it is.
func Health(fsys vfs.FileSystem) (vfs.HealthState, bool) {
	if f, ok := fsys.(interface{ Health() vfs.HealthState }); ok {
		return f.Health(), true
	}
	return 0, false
}

// Transitions reports the degrade transition log of an instance — every
// downward health move with the subsystem and cause that forced it — so
// a ReadOnly mount is explainable after the fact. Works for any
// registered file system.
func Transitions(fsys vfs.FileSystem) ([]vfs.Transition, bool) {
	if f, ok := fsys.(interface{ HealthTransitions() []vfs.Transition }); ok {
		return f.HealthTransitions(), true
	}
	return nil, false
}
