package fsck

import (
	"cmp"
	"slices"

	"ironfs/internal/trace"
)

// Object is one allocated object (an inode, an MFT record, a stat item)
// as the reference cross-check sees it. Node is the file system's own
// decoded form, carried along for its fix primitives.
type Object[O any] struct {
	ID uint64
	// Links is the link count the object stores.
	Links int
	Dir   bool
	// Root marks an object no directory entry is expected to name (the
	// root directory, NTFS's $MFT).
	Root bool
	Node O
}

// Entry is one directory entry: Dir names Child as Name.
type Entry struct {
	Dir   uint64
	Name  string
	Child uint64
}

// Refs is the census of a volume whose objects are reached through
// directory entries: the scan state plus every allocated object and every
// directory entry.
type Refs[O any] struct {
	*Scan
	// Entries holds every directory entry in scan order.
	Entries []Entry
	objects map[uint64]Object[O]
	named   map[uint64]int // ID -> entries naming it
}

// NewRefs starts a census on s.
func NewRefs[O any](s *Scan) *Refs[O] {
	return &Refs[O]{Scan: s, objects: map[uint64]Object[O]{}, named: map[uint64]int{}}
}

// Add records an allocated object.
func (c *Refs[O]) Add(o Object[O]) { c.objects[o.ID] = o }

// Entry records a directory entry.
func (c *Refs[O]) Entry(dir uint64, name string, child uint64) {
	c.named[child]++
	c.Entries = append(c.Entries, Entry{Dir: dir, Name: name, Child: child})
}

// Has reports whether an object with the given ID is allocated.
func (c *Refs[O]) Has(id uint64) bool {
	_, ok := c.objects[id]
	return ok
}

// Node returns the decoded form of the allocated object with the given ID.
func (c *Refs[O]) Node(id uint64) O { return c.objects[id].Node }

// Objects returns the allocated objects in ID order — table order, or the
// tree's key order — so reports never depend on map iteration.
func (c *Refs[O]) Objects() []Object[O] {
	out := make([]Object[O], 0, len(c.objects))
	for _, o := range c.objects {
		out = append(out, o)
	}
	slices.SortFunc(out, func(a, b Object[O]) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Count returns how many directory entries name id.
func (c *Refs[O]) Count(id uint64) int { return c.named[id] }

// Dangling returns, in ID order, the IDs directory entries name although
// no such object is allocated.
func (c *Refs[O]) Dangling() []uint64 {
	var ids []uint64
	for id := range c.named {
		if !c.Has(id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// Nouns is how one file system's reference problems read.
type Nouns struct {
	// Object renders an ID ("inode 7", "(2,9)").
	Object func(id uint64) string
	// OrphanKind and Orphan are the kind, and the detail after the
	// rendered ID, of an allocated object no entry names.
	OrphanKind, Orphan string
}

// CrossCheck reports, in ID order, objects no directory entry names and
// files whose stored link count disagrees with the entries naming them.
// Directory link conventions vary, so equality is enforced for files only.
func (c *Refs[O]) CrossCheck(n Nouns) {
	for _, o := range c.Objects() {
		switch named := c.named[o.ID]; {
		case o.Root:
		case named == 0:
			c.Problemf(n.OrphanKind, "%s%s", n.Object(o.ID), n.Orphan)
		case !o.Dir && o.Links != named:
			c.Problemf("link-count", "%s says %d, directory tree says %d", n.Object(o.ID), o.Links, named)
		}
	}
}

// Fixer is the fix primitives of a file system that rides Reconcile. Each
// fix stages through the file system's journal, records its RRepair event
// and commits when the running transaction has grown large, so every
// intermediate commit is itself a consistent volume.
type Fixer[O any] interface {
	// CensusLocked enumerates the volume into a fresh Refs on s, serially.
	CensusLocked(s *Scan) (*Refs[O], error)
	// RemoveEntryLocked removes a directory entry whose child is not
	// allocated.
	RemoveEntryLocked(c *Refs[O], e Entry) error
	// ReclaimLocked frees an object no entry names; the map rebuild
	// reclaims whatever it held.
	ReclaimLocked(o Object[O]) error
	// SetLinksLocked stores a file's corrected link count.
	SetLinksLocked(o Object[O], links int) error
	// RebuildMapsLocked rewrites the allocation maps, and whatever
	// counters summarise them, from c, then commits.
	RebuildMapsLocked(c *Refs[O]) error
}

// Reconcile is the repair order the reference-checked file systems share:
// dangling entries out, orphans reclaimed, then — against a fresh census of
// the tree those fixes left — file link counts, then — against the final
// census — the allocation maps, whose commit is the pass's last.
func Reconcile[O any](tr *trace.Tracer, f Fixer[O]) error {
	c, err := f.CensusLocked(newScan(1, tr))
	if err != nil {
		return err
	}
	for _, e := range c.Entries {
		if c.Has(e.Child) {
			continue
		}
		if err := f.RemoveEntryLocked(c, e); err != nil {
			return err
		}
	}
	for _, o := range c.Objects() {
		if o.Root || c.named[o.ID] != 0 {
			continue
		}
		if err := f.ReclaimLocked(o); err != nil {
			return err
		}
	}
	if c, err = f.CensusLocked(newScan(1, tr)); err != nil {
		return err
	}
	for _, o := range c.Objects() {
		if named := c.named[o.ID]; !o.Root && named != 0 && !o.Dir && o.Links != named {
			if err := f.SetLinksLocked(o, named); err != nil {
				return err
			}
		}
	}
	if c, err = f.CensusLocked(newScan(1, tr)); err != nil {
		return err
	}
	return f.RebuildMapsLocked(c)
}
