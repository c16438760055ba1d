package faultinject

import (
	"slices"
	"sync"

	"ironfs/internal/disk"
	"ironfs/internal/iron"
)

// Image is the file-system half of a TypeMap: the gray-box knowledge of one
// on-disk format (§4.2: the injector is "tailored to each file system").
// Its methods run under the map's lock and see the image only through the
// map, never through the fault layer — so classification neither advances
// the simulated clock nor trips armed faults.
//
// A walk is Layout followed by WalkRoot over every root it returned, in
// order. Each root is a unit of the walk — an inode-table or MFT block, or
// a tree root — whose result depends only on the layout and the blocks
// that root's WalkRoot reads, so a write re-walks only the roots that read
// the written block.
type Image interface {
	// Layout re-derives the layout from the superblock, reading the image
	// only through m.Read, and appends the walk's roots to roots. changed
	// reports whether anything WalkRoot or Static depends on differs from
	// the layout of the last call; ok is false for an image it does not
	// recognize.
	Layout(m *TypeMap, roots []int64) (out []int64, changed, ok bool)
	// WalkRoot reports every dynamically allocated block root reaches
	// through m.Set, reading the image only through m.Read.
	WalkRoot(m *TypeMap, root int64)
	// Static classifies the blocks the layout alone places (it may m.Peek
	// at live contents); "" defers to what the walk reported.
	Static(m *TypeMap, block int64) iron.BlockType
}

// layoutOwner is the owner of the blocks Layout reads; a root's blocks are
// owned by 1 + its index in the root list, and 0 is no owner.
const layoutOwner = -1

// TypeMap is the shared core of every gray-box resolver: it caches a walk's
// classification together with the walk's read set — the blocks it read
// through Read — and which owner (the layout step or one root) read or Set
// each block. The map is a pure function of the read blocks' contents, so
// a later Classify asks the disk which blocks were written since and
// re-derives only what a written block roots: a block a root read re-walks
// that root alone, a layout block reruns Layout and walks everything only
// if the layout changed. A block two owners touch is a cross-linked image,
// where a full walk's later root wins: any refresh while one exists walks
// everything, as does a disk that can no longer say what was written.
type TypeMap struct {
	raw *disk.Disk
	img Image
	// super is the superblock's type and superAt its home blocks: all
	// that classifies on an image Layout rejects (not formatted yet).
	super   iron.BlockType
	superAt []int64

	//iron:lockorder 15 resolver cache nests under the FS lock and takes only the raw disk's lock
	mu      sync.Mutex
	gen     int64 // disk generation the map is current for
	valid   bool  // the last Layout recognized the image
	crossed bool  // some block is touched by two owners
	roots   []int64
	cur     int32 // owner of the Layout or WalkRoot in progress
	// Per block: the type the walk Set, the owner that read or Set it, and
	// the next block of the same root's list (head holds each root's first,
	// -1 ends a list). readSet is the read set, a bitset over block numbers.
	// All four are sized by the first walk: a volume is mounted with a
	// resolver whether or not a fault layer ever asks it.
	dyn     []iron.BlockType
	owner   []int32
	next    []int32
	head    []int32
	readSet []uint64
	stale   []int32  // refresh scratch: the roots to re-walk
	written []int64  // WritesSince scratch
	bufs    [][]byte // Read scratch, one block per nesting level

	rebuilds, fullWalks, rootWalks int64
}

// NewTypeMap returns the resolver for img's format over the raw disk
// beneath the file system under test; the format's superblock, of type
// super, lives at superAt.
func NewTypeMap(raw *disk.Disk, img Image, super iron.BlockType, superAt ...int64) *TypeMap {
	return &TypeMap{raw: raw, img: img, super: super, superAt: superAt, gen: -1}
}

// Classify implements TypeResolver.
func (m *TypeMap) Classify(block int64) iron.BlockType {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.refreshLocked()
	if !m.valid {
		if slices.Contains(m.superAt, block) {
			return m.super
		}
		return iron.Unclassified
	}
	if bt := m.img.Static(m, block); bt != "" {
		return bt
	}
	if block >= 0 && block < int64(len(m.dyn)) && m.dyn[block] != "" {
		return m.dyn[block]
	}
	return iron.Unclassified
}

// refreshLocked brings the map up to the disk's current generation.
func (m *TypeMap) refreshLocked() {
	written, gen, ok := m.raw.WritesSince(m.gen, m.written[:0])
	m.written, m.gen = written, gen
	if !ok {
		m.rebuilds++
		m.walkAllLocked()
		return
	}
	layout := false
	m.stale = m.stale[:0]
	for _, w := range written {
		if !m.readsLocked(w) {
			continue
		}
		if o := m.owner[w]; o == layoutOwner {
			layout = true
		} else if !slices.Contains(m.stale, o) {
			m.stale = append(m.stale, o)
		}
	}
	if !layout && len(m.stale) == 0 {
		return
	}
	m.rebuilds++
	full := m.crossed || !m.valid
	if layout && !full {
		var changed bool
		m.cur = layoutOwner
		m.roots, changed, m.valid = m.img.Layout(m, m.roots[:0])
		full = changed || !m.valid || m.crossed
	}
	if full {
		m.walkAllLocked()
		return
	}
	for _, o := range m.stale {
		for b := m.head[o-1]; b >= 0; b = m.next[b] {
			m.dyn[b], m.owner[b] = "", 0
			m.readSet[b/64] &^= 1 << (b % 64)
		}
	}
	for _, o := range m.stale {
		m.walkRootLocked(o)
	}
	if m.crossed {
		m.walkAllLocked()
	}
}

// walkAllLocked forgets everything and walks the whole image.
func (m *TypeMap) walkAllLocked() {
	m.fullWalks++
	if n := m.raw.NumBlocks(); m.owner == nil {
		m.dyn, m.owner, m.next = make([]iron.BlockType, n), make([]int32, n), make([]int32, n)
		m.readSet = make([]uint64, (n+63)/64)
	}
	clear(m.dyn)
	clear(m.owner)
	clear(m.readSet)
	m.crossed = false
	m.cur = layoutOwner
	m.roots, _, m.valid = m.img.Layout(m, m.roots[:0])
	if !m.valid {
		return
	}
	m.head = slices.Grow(m.head[:0], len(m.roots))[:len(m.roots)]
	for i := range m.roots {
		m.walkRootLocked(int32(i + 1))
	}
}

// walkRootLocked walks the root owner o names, from an empty list.
func (m *TypeMap) walkRootLocked(o int32) {
	m.rootWalks++
	m.cur = o
	m.head[o-1] = -1
	m.img.WalkRoot(m, m.roots[o-1])
}

// touch records that the walk in progress read or Set block blk, which
// is in range.
func (m *TypeMap) touch(blk int64) {
	switch o := m.owner[blk]; o {
	case m.cur:
	case 0:
		m.owner[blk] = m.cur
		if m.cur != layoutOwner {
			m.next[blk] = m.head[m.cur-1]
			m.head[m.cur-1] = int32(blk)
		}
	default:
		m.crossed = true
	}
}

// Rebuilds reports how many times a write to the read set (or one the disk
// could no longer name) made the map re-derive part or all of itself.
func (m *TypeMap) Rebuilds() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rebuilds
}

// Walks reports how many full walks the map has made, and how many roots
// it has walked, in full walks and on their own.
func (m *TypeMap) Walks() (full, roots int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fullWalks, m.rootWalks
}

// Reads reports whether the walk read block blk: the map depends on that
// block's contents, so a write to it re-derives the map at the next
// Classify.
func (m *TypeMap) Reads(blk int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.readsLocked(blk)
}

// readsAny reports whether the walk read any block of reqs.
func (m *TypeMap) readsAny(reqs []disk.Request) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range reqs {
		if m.readsLocked(reqs[i].Block) {
			return true
		}
	}
	return false
}

func (m *TypeMap) readsLocked(blk int64) bool {
	return blk >= 0 && blk/64 < int64(len(m.readSet)) && m.readSet[blk/64]&(1<<(blk%64)) != 0
}

// NumBlocks is the size of the disk being classified.
func (m *TypeMap) NumBlocks() int64 { return m.raw.NumBlocks() }

// Read returns block blk for a Layout or WalkRoot and adds it to the read
// set. The buffer is the scratch block of the given nesting level, valid
// until the next Read at that level: a walker holding an inode-table block
// at level 0 reads the indirect blocks under it at levels 1 and up.
func (m *TypeMap) Read(level int, blk int64) ([]byte, bool) {
	for len(m.bufs) <= level {
		m.bufs = append(m.bufs, make([]byte, m.raw.BlockSize()))
	}
	if m.raw.ReadRaw(blk, m.bufs[level]) != nil {
		return nil, false // out of range: a constant of the block number
	}
	m.touch(blk)
	m.readSet[blk/64] |= 1 << (blk % 64)
	return m.bufs[level], true
}

// Peek returns the live contents of block blk for a Static that classifies
// by content (a journal block's magic). It is read on every Classify, so
// it is not part of the read set. No walk is in progress then, so it
// borrows the level-0 scratch block; valid until the next Peek.
func (m *TypeMap) Peek(blk int64) ([]byte, bool) {
	if m.raw.ReadRaw(blk, m.bufs[0]) != nil {
		return nil, false
	}
	return m.bufs[0], true
}

// Set records that WalkRoot found block blk to hold a structure of type
// bt. A block off the disk is not recorded: it never classifies.
func (m *TypeMap) Set(blk int64, bt iron.BlockType) {
	if blk < 0 || blk >= int64(len(m.dyn)) {
		return
	}
	m.touch(blk)
	m.dyn[blk] = bt
}
