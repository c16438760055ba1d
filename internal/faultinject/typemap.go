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
type Image interface {
	// Walk re-derives the layout from the superblock and reports every
	// dynamically allocated block through m.Set, reading the image only
	// through m.Read. It returns false for an image it does not recognize.
	Walk(m *TypeMap) bool
	// Static classifies the blocks the layout alone places (it may m.Peek
	// at live contents); "" defers to what Walk reported.
	Static(m *TypeMap, block int64) iron.BlockType
}

// TypeMap is the shared core of every gray-box resolver: it caches one
// Walk's classification together with the walk's read set — the blocks it
// read through Read. The map is a pure function of those blocks' contents,
// so a later Classify asks the disk which blocks were written since and
// walks again only if one of them is in the read set (or the disk can no
// longer say); any other write just moves the cached generation forward.
type TypeMap struct {
	raw *disk.Disk
	img Image
	// super is the superblock's type and superAt its home blocks: all
	// that classifies on an image Walk rejects (not formatted yet).
	super   iron.BlockType
	superAt []int64

	//iron:lockorder 15 resolver cache nests under the FS lock and takes only the raw disk's lock
	mu       sync.Mutex
	gen      int64 // disk generation the map is current for
	valid    bool  // the last Walk recognized the image
	dyn      map[int64]iron.BlockType
	readSet  []uint64 // bitset over block numbers
	written  []int64  // WritesSince scratch
	bufs     [][]byte // Read scratch, one block per nesting level
	rebuilds int64
}

// NewTypeMap returns the resolver for img's format over the raw disk
// beneath the file system under test; the format's superblock, of type
// super, lives at superAt.
func NewTypeMap(raw *disk.Disk, img Image, super iron.BlockType, superAt ...int64) *TypeMap {
	return &TypeMap{
		raw: raw, img: img, super: super, superAt: superAt, gen: -1,
		dyn:     map[int64]iron.BlockType{},
		readSet: make([]uint64, (raw.NumBlocks()+63)/64),
	}
}

// Classify implements TypeResolver.
func (m *TypeMap) Classify(block int64) iron.BlockType {
	m.mu.Lock()
	defer m.mu.Unlock()
	written, gen, ok := m.raw.WritesSince(m.gen, m.written[:0])
	m.written = written
	stale := !ok
	for _, w := range written {
		if m.readsLocked(w) {
			stale = true
			break
		}
	}
	if stale {
		clear(m.dyn)
		clear(m.readSet)
		m.rebuilds++
		m.valid = m.img.Walk(m)
	}
	m.gen = gen
	if !m.valid {
		if slices.Contains(m.superAt, block) {
			return m.super
		}
		return iron.Unclassified
	}
	if bt := m.img.Static(m, block); bt != "" {
		return bt
	}
	if bt, ok := m.dyn[block]; ok {
		return bt
	}
	return iron.Unclassified
}

// Rebuilds reports how many times the image has been walked.
func (m *TypeMap) Rebuilds() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rebuilds
}

// Reads reports whether the last walk read block blk: the map depends on
// that block's contents, so a write to it rebuilds the map at the next
// Classify.
func (m *TypeMap) Reads(blk int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.readsLocked(blk)
}

// readsAny reports whether the last walk read any block of reqs.
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

// Read returns block blk for a Walk and adds it to the read set. The buffer
// is the scratch block of the given nesting level, valid until the next
// Read at that level: a walker holding an inode-table block at level 0
// reads the indirect blocks under it at levels 1 and up.
func (m *TypeMap) Read(level int, blk int64) ([]byte, bool) {
	for len(m.bufs) <= level {
		m.bufs = append(m.bufs, make([]byte, m.raw.BlockSize()))
	}
	if m.raw.ReadRaw(blk, m.bufs[level]) != nil {
		return nil, false // out of range: a constant of the block number
	}
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

// Set records that Walk found block blk to hold a structure of type bt.
func (m *TypeMap) Set(blk int64, bt iron.BlockType) { m.dyn[blk] = bt }
