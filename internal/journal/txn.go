package journal

import (
	"slices"

	"ironfs/internal/bcache"
	"ironfs/internal/disk"
	"ironfs/internal/iron"
)

// BlockSize is the size of a log block and of every staged payload; all
// four log formats are written in 4 KiB blocks.
const BlockSize = 4096

// NoCap is the cap of a staged-block class that has none of its own.
const NoCap = int(^uint(0) >> 1)

// Txn is the running transaction: the blocks operations have dirtied since
// the last freeze, in two classes — metadata that is journaled before it
// goes home, and ordered data that goes home before the metadata naming it
// commits — plus the set of objects (keyed by K: an inode, object or record
// number) an fsync would have to commit for. What a transaction *is* does
// not differ between the four journaling file systems, so it is stated
// once; how a frozen one is encoded, checkpointed and recovered from is
// theirs. All methods are called with the file-system lock held.
type Txn[K comparable] struct {
	// Meta is the journaled metadata, Data the ordered data.
	Meta, Data Set
	// cache is where staged blocks are pinned dirty until their commit has
	// brought them home.
	cache   *bcache.Cache
	touched map[K]struct{}
}

// Set is one class of staged blocks: each block once, in first-touch order,
// with its payload and type.
type Set struct {
	order []int64
	at    map[int64]staged
}

type staged struct {
	buf []byte
	bt  iron.BlockType
}

// NewTxn returns an empty running transaction pinning its blocks in cache.
func NewTxn[K comparable](cache *bcache.Cache) *Txn[K] {
	return &Txn[K]{
		Meta:    Set{at: map[int64]staged{}},
		Data:    Set{at: map[int64]staged{}},
		cache:   cache,
		touched: map[K]struct{}{},
	}
}

// Len returns the number of staged blocks.
func (s *Set) Len() int { return len(s.order) }

// Block returns the i'th staged block in first-touch order.
func (s *Set) Block(i int) int64 { return s.order[i] }

// Payload returns blk's staged payload — the live buffer, which later
// stagings of the block mutate — or nil when blk is not staged.
func (s *Set) Payload(blk int64) []byte { return s.at[blk].buf }

// Type returns the type blk was last staged as.
func (s *Set) Type(blk int64) iron.BlockType { return s.at[blk].bt }

// Bind replaces the payload registered for the staged block blk, keeping
// its slot and type. ext3 hands operations the pinned cache buffer itself
// and reads it back from the cache as it freezes; this is how it registers
// the buffer it finds there.
func (s *Set) Bind(blk int64, buf []byte) {
	b := s.at[blk]
	b.buf = buf
	s.at[blk] = b
}

func (s *Set) stage(blk int64, buf []byte, bt iron.BlockType) {
	if _, ok := s.at[blk]; !ok {
		s.order = append(s.order, blk)
	}
	s.at[blk] = staged{buf, bt}
}

func (s *Set) drop(blk int64) {
	if _, ok := s.at[blk]; !ok {
		return
	}
	delete(s.at, blk)
	i := slices.Index(s.order, blk)
	s.order = slices.Delete(s.order, i, i+1)
}

// freeze returns a private copy of every staged payload, addressed at its
// home block, and empties the set.
func (s *Set) freeze() ([]disk.Request, []iron.BlockType) {
	if len(s.order) == 0 {
		return nil, nil
	}
	reqs := make([]disk.Request, len(s.order))
	types := make([]iron.BlockType, len(s.order))
	for i, blk := range s.order {
		b := s.at[blk]
		cp := make([]byte, BlockSize)
		copy(cp, b.buf)
		reqs[i] = disk.Request{Block: blk, Data: cp}
		types[i] = b.bt
	}
	s.order = s.order[:0]
	clear(s.at)
	return reqs, types
}

// StageMeta stages buf as the image of metadata block blk and pins it in
// the cache, so later reads observe it. The first staging fixes the block's
// place in the transaction; a later one keeps the slot and replaces the
// payload and type.
func (t *Txn[K]) StageMeta(blk int64, buf []byte, bt iron.BlockType) {
	t.cache.Put(blk, buf, true)
	t.Meta.stage(blk, buf, bt)
}

// StageData stages buf as the image of ordered-data block blk; see
// StageMeta.
func (t *Txn[K]) StageData(blk int64, buf []byte, bt iron.BlockType) {
	t.cache.Put(blk, buf, true)
	t.Data.stage(blk, buf, bt)
}

// Drop forgets blk, which the transaction has freed: whatever was staged
// for it — in either class — must reach neither the log nor its home,
// where it could land over the block's next owner. The cache lets go of it
// too.
func (t *Txn[K]) Drop(blk int64) {
	t.Meta.drop(blk)
	t.Data.drop(blk)
	t.cache.Drop(blk)
}

// Touch records that the object named k changed in this transaction.
func (t *Txn[K]) Touch(k K) { t.touched[k] = struct{}{} }

// Touched reports whether the object named k has uncommitted changes here.
// Fsync uses it for group commit: when another client's commit already
// carried the object's state to the log, it is absent and the fsync returns
// without paying for a commit of strangers' blocks.
func (t *Txn[K]) Touched(k K) bool {
	_, ok := t.touched[k]
	return ok
}

// Empty reports whether nothing is staged.
func (t *Txn[K]) Empty() bool { return t.Meta.Len() == 0 && t.Data.Len() == 0 }

// Full is the cap rule: a running transaction that has reached either cap
// must commit before it takes more. While a commit is writing, the running
// transaction keeps absorbing operations — but a frozen transaction gets
// exactly one descriptor block, MaxTags tags, so a file system's metaCap
// sits far enough below MaxTags that the operations still joining while
// the committer waits out the one in flight cannot reach it.
func (t *Txn[K]) Full(metaCap, dataCap int) bool {
	return t.Meta.Len() >= metaCap || t.Data.Len() >= dataCap
}

// Frozen is a transaction as of its freeze: every staged block as a device
// write aimed at its home, in first-touch order, carrying a private copy of
// the payload — the cache and the running transaction keep the live
// buffers, which operations go on mutating while the commit is in flight.
type Frozen struct {
	Meta, Data         []disk.Request
	MetaType, DataType []iron.BlockType
}

// Freeze copies every staged payload and leaves the transaction empty, to
// run on as the next one.
func (t *Txn[K]) Freeze() Frozen {
	var fz Frozen
	fz.Meta, fz.MetaType = t.Meta.freeze()
	fz.Data, fz.DataType = t.Data.freeze()
	clear(t.touched)
	return fz
}

// Unpin marks blocks a commit has brought home clean in the cache, making
// them evictable again — unless this, the running transaction, re-dirtied
// a block while that commit was in flight, in which case the dirty pin now
// belongs to it.
func (t *Txn[K]) Unpin(home ...[]disk.Request) {
	for _, reqs := range home {
		for _, r := range reqs {
			_, meta := t.Meta.at[r.Block]
			_, data := t.Data.at[r.Block]
			if !meta && !data {
				t.cache.MarkClean(r.Block)
			}
		}
	}
}
