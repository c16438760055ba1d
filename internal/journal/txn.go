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
	// retired holds the buffers StageImage took out of the cache since the
	// last freeze. The operation that replaced one may still hold views of
	// it, so it goes to the frame pool only at the next Freeze, after its
	// copies.
	retired [][]byte
	// reqs and types hold the request and type slices of plans whose
	// commit has finished (Reuse), for freezes and plans to fill again.
	reqs  [][]disk.Request
	types [][]iron.BlockType
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
// its slot and type. ext3 reads each staged block back from the cache as
// it freezes; this is how it registers the buffer it finds there.
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

// freeze copies every staged payload of s into a frame from the pool,
// addressed at its home block, and empties the set.
func (t *Txn[K]) freeze(s *Set) ([]disk.Request, []iron.BlockType) {
	if len(s.order) == 0 {
		return nil, nil
	}
	reqs, types := t.Reqs(), t.Types()
	for _, blk := range s.order {
		reqs = append(reqs, disk.Request{Block: blk})
	}
	bcache.TakeFrames(reqs)
	for i, blk := range s.order {
		b := s.at[blk]
		clear(reqs[i].Data[copy(reqs[i].Data, b.buf):])
		types = append(types, b.bt)
	}
	s.order = s.order[:0]
	clear(s.at)
	return reqs, types
}

// StageMeta stages buf as the image of metadata block blk and pins it in
// the cache, so later reads observe it. The first staging fixes the block's
// place in the transaction; a later one keeps the slot and replaces the
// payload and type.
//
// buf is the cache's own buffer wherever the block is resident: all four
// file systems edit the buffer their read returned and stage that same
// buffer, so an edit copies nothing. An edit therefore comes after the
// operation's last step that can fail and is staged at once; otherwise a
// failed operation would leave a clean cached block that neither the media
// nor any transaction holds. A freshly allocated block gets a fresh zeroed
// buffer. ReiserFS's tree nodes are the exception: a view may alias the
// cached node, so a node edit writes a new image into a Frame and stages
// it with StageImage.
func (t *Txn[K]) StageMeta(blk int64, buf []byte, bt iron.BlockType) {
	t.cache.Put(blk, buf, true)
	t.Meta.stage(blk, buf, bt)
}

// StageImage stages img, a new image of metadata block blk written into a
// Frame, as StageMeta does. The buffer img replaces in the cache is the one
// the edit read, so it is retired: it goes to the frame pool at the next
// Freeze, once no operation can hold a view of it. A cache-owned buffer,
// or img itself re-staged, is not retired.
func (t *Txn[K]) StageImage(blk int64, img []byte, bt iron.BlockType) {
	if old := t.cache.Put(blk, img, true); len(old) == BlockSize {
		t.retired = append(t.retired, old)
	}
	t.Meta.stage(blk, img, bt)
}

// StageData stages buf as the image of ordered-data block blk; see
// StageMeta, whose rule holds here too: a write edits a resident block's
// cache buffer in place.
func (t *Txn[K]) StageData(blk int64, buf []byte, bt iron.BlockType) {
	t.cache.Put(blk, buf, true)
	t.Data.stage(blk, buf, bt)
}

// StageFresh stages a zeroed frame as the image of data block blk, which
// is freshly allocated or about to be written whole, and returns it for
// the caller to fill before it unlocks. The frame is the cache's own
// (bcache.PutFresh): a freeze copies it, and once its commit has unpinned
// it and it leaves the cache, a later fresh block or miss reuses it.
func (t *Txn[K]) StageFresh(blk int64, bt iron.BlockType) []byte {
	f := t.cache.PutFresh(blk)
	t.Data.stage(blk, f, bt)
	return f
}

// StageWrite patches p into data block blk at off and stages the block:
// old, the cache's buffer a partial write read first, when there is one;
// for a whole-block write, the buffer already staged for blk; else a
// fresh frame (StageFresh). See StageMeta.
func (t *Txn[K]) StageWrite(blk int64, old []byte, off int64, p []byte, bt iron.BlockType) {
	if old == nil && len(p) == BlockSize {
		old = t.Data.at[blk].buf
	}
	if old == nil {
		copy(t.StageFresh(blk, bt)[off:], p)
		return
	}
	copy(old[off:], p)
	t.StageData(blk, old, bt)
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
// write aimed at its home, in first-touch order, carrying a copy of the
// payload in a frame from the process's pool (bcache.TakeFrames) — the
// cache and the running transaction keep the live buffers, which
// operations go on mutating while the commit is in flight. The plan
// borrows each frame; the file system hands it back to the pool with
// bcache.GiveFrames under that function's rule, and never after a failed
// commit, whose frames are simply dropped.
type Frozen struct {
	Meta, Data         []disk.Request
	MetaType, DataType []iron.BlockType
}

// Freeze copies every staged payload into a frame and leaves the
// transaction empty, to run on as the next one. The buffers StageImage
// retired go to the frame pool after the copies: every operation that
// could view them has ended.
func (t *Txn[K]) Freeze() Frozen {
	var fz Frozen
	fz.Meta, fz.MetaType = t.freeze(&t.Meta)
	fz.Data, fz.DataType = t.freeze(&t.Data)
	clear(t.touched)
	bcache.GiveFrame(t.retired...)
	clear(t.retired)
	t.retired = t.retired[:0]
	return fz
}

// Frame returns a zeroed frame from the pool for a block image the file
// system writes itself: a tree-node image it stages with StageImage, or a
// block it adds to a frozen transaction — a log record or header,
// ReiserFS's superblock. An image staged is the cache's until StageImage
// retires it; any other frame goes back with bcache.GiveFrame once its
// device write has returned.
func (t *Txn[K]) Frame() []byte {
	f := bcache.TakeFrame()
	clear(f)
	return f
}

// Reqs returns an empty request slice for a freeze or a plan to append to:
// one a finished commit gave back with Reuse, or nil.
func (t *Txn[K]) Reqs() []disk.Request { return take(&t.reqs) }

// Types is Reqs for a plan's block types.
func (t *Txn[K]) Types() []iron.BlockType { return take(&t.types) }

// Reuse takes back the request and type slices of a plan whose commit
// has finished — fz's, and the log and its types the file system laid out
// beside them (either may be nil) — as the pool takes back its frames:
// nothing reads them again, so later freezes and plans fill them in place.
// Each slice must come from Freeze, Reqs or Types and be given back once;
// a failed commit's are dropped.
func (t *Txn[K]) Reuse(fz Frozen, log []disk.Request, logTypes []iron.BlockType) {
	give(&t.reqs, fz.Meta)
	give(&t.reqs, fz.Data)
	give(&t.reqs, log)
	give(&t.types, fz.MetaType)
	give(&t.types, fz.DataType)
	give(&t.types, logTypes)
}

// take pops an emptied slice off pool, or returns nil.
func take[T any](pool *[][]T) []T {
	k := len(*pool) - 1
	if k < 0 {
		return nil
	}
	s := (*pool)[k]
	(*pool)[k] = nil
	*pool = (*pool)[:k]
	return s[:0]
}

// give pushes s onto pool unless it has no room to offer.
func give[T any](pool *[][]T, s []T) {
	if cap(s) > 0 {
		*pool = append(*pool, s[:0])
	}
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
