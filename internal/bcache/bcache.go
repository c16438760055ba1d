// Package bcache provides the shared in-memory buffer cache — the
// simulation's stand-in for the page cache — used by every file system in
// this repository.
//
// The cache is sharded by block number with one lock per shard, so
// concurrent clients of the same file system stop serializing on a single
// cache mutex: two readers touching different shards never contend. Each
// shard runs its own LRU; dirty blocks are pinned shard-locally exactly as
// they were pinned globally before. Hit/miss/evict accounting is exact —
// every counter is updated under the owning shard's lock, never as a racy
// best-effort add — and Stats() aggregates the shard counters under their
// locks, so the totals obey the cache's arithmetic identities even while
// other goroutines keep hammering it (asserted by a -race test).
package bcache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ironfs/internal/disk"
	"ironfs/internal/stat"
	"ironfs/internal/trace"
)

// DefaultShards is the shard count used by New. Adjacent block numbers land
// in different shards, so the sequential scans file systems love spread
// naturally instead of convoying on one lock.
const DefaultShards = 8

// DefaultBlocks is the capacity every file system makes its volume's cache
// with: New(DefaultBlocks).
const DefaultBlocks = 2048

// FrameSize is the size of the frames the process-wide pool keeps: the
// 4 KiB block every file system here, and every log, is written in.
const FrameSize = 4096

// framePool is the process's one free list of FrameSize buffers. Every
// Cache, every journal transaction and every scheduler takes its 4 KiB
// buffers from it and gives them back: a cache frame when its entry lets go
// of it clean, a commit's frames once their last device write has returned,
// a queued write's copy once the device has taken its sweep. So a volume
// mounted after another reads into the frames the first let go of. A frame
// is made only when the pool is empty, so the pool never holds more frames
// than the process's caches, transactions and queues once held at the same
// time; it needs no cap. It is not a sync.Pool, which every garbage
// collection empties: a volume mounted after a collection would make its
// frames afresh.
type framePool struct {
	//iron:lockorder 35 the frame pool nests under the scheduler's queue lock and a cache shard lock and takes no lock of its own
	mu     sync.Mutex
	frames [][]byte
	// made counts the FrameSize frames made because the pool was empty.
	made atomic.Int64
}

var pool framePool

// takeLocked pops a frame, or returns nil when the pool is empty. Caller
// holds p.mu.
func (p *framePool) takeLocked() []byte {
	k := len(p.frames) - 1
	if k < 0 {
		return nil
	}
	f := p.frames[k]
	p.frames[k] = nil
	p.frames = p.frames[:k]
	return f
}

// pushLocked pushes f if it is FrameSize long; any other buffer is left
// to the garbage collector. Caller holds p.mu.
func (p *framePool) pushLocked(f []byte) {
	if len(f) == FrameSize {
		p.frames = append(p.frames, f)
	}
}

// newFrame makes a frame and counts it.
func newFrame() []byte {
	pool.made.Add(1)
	return make([]byte, FrameSize)
}

// TakeFrame returns a FrameSize frame from the pool, or a new one when the
// pool is empty. Its bytes are whatever its last use left. The caller owns
// it until GiveFrame, or leaves it to the garbage collector.
func TakeFrame() []byte {
	pool.mu.Lock()
	f := pool.takeLocked()
	pool.mu.Unlock()
	if f == nil {
		f = newFrame()
	}
	return f
}

// GiveFrame hands each of fs back to the pool, taking its lock once:
// neither the caller nor anyone it lent a frame to — a plan, a device call
// — reads or writes it again, for the next TakeFrame anywhere in the
// process may hand it out. A frame a device write was given goes back only
// after the frame's last device write has returned (a disk.Device keeps no
// buffer past the call), and never while a failed commit's plan may still
// hold it. A buffer that is not FrameSize bytes long, nil included, is left
// to the garbage collector.
func GiveFrame(fs ...[]byte) {
	pool.mu.Lock()
	for _, f := range fs {
		pool.pushLocked(f)
	}
	pool.mu.Unlock()
}

// TakeFrames sets the Data of every request in reqs to a frame, as
// TakeFrame would one at a time, taking the pool's lock once: a commit's
// frozen copies.
func TakeFrames(reqs []disk.Request) {
	pool.mu.Lock()
	for i := range reqs {
		reqs[i].Data = pool.takeLocked()
	}
	pool.mu.Unlock()
	for i := range reqs {
		if reqs[i].Data == nil {
			reqs[i].Data = newFrame()
		}
	}
}

// GiveFrames hands back the Data frame of every request in each of sets,
// as GiveFrame would one at a time and under its rule, taking the pool's
// lock once: a commit's frozen copies and log records, a scheduler's sweep.
func GiveFrames(sets ...[]disk.Request) {
	pool.mu.Lock()
	for _, reqs := range sets {
		for _, r := range reqs {
			pool.pushLocked(r.Data)
		}
	}
	pool.mu.Unlock()
}

// PoolStats reports the process-wide frame pool: the frames the process
// has made so far, and the frames the pool holds now.
func PoolStats() (made int64, pooled int) {
	pool.mu.Lock()
	pooled = len(pool.frames)
	pool.mu.Unlock()
	return pool.made.Load(), pooled
}

// Stats are the cache's exact access counters. All fields are monotonic.
type Stats struct {
	// Lookups counts Get calls; Lookups == Hits + Misses always.
	Lookups int64
	// Hits and Misses split the lookups.
	Hits, Misses int64
	// Inserts counts Puts that created a new entry; Replacements counts
	// Puts that overwrote an existing one.
	Inserts, Replacements int64
	// Evicts counts capacity evictions, Drops the entries removed by Drop.
	Evicts, Drops int64
}

// Add returns the field-wise sum of s and o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Lookups: s.Lookups + o.Lookups,
		Hits:    s.Hits + o.Hits, Misses: s.Misses + o.Misses,
		Inserts: s.Inserts + o.Inserts, Replacements: s.Replacements + o.Replacements,
		Evicts: s.Evicts + o.Evicts, Drops: s.Drops + o.Drops,
	}
}

// Cache is a sharded LRU buffer cache standing in for the page cache.
// Clean blocks may be evicted at any time; dirty blocks are pinned until
// the running transaction commits (metadata) or its ordered data is written
// (data), after which commit marks them clean. All methods are safe for
// concurrent use.
type Cache struct {
	shards []shard
	// tr, when set, receives a hit/miss event per lookup and an evict
	// event per capacity eviction. Nil costs nothing. Atomic so SetTracer
	// may race with lookups without tripping the race detector.
	tr atomic.Pointer[trace.Tracer]
}

type shard struct {
	//iron:lockorder 30 cache shard lock nests only the frame pool's; shards never nest on each other
	mu      sync.Mutex
	cap     int
	entries map[int64]*entry
	// lru is the sentinel of the recency ring: lru.next is the most
	// recently used entry, lru.prev the least.
	lru entry
	// free holds entries no block uses, linked through next.
	free  *entry
	stats Stats
	// hits, misses and evicts are the registry's handles, per shard so the
	// snapshot shows skew across shards, resolved at construction and
	// labelled by the trace kind of the event each counts:
	// bcache_ops_total{op=hit|miss|evict,shard}.
	hits, misses, evicts *stat.Counter
}

type entry struct {
	block int64
	data  []byte
	dirty bool
	// own is set while data is a frame the cache owns and never handed
	// out: Fill and PutFresh set it, and Get clears it for good. The frame
	// of an own entry goes back to the pool when the entry lets go of it
	// clean; any other buffer is left to the garbage collector.
	own        bool
	prev, next *entry
}

// New returns a cache bounded to capBlocks resident blocks (minimum 16),
// split over DefaultShards shards.
func New(capBlocks int) *Cache { return NewSharded(capBlocks, DefaultShards) }

// NewSharded returns a cache of capBlocks total capacity over the given
// shard count (minimum 1). Capacity is divided evenly; each shard keeps at
// least two resident blocks so pathological shard counts stay functional.
// Everything a shard needs up to its capacity is made here — its entries,
// carved from one slab, and its map — so a cache allocates nothing after
// New but the frames the pool cannot serve and what a shard pinned over
// capacity grows.
func NewSharded(capBlocks, shards int) *Cache {
	if capBlocks < 16 {
		capBlocks = 16
	}
	if shards < 1 {
		shards = 1
	}
	perShard := (capBlocks + shards - 1) / shards
	if perShard < 2 {
		perShard = 2
	}
	c := &Cache{shards: make([]shard, shards)}
	slab := make([]entry, shards*perShard)
	for i := range c.shards {
		// Zero-padded shard labels keep snapshot keys sorted numerically.
		lbl := fmt.Sprintf("%02d", i)
		s := &c.shards[i]
		*s = shard{
			cap: perShard, entries: make(map[int64]*entry, perShard),
			hits:   stat.C("bcache_ops_total", "op", trace.KindHit, "shard", lbl),
			misses: stat.C("bcache_ops_total", "op", trace.KindMiss, "shard", lbl),
			evicts: stat.C("bcache_ops_total", "op", trace.KindEvict, "shard", lbl),
		}
		s.lru.prev, s.lru.next = &s.lru, &s.lru
		for j := i * perShard; j < (i+1)*perShard; j++ {
			slab[j].next, s.free = s.free, &slab[j]
		}
	}
	return c
}

// SetTracer attaches the run's tracer; file systems wire it from the
// device they mount (trace.Of) so buffer-cache behavior shows up in the
// same evidence trace as the I/O it absorbs or causes.
func (c *Cache) SetTracer(tr *trace.Tracer) { c.tr.Store(tr) }

// shardOf maps a block number to its owning shard.
func (c *Cache) shardOf(n int64) *shard {
	if n < 0 {
		n = -n
	}
	return &c.shards[int(n)%len(c.shards)]
}

// Get returns the cached data for block n, or nil on a miss. The returned
// slice aliases the cache; callers mutating it must also call MarkDirty.
// The caller may hold it across later calls: a buffer Get handed out is
// never recycled. Get is the one lookup that disowns a frame for good,
// because a reader under a file system's shared lock may hold what it
// returns while other readers fill and evict.
func (c *Cache) Get(n int64) []byte { return c.get(n, true) }

// Borrow is Get that leaves a cache-owned frame owned: counted, traced and
// moved to the front of the LRU exactly as Get is. The caller must hold
// its volume's lock exclusively — no reader can fill or evict meanwhile —
// and let go of the buffer before it unlocks; a frame it stages dirty
// stays pinned, and so in place, until its commit unpins it.
func (c *Cache) Borrow(n int64) []byte { return c.get(n, false) }

// get is Get and Borrow: disown says whether a hit gives up the cache's
// ownership of the buffer.
func (c *Cache) get(n int64, disown bool) []byte {
	s := c.shardOf(n)
	s.mu.Lock()
	e, ok := s.entries[n]
	if !ok {
		c.lookedUp(s, n, false)
		return nil
	}
	s.moveToFront(e)
	if disown {
		e.own = false
	}
	data := e.data
	c.lookedUp(s, n, true)
	return data
}

// GetInto copies block n's cached bytes starting at offset off into dst,
// reporting whether the block was resident. It is the allocation-free hot
// read path: unlike Get it never hands out an aliasing slice, so callers
// copy under the shard lock straight into their own buffer and the
// compiler has nothing to heap-allocate (asserted by an AllocsPerRun
// test). A short or out-of-range request is a miss for accounting — the
// caller falls back to the full read path either way.
func (c *Cache) GetInto(n int64, off int, dst []byte) bool {
	s := c.shardOf(n)
	s.mu.Lock()
	e, ok := s.entries[n]
	if !ok || off < 0 || off+len(dst) > len(e.data) {
		c.lookedUp(s, n, false)
		return false
	}
	copy(dst, e.data[off:off+len(dst)])
	s.moveToFront(e)
	c.lookedUp(s, n, true)
	return true
}

// lookedUp records a lookup of block n in s, a hit or a miss, in each of
// its sinks: the shard's Stats, the registry and the trace. The caller
// holds s.mu, which lookedUp releases before the trace event.
func (c *Cache) lookedUp(s *shard, n int64, hit bool) {
	s.stats.Lookups++
	kind, h := trace.KindMiss, s.misses
	if hit {
		s.stats.Hits++
		kind, h = trace.KindHit, s.hits
	} else {
		s.stats.Misses++
	}
	s.mu.Unlock()
	h.Inc()
	c.tr.Load().Buffer(kind, n)
}

// DirtyLen returns the number of dirty (write-behind) blocks resident
// across all shards: updates the cache is holding back until the next
// commit writes them out.
func (c *Cache) DirtyLen() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, e := range s.entries {
			if e.dirty {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Put inserts (or replaces) block n with data. The cache keeps data but
// never recycles it: the caller may go on holding it. Eviction of the
// least-recently-used clean block keeps the shard within capacity.
//
// When data replaces another buffer the cache does not own, that buffer is
// returned: the cache has let go of it, though a caller Get handed it to
// may still hold it. A clean cache-owned frame goes back to the pool
// instead. Re-putting the resident buffer returns nil and leaves it as
// owned as it was: a borrowed frame staged dirty stays the cache's.
func (c *Cache) Put(n int64, data []byte, dirty bool) (replaced []byte) {
	s := c.shardOf(n)
	s.mu.Lock()
	if e, ok := s.entries[n]; ok {
		if !sameBuf(e.data, data) {
			if !e.own {
				replaced = e.data
			}
			s.recycleLocked(e)
			e.data, e.own = data, false
		}
		e.dirty = e.dirty || dirty
		s.moveToFront(e)
		s.stats.Replacements++
		s.mu.Unlock()
		return replaced
	}
	var buf [victimBuf]int64
	c.evicted(s, s.insertLocked(n, data, dirty, false, buf[:0]))
	return nil
}

// sameBuf reports whether a and b start at the same byte.
func sameBuf(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// Fill inserts block n clean with data unless n is already resident,
// reporting whether it did. It is Put for a copy read from the media: a
// resident buffer — dirty with an update the media has not seen, or clean
// and as new as the media — always wins over it. data becomes the cache's
// own: it is a frame the caller read into, and the caller has copied out
// whatever it needed before the call and keeps no reference to it, since
// once no entry uses it and Get never handed it out, a later fill reads
// into it; data that loses to a resident buffer goes to the pool at once.
// ReadAhead and the miss paths insert this way.
func (c *Cache) Fill(n int64, data []byte) bool { return sameBuf(c.fill(n, data, false), data) }

// fill is Fill, returning the buffer block n holds after it: f, or the
// resident buffer that won. keep says the caller goes on using that buffer
// under its volume's exclusive lock, so an f the insert evicts at once (no
// other block of its shard is clean) is left to it, out of the pool.
func (c *Cache) fill(n int64, f []byte, keep bool) []byte {
	s := c.shardOf(n)
	s.mu.Lock()
	if e, ok := s.entries[n]; ok {
		GiveFrame(f)
		data := e.data
		s.mu.Unlock()
		return data
	}
	var buf [victimBuf]int64
	victims := s.insertLocked(n, f, false, !keep, buf[:0])
	if keep {
		if e := s.entries[n]; e != nil {
			e.own = true
		}
	}
	c.evicted(s, victims)
	return f
}

// MissInto is GetInto's miss path, for a reader that may share its
// volume's lock: load, the file system's device read policy, reads block n
// into a frame, whose bytes from off are copied into dst before the frame
// goes in, where another reader could evict and reuse it.
func (c *Cache) MissInto(n int64, off int, dst []byte, load func(buf []byte) error) error {
	_, err := c.miss(n, load, off, dst, false)
	return err
}

// Modify returns block n's buffer for a writer to patch and stage, or let
// go of, before it unlocks; the writer holds its volume's lock exclusively,
// as for Borrow. A hit returns Borrow's buffer; a miss, the frame load read
// the block into, filled in and still the cache's (or a buffer load itself
// made resident, which wins).
func (c *Cache) Modify(n int64, load func(buf []byte) error) ([]byte, error) {
	if b := c.Borrow(n); b != nil {
		return b, nil
	}
	return c.miss(n, load, 0, nil, true)
}

// miss is the one data-block miss protocol behind MissInto and Modify:
// TakeFrame, load (a frame it fails is left to the collector), copy out,
// fill.
func (c *Cache) miss(n int64, load func(buf []byte) error, off int, dst []byte, keep bool) ([]byte, error) {
	f := TakeFrame()
	if err := load(f); err != nil {
		return nil, err
	}
	copy(dst, f[off:])
	return c.fill(n, f, keep), nil
}

// PutFresh inserts a zeroed frame as block n's dirty buffer and returns
// it: Put(n, make([]byte, FrameSize), true) — the same counters,
// victims and LRU order — except that the buffer is a frame the cache owns
// and recycles once the block is clean again and leaves. It is for a block
// written fresh, whose old contents nobody reads. The caller holds its
// volume's lock exclusively and stages the frame before it unlocks, as
// for Borrow; a later Get disowns it as it does any frame.
func (c *Cache) PutFresh(n int64) []byte {
	s := c.shardOf(n)
	s.mu.Lock()
	e, ok := s.entries[n]
	if ok {
		s.recycleLocked(e)
	}
	f := TakeFrame()
	clear(f)
	if !ok {
		var buf [victimBuf]int64
		c.evicted(s, s.insertLocked(n, f, true, true, buf[:0]))
		return f
	}
	e.data, e.own, e.dirty = f, true, true
	s.moveToFront(e)
	s.stats.Replacements++
	s.mu.Unlock()
	return f
}

// Resident reports whether block n is in the cache. It is a peek, not a
// lookup: no counter, LRU position or trace event moves, so read-ahead can
// ask what the cache holds without changing what a hit or a miss means.
func (c *Cache) Resident(n int64) bool {
	s := c.shardOf(n)
	s.mu.Lock()
	_, ok := s.entries[n]
	s.mu.Unlock()
	return ok
}

// evicted records an insert's capacity evictions from s, the blocks in
// victims, in each of their sinks: the shard's Stats, the registry and the
// trace. The caller holds s.mu, which evicted releases before the registry
// and the trace, as lookedUp does.
func (c *Cache) evicted(s *shard, victims []int64) {
	s.stats.Evicts += int64(len(victims))
	s.mu.Unlock()
	if len(victims) == 0 {
		return
	}
	s.evicts.Add(int64(len(victims)))
	tr := c.tr.Load()
	for _, blk := range victims {
		tr.Buffer(trace.KindEvict, blk)
	}
}

// MarkDirty pins block n until the next commit, reporting whether the
// block was present. Callers that cannot tolerate a miss (a fresh read can
// be evicted immediately when every other resident block is dirty) must
// re-insert the buffer with Put(n, data, true) when this returns false.
func (c *Cache) MarkDirty(n int64) bool {
	s := c.shardOf(n)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[n]; ok {
		e.dirty = true
		return true
	}
	return false
}

// MarkClean unpins block n after a commit has persisted it.
func (c *Cache) MarkClean(n int64) {
	s := c.shardOf(n)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[n]; ok {
		e.dirty = false
	}
}

// Drop removes block n from the cache regardless of its dirty state (used
// when a block is freed or when its contents must be re-read from disk).
func (c *Cache) Drop(n int64) {
	s := c.shardOf(n)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[n]; ok {
		delete(s.entries, n)
		s.releaseLocked(e)
		s.stats.Drops++
	}
}

// Reset empties the cache and hands every clean frame it owns back to the
// process's pool, for whichever volume fills next; a dirty frame is left
// to the collector, as Drop leaves it. Counters are preserved: they are
// lifetime totals, and Reset (unmount, crash simulation) is not an access.
func (c *Cache) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for s.lru.next != &s.lru {
			s.releaseLocked(s.lru.next)
		}
		clear(s.entries)
		s.mu.Unlock()
	}
}

// Len returns the number of resident blocks across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats returns the exact aggregate counters. Each shard is read under its
// lock, so the identities (Lookups == Hits+Misses; resident == Inserts -
// Evicts - Drops) hold in the returned snapshot whenever the cache is
// quiescent, and each shard's contribution is internally consistent even
// when it is not.
func (c *Cache) Stats() Stats {
	var out Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out = out.Add(s.stats)
		s.mu.Unlock()
	}
	return out
}

// victimBuf sizes the stack array Put and Fill collect evicted block
// numbers in. An insert into a shard at capacity evicts one block; only a
// shard that dirty pins pushed over capacity evicts more, and then the
// slice grows.
const victimBuf = 4

// insertLocked adds block n, which is absent, at the front of the LRU and
// brings the shard back within capacity, appending the evicted block
// numbers to victims, which the caller hands to Cache.evicted; own says
// whether data is a cache-owned frame (Fill, PutFresh).
// In a shard exactly at capacity the newcomer takes over the
// least-recently-used clean block's entry, so the steady-state insert
// allocates nothing. A shard over capacity, or one with no clean block,
// inserts and then evicts, which may evict the newcomer itself. Either
// way the victims, their order and the counters are those of inserting
// first and evicting after. A victim's buffer goes back to the pool
// only while its own bit is set: a slice Get handed out, or a buffer a
// caller gave to Put, keeps its bytes. Caller holds s.mu.
func (s *shard) insertLocked(n int64, data []byte, dirty, own bool, victims []int64) []int64 {
	s.stats.Inserts++
	if len(s.entries) == s.cap {
		if v := s.victimLocked(); v != nil {
			delete(s.entries, v.block)
			victims = append(victims, v.block)
			s.recycleLocked(v)
			v.block, v.data, v.dirty, v.own = n, data, dirty, own
			s.moveToFront(v)
			s.entries[n] = v
			return victims
		}
	}
	e := s.free
	if e != nil {
		s.free = e.next
	} else {
		e = new(entry)
	}
	e.block, e.data, e.dirty, e.own = n, data, dirty, own
	s.pushFront(e)
	s.entries[n] = e
	return s.evictLocked(victims)
}

// evictLocked brings the shard back under capacity, appending the evicted
// block numbers to victims. Caller holds s.mu.
func (s *shard) evictLocked(victims []int64) []int64 {
	for len(s.entries) > s.cap {
		v := s.victimLocked()
		if v == nil {
			return victims // everything dirty; let the shard grow until commit
		}
		delete(s.entries, v.block)
		victims = append(victims, v.block)
		s.releaseLocked(v)
	}
	return victims
}

// victimLocked returns the least-recently-used clean entry, or nil when
// every resident block is dirty. Caller holds s.mu.
func (s *shard) victimLocked() *entry {
	for e := s.lru.prev; e != &s.lru; e = e.prev {
		if !e.dirty {
			return e
		}
	}
	return nil
}

// pushFront links e in as the most recently used entry. Caller holds s.mu.
func (s *shard) pushFront(e *entry) {
	e.prev, e.next = &s.lru, s.lru.next
	e.next.prev = e
	s.lru.next = e
}

// moveToFront makes the resident e the most recently used entry. Caller
// holds s.mu.
func (s *shard) moveToFront(e *entry) {
	if s.lru.next == e {
		return
	}
	e.prev.next, e.next.prev = e.next, e.prev
	s.pushFront(e)
}

// releaseLocked unlinks e, which has left the map, from the LRU ring,
// recycles its buffer and puts it on the free list. Caller holds s.mu.
func (s *shard) releaseLocked(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	s.recycleLocked(e)
	*e = entry{next: s.free}
	s.free = e
}

// recycleLocked hands e's buffer to the pool if the cache owns it and it
// is clean. A dirty frame is an image a running transaction staged
// (PutFresh, or Borrow and a dirty Put) and may still hold — Reset, or a
// Drop that does not come through the transaction, does not unstage it —
// so it is left to the garbage collector. Caller holds s.mu.
func (s *shard) recycleLocked(e *entry) {
	if e.own && !e.dirty {
		GiveFrame(e.data)
	}
}
