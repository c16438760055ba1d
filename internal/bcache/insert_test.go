package bcache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ironfs/internal/trace"
)

// refShard is one shard of the reference cache: the insert path as it was
// before inserts recycled a victim's entry. Every insert allocates an
// entry, pushes it to the front, then evicts clean blocks from the back
// until the shard is within capacity. Its LRU is a plain slice.
type refShard struct {
	cap     int
	entries map[int64]*refEntry
	lru     []*refEntry // front = most recent
	stats   Stats
}

type refEntry struct {
	block int64
	data  []byte
	dirty bool
}

// refCache drives refShards with the Cache's shard map and capacities.
type refCache struct{ shards []refShard }

func newRefCache(c *Cache) *refCache {
	r := &refCache{shards: make([]refShard, len(c.shards))}
	for i := range r.shards {
		r.shards[i] = refShard{cap: c.shards[i].cap, entries: map[int64]*refEntry{}}
	}
	return r
}

func (r *refCache) shardOf(n int64) *refShard {
	if n < 0 {
		n = -n
	}
	return &r.shards[int(n)%len(r.shards)]
}

func (s *refShard) remove(e *refEntry) {
	i := slices.Index(s.lru, e)
	s.lru = slices.Delete(s.lru, i, i+1)
}

func (s *refShard) moveToFront(e *refEntry) {
	s.remove(e)
	s.lru = slices.Insert(s.lru, 0, e)
}

func (s *refShard) insert(n int64, data []byte, dirty bool) []int64 {
	e := &refEntry{block: n, data: data, dirty: dirty}
	s.lru = slices.Insert(s.lru, 0, e)
	s.entries[n] = e
	s.stats.Inserts++
	var out []int64
	for len(s.entries) > s.cap {
		var victim *refEntry
		for k := len(s.lru) - 1; k >= 0; k-- {
			if !s.lru[k].dirty {
				victim = s.lru[k]
				break
			}
		}
		if victim == nil {
			return out
		}
		s.remove(victim)
		delete(s.entries, victim.block)
		s.stats.Evicts++
		out = append(out, victim.block)
	}
	return out
}

func (r *refCache) get(n int64) []byte {
	s := r.shardOf(n)
	s.stats.Lookups++
	e, ok := s.entries[n]
	if !ok {
		s.stats.Misses++
		return nil
	}
	s.moveToFront(e)
	s.stats.Hits++
	return e.data
}

func (r *refCache) put(n int64, data []byte, dirty bool) []int64 {
	s := r.shardOf(n)
	if e, ok := s.entries[n]; ok {
		e.data = data
		e.dirty = e.dirty || dirty
		s.moveToFront(e)
		s.stats.Replacements++
		return nil
	}
	return s.insert(n, data, dirty)
}

func (r *refCache) fill(n int64, data []byte) (bool, []int64) {
	s := r.shardOf(n)
	if _, ok := s.entries[n]; ok {
		return false, nil
	}
	return true, s.insert(n, data, false)
}

func (r *refCache) setDirty(n int64, dirty bool) bool {
	if e, ok := r.shardOf(n).entries[n]; ok {
		e.dirty = dirty
		return true
	}
	return false
}

func (r *refCache) drop(n int64) {
	s := r.shardOf(n)
	if e, ok := s.entries[n]; ok {
		s.remove(e)
		delete(s.entries, n)
		s.stats.Drops++
	}
}

func (r *refCache) reset() {
	for i := range r.shards {
		r.shards[i].entries = map[int64]*refEntry{}
		r.shards[i].lru = nil
	}
}

func (r *refCache) statsAndLen() (Stats, int) {
	var out Stats
	n := 0
	for i := range r.shards {
		out = out.Add(r.shards[i].stats)
		n += len(r.shards[i].entries)
	}
	return out, n
}

// appendLRU renders one block of a recency order, starred when dirty, so
// two caches' orders compare as strings.
func appendLRU(out []byte, block int64, dirty bool) []byte {
	out = fmt.Appendf(out, "%d", block)
	if dirty {
		out = append(out, '*')
	}
	return append(out, ' ')
}

// lruOrder renders the shard's LRU ring front to back.
func (s *shard) lruOrder() string {
	var out []byte
	for e := s.lru.next; e != &s.lru; e = e.next {
		out = appendLRU(out, e.block, e.dirty)
	}
	return string(out)
}

// lruOrder renders the reference shard's LRU front to back.
func (s *refShard) lruOrder() string {
	var out []byte
	for _, e := range s.lru {
		out = appendLRU(out, e.block, e.dirty)
	}
	return string(out)
}

// TestInsertMatchesReference drives the Cache and the reference with the
// same seeded mix of Put, PutFresh (a dirty Put for the reference), Fill,
// Get, MarkDirty, MarkClean, Drop, Reset and commit-like bulk cleans over
// several shard counts. After every step both
// must agree on the victims (the Cache's come from its evict trace events,
// in order), on what Get returns, on Stats, on Len and on every shard's
// recency order. The run must also reach the three insert cases: a shard
// exactly at capacity, a shard dirty pins pushed over capacity, and a
// newcomer evicted at once because every other block is dirty.
func TestInsertMatchesReference(t *testing.T) {
	for _, cfg := range []struct{ capBlocks, shards int }{{16, 1}, {24, 2}, {40, 3}, {64, 8}} {
		t.Run(fmt.Sprintf("cap%d_shards%d", cfg.capBlocks, cfg.shards), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				runInsertMix(t, cfg.capBlocks, cfg.shards, seed)
			}
		})
	}
}

func runInsertMix(t *testing.T, capBlocks, shards int, seed int64) {
	c := NewSharded(capBlocks, shards)
	tr := trace.New(func() int64 { return 0 })
	c.SetTracer(tr)
	ref := newRefCache(c)
	rng := rand.New(rand.NewSource(seed))
	span := int64(3 * capBlocks)
	pinned := map[int64]bool{}
	var atCap, overCap, selfEvicted int
	// evictions returns the Cache's evict events since the last step.
	evictions := func() []int64 {
		var out []int64
		for _, e := range tr.Events() {
			if e.Kind == trace.KindEvict {
				out = append(out, e.Block)
			}
		}
		tr.Reset()
		return out
	}
	// classify reports whether a Put or Fill of n inserts, counting which
	// insert case it hits.
	classify := func(n int64) bool {
		s := c.shardOf(n)
		if _, ok := s.entries[n]; ok {
			return false
		}
		switch {
		case len(s.entries) == s.cap:
			atCap++
		case len(s.entries) > s.cap:
			overCap++
		}
		return true
	}
	for step := 0; step < 4000; step++ {
		// Every other stretch of 500 steps pins: most puts are dirty and
		// nothing commits, so shards fill with dirty blocks and grow.
		pinning := step/500%2 == 1
		n := rng.Int63n(span)
		data := []byte{byte(step)}
		var op string
		var want []int64
		inserted := false
		switch r := rng.Intn(100); {
		case r < 30:
			odds := 1 // in ten
			if pinning {
				odds = 8
			}
			dirty := rng.Intn(10) < odds
			op = fmt.Sprintf("Put(%d, dirty=%v)", n, dirty)
			inserted = classify(n)
			if dirty && rng.Intn(2) == 0 {
				// A fresh frame is a dirty Put of a zeroed block.
				op = fmt.Sprintf("PutFresh(%d)", n)
				data = c.PutFresh(n)
			} else {
				c.Put(n, data, dirty)
			}
			want = ref.put(n, data, dirty)
			if dirty {
				pinned[n] = true
			}
		case r < 55:
			op = fmt.Sprintf("Fill(%d)", n)
			inserted = classify(n)
			got := c.Fill(n, data)
			ok, victims := ref.fill(n, data)
			if got != ok {
				t.Fatalf("seed %d step %d %s: Fill = %v, reference %v", seed, step, op, got, ok)
			}
			want = victims
		case r < 75:
			op = fmt.Sprintf("Get(%d)", n)
			got, exp := c.Get(n), ref.get(n)
			if (got == nil) != (exp == nil) || (got != nil && &got[0] != &exp[0]) {
				t.Fatalf("seed %d step %d %s: got %v, reference %v", seed, step, op, got, exp)
			}
		case r < 85:
			op = fmt.Sprintf("MarkDirty(%d)", n)
			if got, exp := c.MarkDirty(n), ref.setDirty(n, true); got != exp {
				t.Fatalf("seed %d step %d %s = %v, reference %v", seed, step, op, got, exp)
			}
			pinned[n] = true
		case r < 90:
			op = fmt.Sprintf("MarkClean(%d)", n)
			c.MarkClean(n)
			ref.setDirty(n, false)
		case r < 95:
			op = fmt.Sprintf("Drop(%d)", n)
			c.Drop(n)
			ref.drop(n)
		case r < 99 && !pinning:
			// A commit: every pinned block goes clean at once, which
			// leaves a shard the pins had grown over capacity.
			op = "commit"
			blocks := make([]int64, 0, len(pinned))
			for b := range pinned {
				blocks = append(blocks, b)
			}
			slices.Sort(blocks)
			for _, b := range blocks {
				c.MarkClean(b)
				ref.setDirty(b, false)
			}
			clear(pinned)
		case r < 99:
			op = "idle"
		default:
			op = "Reset"
			c.Reset()
			ref.reset()
			clear(pinned)
		}
		if got := evictions(); !slices.Equal(got, want) {
			t.Fatalf("seed %d step %d %s: evicted %v, reference %v", seed, step, op, got, want)
		}
		if inserted && slices.Contains(want, n) {
			selfEvicted++
		}
		wantStats, wantLen := ref.statsAndLen()
		if got := c.Stats(); got != wantStats {
			t.Fatalf("seed %d step %d %s: Stats %+v, reference %+v", seed, step, op, got, wantStats)
		}
		if got := c.Len(); got != wantLen {
			t.Fatalf("seed %d step %d %s: Len %d, reference %d", seed, step, op, got, wantLen)
		}
		for i := range c.shards {
			if got, exp := c.shards[i].lruOrder(), ref.shards[i].lruOrder(); got != exp {
				t.Fatalf("seed %d step %d %s: shard %d LRU %s, reference %s", seed, step, op, i, got, exp)
			}
		}
	}
	if atCap == 0 || overCap == 0 || selfEvicted == 0 {
		t.Errorf("seed %d: inserts at capacity %d, over capacity %d, newcomer evicted at once %d; want all three reached",
			seed, atCap, overCap, selfEvicted)
	}
}

// fullCache returns a cache whose every shard is at capacity with clean
// blocks filled into cache-owned frames, one of them evicted, so a frame
// circulates, and fill, which fills the next block no shard holds the way
// ReadAhead does and returns its number.
func fullCache() (*Cache, func() int64) {
	c := NewSharded(64, 4)
	n := int64(0)
	fill := func() int64 {
		c.Fill(n, TakeFrame())
		n++
		return n - 1
	}
	for n < 64+4 {
		fill()
	}
	return c, fill
}

// TestFullShardInsertAllocs: an insert into a shard at capacity recycles
// its clean victim's entry, and the victim's frame when the cache owns
// it, so neither Fill nor Put allocates. Refilling a shard that Reset
// emptied or Drop thinned takes entries from its free list and frames
// from the pool and allocates nothing either.
func TestFullShardInsertAllocs(t *testing.T) {
	c, fill := fullCache()
	if got := testing.AllocsPerRun(1000, func() { fill() }); got != 0 {
		t.Errorf("Fill into a full shard: %v allocs, want 0", got)
	}
	refill := testing.AllocsPerRun(10, func() {
		c.Reset()
		for i := 0; i < 64; i++ {
			fill()
		}
	})
	if refill != 0 {
		t.Errorf("refilling 64 blocks after Reset: %v allocs, want 0", refill)
	}
	// fill numbers blocks in sequence, so the last 16 filled are resident.
	last := fill()
	refill = testing.AllocsPerRun(100, func() {
		for b := last - 15; b <= last; b++ {
			c.Drop(b)
		}
		for i := 0; i < 16; i++ {
			last = fill()
		}
	})
	if refill != 0 || c.Stats().Drops == 0 {
		t.Errorf("refilling 16 blocks after Drop: %v allocs (%+v), want 0", refill, c.Stats())
	}
	data := make([]byte, 4096)
	n := int64(-1)
	if got := testing.AllocsPerRun(1000, func() { c.Put(n, data, false); n-- }); got != 0 {
		t.Errorf("Put into a full shard: %v allocs, want 0", got)
	}
	if c.Len() != 64 {
		t.Errorf("after recycling inserts: Len %d, want 64", c.Len())
	}
}

// BenchmarkFullShardInsert prices one Fill into a shard at capacity: the
// cold-read miss path's cache cost, victim eviction included.
func BenchmarkFullShardInsert(b *testing.B) {
	_, fill := fullCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
	}
}
