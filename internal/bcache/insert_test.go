package bcache

import (
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ironfs/internal/trace"
)

// refShard is one shard of the reference cache: the insert path as it was
// before inserts recycled a victim's entry. Every insert allocates an entry
// and a list element, pushes it to the front, then evicts clean blocks from
// the back until the shard is within capacity.
type refShard struct {
	cap     int
	entries map[int64]*entry
	lru     *list.List
	stats   Stats
}

// refCache drives refShards with the Cache's shard map and capacities.
type refCache struct{ shards []refShard }

func newRefCache(c *Cache) *refCache {
	r := &refCache{shards: make([]refShard, len(c.shards))}
	for i := range r.shards {
		r.shards[i] = refShard{cap: c.shards[i].cap, entries: map[int64]*entry{}, lru: list.New()}
	}
	return r
}

func (r *refCache) shardOf(n int64) *refShard {
	if n < 0 {
		n = -n
	}
	return &r.shards[int(n)%len(r.shards)]
}

func (s *refShard) insert(n int64, data []byte, dirty bool) []int64 {
	e := &entry{block: n, data: data, dirty: dirty}
	e.elem = s.lru.PushFront(e)
	s.entries[n] = e
	s.stats.Inserts++
	var out []int64
	for len(s.entries) > s.cap {
		var victim *entry
		for el := s.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*entry); !e.dirty {
				victim = e
				break
			}
		}
		if victim == nil {
			return out
		}
		s.lru.Remove(victim.elem)
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
	s.lru.MoveToFront(e.elem)
	s.stats.Hits++
	return e.data
}

func (r *refCache) put(n int64, data []byte, dirty bool) []int64 {
	s := r.shardOf(n)
	if e, ok := s.entries[n]; ok {
		e.data = data
		e.dirty = e.dirty || dirty
		s.lru.MoveToFront(e.elem)
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
		s.lru.Remove(e.elem)
		delete(s.entries, n)
		s.stats.Drops++
	}
}

func (r *refCache) reset() {
	for i := range r.shards {
		r.shards[i].entries = map[int64]*entry{}
		r.shards[i].lru.Init()
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

// lruOrder renders a shard's LRU list front to back, with dirty blocks
// starred, so two caches' recency orders compare as strings.
func lruOrder(l *list.List) string {
	var out []byte
	for el := l.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		out = fmt.Appendf(out, "%d", e.block)
		if e.dirty {
			out = append(out, '*')
		}
		out = append(out, ' ')
	}
	return string(out)
}

// TestInsertMatchesReference drives the Cache and the reference with the
// same seeded mix of Put, Fill, Get, MarkDirty, MarkClean, Drop, Reset and
// commit-like bulk cleans over several shard counts. After every step both
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
			c.Put(n, data, dirty)
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
			if got, exp := lruOrder(c.shards[i].lru), lruOrder(ref.shards[i].lru); got != exp {
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
// blocks, and the next block number no shard holds.
func fullCache(data []byte) (*Cache, int64) {
	c := NewSharded(64, 4)
	n := int64(0)
	for ; n < 64; n++ {
		c.Fill(n, data)
	}
	return c, n
}

// TestFullShardInsertAllocs: an insert into a shard at capacity recycles
// its clean victim's entry and list element, so neither Fill nor Put
// allocates.
func TestFullShardInsertAllocs(t *testing.T) {
	data := make([]byte, 4096)
	c, n := fullCache(data)
	if got := testing.AllocsPerRun(1000, func() { c.Fill(n, data); n++ }); got != 0 {
		t.Errorf("Fill into a full shard: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() { c.Put(n, data, false); n++ }); got != 0 {
		t.Errorf("Put into a full shard: %v allocs, want 0", got)
	}
	if s := c.Stats(); s.Inserts-s.Evicts != int64(c.Len()) || c.Len() != 64 {
		t.Errorf("after recycling inserts: Len %d, %+v", c.Len(), s)
	}
}

// BenchmarkFullShardInsert prices one Fill into a shard at capacity: the
// cold-read miss path's cache cost, victim eviction included.
func BenchmarkFullShardInsert(b *testing.B) {
	data := make([]byte, 4096)
	c, n := fullCache(data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(n, data)
		n++
	}
}
