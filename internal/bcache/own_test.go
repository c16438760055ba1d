package bcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/stat"
	"ironfs/internal/trace"
)

// seqDev stamps every block it reads with the block number and a read
// sequence number, so no two reads leave the same bytes and a buffer that
// a later read reused shows. It allocates nothing and is safe for
// concurrent use.
type seqDev struct {
	raDev
	seq atomic.Uint64
}

func (d *seqDev) ReadBlock(n int64, buf []byte) error {
	binary.LittleEndian.PutUint64(buf, uint64(n))
	binary.LittleEndian.PutUint64(buf[8:], d.seq.Add(1))
	return nil
}

// held is a buffer a caller keeps, with the bytes it must keep.
type held struct {
	blk       int64
	buf, want []byte
}

func (h held) check(t *testing.T, when string) {
	t.Helper()
	if !bytes.Equal(h.buf, h.want) {
		t.Errorf("%s: the buffer held for block %d changed: % x, was % x", when, h.blk, h.buf[:16], h.want[:16])
	}
}

// readOne reads block b the way a file system's Read does: a miss is read
// into a buffer of the caller's, Put, and read ahead of.
func readOne(c *Cache, p *Prefetcher, dev disk.Device, b int64) {
	if c.Resident(b) {
		return
	}
	buf := make([]byte, dev.BlockSize())
	dev.ReadBlock(b, buf)
	c.Put(b, buf, false)
	p.ReadAhead(dev, b, nil)
}

// TestHeldBuffersKeepTheirBytes: the cache recycles only frames it owns
// and never handed out. A slice Get returned — of a block read ahead into
// a cache frame or of one a caller put — and a buffer a caller gave to Put
// keep their bytes while evictions, Drop, Reset, Put replacements and a
// stream of read-ahead fills go on around them.
func TestHeldBuffersKeepTheirBytes(t *testing.T) {
	c := NewSharded(16, 1)
	p := NewPrefetcher(c, 8)
	dev := &seqDev{raDev: raDev{blocks: 1 << 20}}
	var hold []held
	keep := func(blk int64, buf []byte) {
		hold = append(hold, held{blk, buf, bytes.Clone(buf)})
	}
	checkAll := func(when string) {
		t.Helper()
		for _, h := range hold {
			h.check(t, when)
		}
	}
	for lap := int64(0); lap < 4; lap++ {
		base := lap * 1000
		stream(c, p, dev, base, base+100)
		// The stream leaves read-ahead frames resident: hold a few.
		for b := base + 90; b < base+110; b++ {
			if got := c.Get(b); got != nil {
				keep(b, got)
			}
		}
		// A buffer given to Put, held by its giver.
		mine := bytes.Repeat([]byte{0xEE, byte(lap)}, dev.BlockSize()/2)
		c.Put(base+500, mine, false)
		keep(base+500, mine)
		stream(c, p, dev, base+200, base+300)
		checkAll("after evictions")
		// Put over a held block: the held buffer is the old one.
		for _, h := range hold {
			c.Put(h.blk, bytes.Repeat([]byte{0x11}, dev.BlockSize()), false)
			c.Drop(h.blk)
		}
		stream(c, p, dev, base+300, base+400)
		checkAll("after Put and Drop")
		c.Reset()
		stream(c, p, dev, base+400, base+500)
		checkAll("after Reset")
	}
	if len(hold) < 4*5 {
		t.Fatalf("held %d buffers; the streams left too few read-ahead blocks to hold", len(hold))
	}
}

// TestHeldBuffersRace runs streaming readers beside goroutines that hold
// Get slices of the blocks just read ahead of them, on a 16-block cache
// where every fill evicts. Run under -race: a held frame the cache
// recycled is written by a read-ahead read while its holder reads it.
func TestHeldBuffersRace(t *testing.T) {
	c := New(16)
	p := NewPrefetcher(c, 8)
	dev := &seqDev{raDev: raDev{blocks: 1 << 30}}
	const readers, span, laps, want = 4, 500, 20000, 64
	var front [readers]atomic.Int64
	var streamed, holders sync.WaitGroup
	var enough, stopped atomic.Bool
	var checked atomic.Int64
	for r := range int64(readers) {
		streamed.Add(1)
		go func() {
			defer streamed.Done()
			for lap := int64(0); lap < laps && !enough.Load(); lap++ {
				base := (lap*readers + r) * span
				for b := base; b < base+span; b++ {
					readOne(c, p, dev, b)
					front[r].Store(b)
				}
			}
		}()
	}
	for h := range readers {
		holders.Add(1)
		go func() {
			defer holders.Done()
			var hold []held
			for k, n := int64(0), 0; n < want && !stopped.Load(); k++ {
				b := front[h].Load() + 1 + k%8
				if got := c.Get(b); got != nil {
					hold = append(hold, held{b, got, bytes.Clone(got)})
				}
				if len(hold) == 8 {
					for _, x := range hold {
						x.check(t, "while streams run")
					}
					n += len(hold)
					checked.Add(int64(len(hold)))
					hold = hold[:0]
				}
			}
		}()
	}
	go func() {
		streamed.Wait()
		stopped.Store(true)
	}()
	holders.Wait()
	enough.Store(true)
	streamed.Wait()
	if checked.Load() < readers*want {
		t.Fatalf("holders checked %d held buffers, want %d", checked.Load(), readers*want)
	}
}

// lookupRun is one cache with its own registry and tracer, for comparing
// what two ways of driving the same operations leave behind.
type lookupRun struct {
	c   *Cache
	reg *stat.Registry
	tr  *trace.Tracer
}

func newLookupRun(capBlocks, shards int) lookupRun {
	reg := stat.NewRegistry()
	prev := stat.SetDefault(reg)
	defer stat.SetDefault(prev)
	r := lookupRun{c: NewSharded(capBlocks, shards), reg: reg, tr: trace.New(func() int64 { return 0 })}
	r.c.SetTracer(r.tr)
	return r
}

// state renders everything a lookup may move: the Stats, the registry's
// series, the trace events in order and every shard's LRU.
func (r lookupRun) state() string {
	out := fmt.Sprintf("%+v\n%s", r.c.Stats(), r.reg.Snapshot().Render())
	for _, e := range r.tr.Events() {
		out += fmt.Sprintf("%s %d\n", e.Kind, e.Block)
	}
	for i := range r.c.shards {
		out += r.c.shards[i].lruOrder() + "\n"
	}
	return out
}

// inPool reports whether the process's frame pool holds f.
func inPool(f []byte) bool {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	for _, g := range pool.frames {
		if sameBuf(f, g) {
			return true
		}
	}
	return false
}

// TestBorrowCountsAsGet: Borrow is Get for every sink — Stats, the
// registry's series, the trace events, the LRU order and so the victims
// of later inserts — on a seeded mix of fills, puts, fresh inserts,
// lookups and drops. Only ownership differs: a borrowed frame returns to
// the pool when its block leaves the cache, and a frame Get handed out
// never does.
func TestBorrowCountsAsGet(t *testing.T) {
	got, bor := newLookupRun(24, 2), newLookupRun(24, 2)
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 3000; step++ {
		n := rng.Int63n(72)
		switch r := rng.Intn(10); {
		case r < 3:
			got.c.Fill(n, TakeFrame())
			bor.c.Fill(n, TakeFrame())
		case r < 4:
			got.c.PutFresh(n)
			bor.c.PutFresh(n)
		case r < 5:
			dirty := rng.Intn(4) == 0
			got.c.Put(n, make([]byte, FrameSize), dirty)
			bor.c.Put(n, make([]byte, FrameSize), dirty)
		case r < 6:
			got.c.MarkClean(n)
			bor.c.MarkClean(n)
		case r < 7:
			got.c.Drop(n)
			bor.c.Drop(n)
		default:
			a, b := got.c.Get(n), bor.c.Borrow(n)
			if (a == nil) != (b == nil) {
				t.Fatalf("step %d: Get(%d) hit %v, Borrow hit %v", step, n, a != nil, b != nil)
			}
		}
		if step%100 == 0 {
			if a, b := got.state(), bor.state(); a != b {
				t.Fatalf("step %d: after Get\n%s\nafter Borrow\n%s", step, a, b)
			}
		}
	}
	if a, b := got.state(), bor.state(); a != b {
		t.Fatalf("after Get\n%s\nafter Borrow\n%s", a, b)
	}

	for _, r := range []lookupRun{got, bor} {
		r.c.Reset()
		f := TakeFrame()
		r.c.Fill(5, f)
		borrowed := r.c == bor.c
		if borrowed {
			r.c.Borrow(5)
		} else {
			r.c.Get(5)
		}
		r.c.Drop(5)
		if inPool(f) != borrowed {
			t.Errorf("borrowed %v: the dropped frame is in the pool %v, want %v", borrowed, !borrowed, borrowed)
		}
	}
}

// TestRePutKeepsOwnership: a borrowed frame staged dirty — Put of the
// buffer the entry already holds — stays the cache's, and stays out of
// the pool while the entry uses it; once the block is clean and leaves,
// the frame is recycled.
func TestRePutKeepsOwnership(t *testing.T) {
	c := NewSharded(16, 1)
	f := TakeFrame()
	c.Fill(3, f)
	b := c.Borrow(3)
	if replaced := c.Put(3, b, true); replaced != nil {
		t.Fatal("re-putting the resident buffer returned it as replaced")
	}
	if inPool(f) {
		t.Fatal("the resident frame went to the pool while its entry uses it")
	}
	c.MarkClean(3)
	c.Drop(3)
	if !inPool(f) {
		t.Fatal("the re-put frame was not recycled when its block left: it lost its ownership")
	}
}

// TestPutFreshCountsAsPut: PutFresh(n) is Put(n, zeroed block, true) for
// the counters, the trace, the LRU and the victims — over an absent block
// in a full shard, a resident clean frame the cache owns, a buffer Get
// disowned and a dirty entry — and hands back a zeroed frame out of the
// pool. An owned frame it replaces is recycled; a disowned one keeps its
// bytes.
func TestPutFreshCountsAsPut(t *testing.T) {
	setups := []struct {
		name  string
		setup func(c *Cache) []byte // returns the buffer the entry held
	}{
		{"absent, full shard", func(c *Cache) []byte { return nil }},
		{"clean owned frame", func(c *Cache) []byte {
			f := TakeFrame()
			copy(f, "ownframe")
			c.Fill(9, f)
			return f
		}},
		{"disowned buffer", func(c *Cache) []byte {
			f := TakeFrame()
			copy(f, "disowned")
			c.Fill(9, f)
			return c.Get(9)
		}},
		{"dirty entry", func(c *Cache) []byte {
			d := bytes.Repeat([]byte("dirtyblk"), FrameSize/8)
			c.Put(9, d, true)
			return d
		}},
	}
	for _, s := range setups {
		t.Run(s.name, func(t *testing.T) {
			put, fresh := newLookupRun(16, 1), newLookupRun(16, 1)
			var held []byte
			for _, r := range []lookupRun{put, fresh} {
				for b := int64(100); b < 116; b++ {
					r.c.Fill(b, TakeFrame())
				}
				r.c.MarkDirty(100) // the LRU victim is pinned: the next clean one goes
				held = s.setup(r.c)
			}
			want := bytes.Clone(held)
			put.c.Put(9, make([]byte, FrameSize), true)
			f := fresh.c.PutFresh(9)
			if a, b := put.state(), fresh.state(); a != b {
				t.Fatalf("after Put\n%s\nafter PutFresh\n%s", a, b)
			}
			if !bytes.Equal(f, make([]byte, FrameSize)) || inPool(f) || !sameBuf(fresh.c.Borrow(9), f) {
				t.Fatal("PutFresh did not hand back a zeroed frame it keeps as block 9's")
			}
			switch s.name {
			case "clean owned frame":
				if !sameBuf(f, held) && !inPool(held) {
					t.Error("the replaced owned frame was neither reused nor recycled")
				}
			case "disowned buffer", "dirty entry":
				if inPool(held) || !bytes.Equal(held, want) {
					t.Error("a buffer the cache does not own was recycled")
				}
			}
			fresh.c.MarkClean(9)
			fresh.c.Drop(9)
			if !inPool(f) {
				t.Error("the fresh frame was not recycled when its block left")
			}
		})
	}
}

// TestStagedFramesOutliveReset: a dirty frame is an image a transaction
// staged and still holds, so neither Reset nor a Drop of the dirty block
// hands it to a later fill; once its block is clean, leaving the cache
// recycles it.
func TestStagedFramesOutliveReset(t *testing.T) {
	c := NewSharded(16, 1)
	staged := c.PutFresh(1)
	copy(staged, "staged!!")
	dropped := c.PutFresh(2)
	c.Reset()
	c.Drop(2)
	for b := int64(10); b < 40; b++ {
		f := TakeFrame()
		if sameBuf(f, staged) || sameBuf(f, dropped) {
			t.Fatal("a fill was handed a frame a transaction still holds")
		}
		copy(f, "filled!!")
		c.Fill(b, f)
	}
	if string(staged[:8]) != "staged!!" {
		t.Fatalf("the staged frame reads %q after the reset", staged[:8])
	}
	clean := c.PutFresh(3)
	c.MarkClean(3)
	c.Drop(3)
	if !inPool(clean) {
		t.Fatal("a clean frame was not recycled when its block left")
	}
}

// TestCleanFramesGoStraightToThePool: the process's pool is the cache's
// one free list. A clean frame the cache owns goes to it the moment its
// entry lets go of it — by eviction, Drop, replacement, Reset, or a Fill
// that loses to a resident buffer — and is the pool's next TakeFrame. A
// dirty one never goes: it is an image a transaction staged and may still
// hold.
func TestCleanFramesGoStraightToThePool(t *testing.T) {
	routes := []struct {
		name  string
		leave func(c *Cache)
	}{
		{"eviction", func(c *Cache) {
			for b := int64(100); b < 116; b++ {
				c.Put(b, make([]byte, FrameSize), false)
			}
		}},
		{"Drop", func(c *Cache) { c.Drop(7) }},
		{"replacement", func(c *Cache) { c.Put(7, make([]byte, FrameSize), false) }},
		{"Reset", func(c *Cache) { c.Reset() }},
	}
	for _, r := range routes {
		for _, dirty := range []bool{false, true} {
			c := NewSharded(16, 1)
			f := TakeFrame()
			c.Fill(7, f)
			if dirty {
				c.MarkDirty(7)
			}
			r.leave(c)
			next := TakeFrame()
			switch {
			case !dirty && !sameBuf(next, f):
				t.Errorf("%s of a clean block: its frame is not the pool's next", r.name)
			case dirty && (sameBuf(next, f) || inPool(f)):
				t.Errorf("%s of a dirty block: its frame went to the pool", r.name)
			}
			GiveFrame(next)
		}
	}

	c := NewSharded(16, 1)
	c.Put(7, make([]byte, FrameSize), false)
	f := TakeFrame()
	if c.Fill(7, f) {
		t.Fatal("Fill over a resident block inserted")
	}
	if next := TakeFrame(); !sameBuf(next, f) {
		t.Error("the frame of a lost Fill is not the pool's next")
	}
}
