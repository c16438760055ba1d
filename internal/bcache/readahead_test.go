package bcache

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/trace"
)

// TestGetIntoZeroAlloc proves the hot read path allocates nothing: a
// resident block is copied straight into the caller's buffer.
func TestGetIntoZeroAlloc(t *testing.T) {
	c := New(64)
	data := bytes.Repeat([]byte{0xAB}, 4096)
	c.Put(7, data, false)
	dst := make([]byte, 512)
	allocs := testing.AllocsPerRun(100, func() {
		if !c.GetInto(7, 128, dst) {
			t.Fatal("resident block missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("GetInto allocated %.1f times per call, want 0", allocs)
	}
	if !bytes.Equal(dst, data[128:640]) {
		t.Fatal("GetInto copied wrong bytes")
	}
}

// TestGetIntoSemantics: offset copies, miss on absent blocks, miss on
// out-of-range requests, and accounting identical to Get's.
func TestGetIntoSemantics(t *testing.T) {
	c := New(64)
	blk := make([]byte, 4096)
	for i := range blk {
		blk[i] = byte(i)
	}
	c.Put(3, blk, false)
	dst := make([]byte, 16)
	if !c.GetInto(3, 100, dst) {
		t.Fatal("hit expected")
	}
	if !bytes.Equal(dst, blk[100:116]) {
		t.Fatalf("offset copy wrong: %v", dst)
	}
	if c.GetInto(4, 0, dst) {
		t.Fatal("absent block must miss")
	}
	if c.GetInto(3, 4090, dst) {
		t.Fatal("out-of-range request must miss")
	}
	st := c.Stats()
	if st.Lookups != 3 || st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 3 lookups / 1 hit / 2 misses", st)
	}
}

// raDev is a device for read-ahead tests: block n reads as bytes of n's low
// byte, reads of the blocks in fail return an error, and it counts reads.
// It allocates nothing.
type raDev struct {
	blocks int64
	fail   map[int64]bool
	reads  atomic.Int64
}

func (d *raDev) ReadBlock(n int64, buf []byte) error {
	d.reads.Add(1)
	if d.fail[n] {
		return disk.ErrIO
	}
	buf[0] = byte(n)
	for i := 1; i < len(buf); i *= 2 {
		copy(buf[i:], buf[:i])
	}
	return nil
}
func (d *raDev) WriteBlock(int64, []byte) error   { return nil }
func (d *raDev) WriteBatch([]disk.Request) error  { return nil }
func (d *raDev) Barrier() error                   { return nil }
func (d *raDev) BlockSize() int                   { return FrameSize }
func (d *raDev) NumBlocks() int64                 { return d.blocks }
func (d *raDev) Close() error                     { return nil }
func newRADev(blocks int64, fail ...int64) *raDev { return &raDev{blocks: blocks, fail: set(fail)} }

func set(blks []int64) map[int64]bool {
	m := map[int64]bool{}
	for _, b := range blks {
		m[b] = true
	}
	return m
}

// stream reads blocks [from, to) the way a file system's Read does: a hit
// costs nothing, a miss is filled and then read ahead of. It returns each
// miss with the number of blocks its read-ahead cached.
func stream(c *Cache, p *Prefetcher, dev disk.Device, from, to int64) [][2]int64 {
	var out [][2]int64
	for b := from; b < to; b++ {
		if c.Resident(b) {
			continue
		}
		c.Put(b, make([]byte, dev.BlockSize()), false)
		out = append(out, [2]int64{b, int64(p.ReadAhead(dev, b, nil))})
	}
	return out
}

// TestPrefetcherSequentialDetect: the prefetch size is read off the
// resident blocks just before the miss — none, then the largest power of
// two not above their count, the run ending at the first absent block and
// at the window.
func TestPrefetcherSequentialDetect(t *testing.T) {
	c := New(256)
	p := NewPrefetcher(c, 8)
	put := func(blks ...int64) {
		for _, b := range blks {
			c.Put(b, []byte{0}, false)
		}
	}
	if got := p.ahead(100); got != 0 {
		t.Fatalf("no history: ahead = %d, want 0", got)
	}
	put(101, 102) // after the miss, not before it
	if got := p.ahead(100); got != 0 {
		t.Fatalf("blocks after the miss counted as history: ahead = %d, want 0", got)
	}
	for _, tc := range []struct {
		add  []int64
		want int
	}{
		{[]int64{99}, 1},
		{[]int64{98}, 2},
		{[]int64{97}, 2},
		{[]int64{96}, 4},
		{[]int64{94}, 4}, // 95 absent: the history is 96..99
		{[]int64{95}, 4}, // 94..99: six
		{[]int64{93, 92}, 8},
		{[]int64{80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90, 91}, 8}, // capped at the window
	} {
		put(tc.add...)
		if got := p.ahead(100); got != tc.want {
			t.Fatalf("after adding %v: ahead = %d, want %d", tc.add, got, tc.want)
		}
	}
	if got := p.ahead(0); got != 0 {
		t.Fatalf("block 0 has no history: ahead = %d", got)
	}
	put(0)
	if got := p.ahead(1); got != 1 {
		t.Fatalf("history at the device start: ahead(1) = %d, want 1", got)
	}
}

// TestPrefetcherRampCap: one stream ramps 1, 2, 4, 8 from its second miss and
// holds at the window; a window that is not a power of two is reached once
// the history fills it.
func TestPrefetcherRampCap(t *testing.T) {
	for _, tc := range []struct {
		window int
		want   [][2]int64
	}{
		{8, [][2]int64{{100, 0}, {101, 1}, {103, 2}, {106, 4}, {111, 8}, {120, 8}, {129, 8}}},
		{4, [][2]int64{{100, 0}, {101, 1}, {103, 2}, {106, 4}, {111, 4}, {116, 4}, {121, 4}, {126, 4}}},
		{6, [][2]int64{{100, 0}, {101, 1}, {103, 2}, {106, 6}, {113, 6}, {120, 6}, {127, 6}}},
	} {
		c := New(1024)
		got := stream(c, NewPrefetcher(c, tc.window), newRADev(4096), 100, 130)
		if !slices.Equal(got, tc.want) {
			t.Errorf("window %d: misses and firings %v, want %v", tc.window, got, tc.want)
		}
	}
}

// TestPrefetcherInterleaved is the case the per-volume run detector failed:
// sixteen streams read round-robin, so consecutive misses never touch
// adjacent blocks, and each stream still ramps exactly as it would alone.
func TestPrefetcherInterleaved(t *testing.T) {
	const streams, length = 16, 30
	c := New(2048)
	p := NewPrefetcher(c, 8)
	dev := newRADev(4096)
	got := make([][][2]int64, streams)
	for off := int64(0); off < length; off++ {
		for s := range got {
			base := int64(100 + 200*s)
			got[s] = append(got[s], stream(c, p, dev, base+off, base+off+1)...)
		}
	}
	for s := range got {
		base := int64(100 + 200*s)
		var want [][2]int64
		for _, m := range [][2]int64{{0, 0}, {1, 1}, {3, 2}, {6, 4}, {11, 8}, {20, 8}, {29, 8}} {
			want = append(want, [2]int64{base + m[0], m[1]})
		}
		if !slices.Equal(got[s], want) {
			t.Fatalf("stream %d: misses and firings %v, want %v", s, got[s], want)
		}
	}
}

// TestPrefetcherStops: the window ends short of the first resident block —
// whose buffer, dirty here, is left alone — of the first block the device
// fails, and of the first block accept refuses; none of those is cached,
// and nothing past them is read.
func TestPrefetcherStops(t *testing.T) {
	newStream := func() (*Cache, *Prefetcher) {
		c := New(256)
		for b := int64(92); b <= 100; b++ {
			c.Put(b, []byte{0}, false)
		}
		return c, NewPrefetcher(c, 8)
	}

	c, p := newStream()
	dirty := []byte("uncommitted")
	c.Put(104, dirty, true)
	dev := newRADev(4096)
	if got := p.ReadAhead(dev, 100, nil); got != 3 || dev.reads.Load() != 3 {
		t.Errorf("resident 104: cached %d blocks in %d reads, want 3 in 3", got, dev.reads.Load())
	}
	if buf := c.Get(104); !bytes.Equal(buf, dirty) {
		t.Errorf("resident dirty 104 now reads %q, want %q", buf, dirty)
	}
	if c.Resident(105) {
		t.Error("read-ahead went past the resident block")
	}

	c, p = newStream()
	dev = newRADev(4096, 103)
	if got := p.ReadAhead(dev, 100, nil); got != 2 || dev.reads.Load() != 3 {
		t.Errorf("failing 103: cached %d blocks in %d reads, want 2 in 3", got, dev.reads.Load())
	}
	if c.Resident(103) || c.Resident(104) {
		t.Error("the failed block, or one past it, was cached")
	}

	c, p = newStream()
	dev = newRADev(4096)
	var offered []int64
	accept := func(blk int64, buf []byte) bool {
		offered = append(offered, blk)
		return buf[0] != 105
	}
	if got := p.ReadAhead(dev, 100, accept); got != 4 || !slices.Equal(offered, []int64{101, 102, 103, 104, 105}) {
		t.Errorf("accept refusing 105: cached %d blocks, offered %v; want 4 and 101..105", got, offered)
	}
	if c.Resident(105) || c.Resident(106) {
		t.Error("the refused block, or one past it, was cached")
	}

	c, p = newStream()
	if got := p.ReadAhead(newRADev(103), 100, nil); got != 2 {
		t.Errorf("device of 103 blocks: cached %d, want 2", got)
	}
}

// TestPrefetcherConcurrent: readers streaming on one cache at once —
// each its own region, and all of them one shared region — race their
// read-ahead against each other's demand fills and prefetches. Run under
// -race. Whatever wins, a resident block holds its own bytes and the
// cache's counters still add up.
func TestPrefetcherConcurrent(t *testing.T) {
	c := New(512)
	p := NewPrefetcher(c, 8)
	dev := newRADev(1 << 16)
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for _, base := range []int64{int64(1000 * (r + 1)), 100} {
				for b := base; b < base+200; b++ {
					if c.Resident(b) {
						continue
					}
					buf := make([]byte, dev.BlockSize())
					if err := dev.ReadBlock(b, buf); err != nil {
						t.Error(err)
						return
					}
					c.Fill(b, buf)
					p.ReadAhead(dev, b, nil)
				}
			}
		}(r)
	}
	wg.Wait()
	for b := int64(0); b < 1<<16; b++ {
		if c.Resident(b) {
			if got := c.Get(b); got[0] != byte(b) || got[len(got)-1] != byte(b) {
				t.Fatalf("block %d holds bytes of block %d", b, got[0])
			}
		}
	}
	if st := c.Stats(); int64(c.Len()) != st.Inserts-st.Evicts-st.Drops || st.Replacements != 0 {
		t.Fatalf("stats %+v with %d resident", st, c.Len())
	}
}

// TestPrefetcherDisabled: a window of zero or less gives a nil Prefetcher,
// which fetches nothing and touches no device.
func TestPrefetcherDisabled(t *testing.T) {
	c := New(64)
	for _, w := range []int{0, -1} {
		if p := NewPrefetcher(c, w); p != nil {
			t.Fatalf("window %d gave a live prefetcher", w)
		}
	}
	c.Put(99, []byte{0}, false)
	var p *Prefetcher
	dev := newRADev(4096)
	if got := p.ReadAhead(dev, 100, nil); got != 0 || dev.reads.Load() != 0 {
		t.Fatalf("nil prefetcher cached %d blocks in %d reads", got, dev.reads.Load())
	}
}

// TestWriteBehindPinning: dirty blocks are the cache's write-behind set —
// they are never evicted, survive capacity pressure until MarkClean, and
// DirtyLen tracks them exactly.
func TestWriteBehindPinning(t *testing.T) {
	c := NewSharded(16, 1)
	for i := int64(0); i < 8; i++ {
		c.Put(i, make([]byte, 64), true)
	}
	if got := c.DirtyLen(); got != 8 {
		t.Fatalf("DirtyLen = %d, want 8", got)
	}
	// Capacity pressure from clean blocks must evict around, never
	// through, the dirty set.
	for i := int64(100); i < 140; i++ {
		c.Put(i, make([]byte, 64), false)
	}
	for i := int64(0); i < 8; i++ {
		if c.Get(i) == nil {
			t.Fatalf("dirty block %d was evicted before MarkClean", i)
		}
	}
	for i := int64(0); i < 8; i++ {
		c.MarkClean(i)
	}
	if got := c.DirtyLen(); got != 0 {
		t.Fatalf("DirtyLen after MarkClean = %d, want 0", got)
	}
	// Unpinned, they are evictable again.
	for i := int64(200); i < 240; i++ {
		c.Put(i, make([]byte, 64), false)
	}
	evicted := false
	for i := int64(0); i < 8; i++ {
		if c.Get(i) == nil {
			evicted = true
		}
	}
	if !evicted {
		t.Fatal("clean ex-dirty blocks were never evicted under pressure")
	}
}

// TestFillNeverReplaces: Fill inserts an absent block clean, and leaves a
// resident one — dirty or clean — exactly as it was.
func TestFillNeverReplaces(t *testing.T) {
	c := New(16)
	c.Put(1, []byte("dirty"), true)
	c.Put(2, []byte("clean"), false)
	if c.Fill(1, []byte("stale")) || c.Fill(2, []byte("stale")) {
		t.Fatal("Fill reported replacing a resident block")
	}
	if got := c.Get(1); string(got) != "dirty" {
		t.Fatalf("dirty block reads %q after Fill", got)
	}
	if got := c.Get(2); string(got) != "clean" {
		t.Fatalf("clean block reads %q after Fill", got)
	}
	if c.DirtyLen() != 1 {
		t.Fatalf("DirtyLen = %d after Fill, want 1", c.DirtyLen())
	}
	if !c.Fill(3, []byte("fresh")) || string(c.Get(3)) != "fresh" {
		t.Fatal("Fill did not insert an absent block")
	}
	if st := c.Stats(); st.Inserts != 3 || st.Replacements != 0 {
		t.Fatalf("stats = %+v, want 3 inserts and no replacement", st)
	}
	// Filled blocks are clean: pressure evicts them.
	for i := int64(100); i < 200; i++ {
		c.Put(i, []byte{0}, false)
	}
	if c.Resident(3) {
		t.Fatal("filled block pinned like a dirty one")
	}
}

// TestResidentIsAPeek: Resident moves no counter, no LRU position and
// emits no trace event.
func TestResidentIsAPeek(t *testing.T) {
	c := NewSharded(16, 1)
	tr := trace.New(func() int64 { return 0 })
	c.SetTracer(tr)
	for i := int64(0); i < 16; i++ {
		c.Put(i, []byte{0}, false)
	}
	before, events := c.Stats(), len(tr.Events())
	if !c.Resident(0) || c.Resident(99) {
		t.Fatal("Resident answered wrongly")
	}
	if c.Stats() != before || len(tr.Events()) != events {
		t.Fatalf("Resident moved the counters (%+v -> %+v) or traced (%d -> %d events)",
			before, c.Stats(), events, len(tr.Events()))
	}
	// Block 0 is still least recently used: the next insert evicts it.
	c.Put(16, []byte{0}, false)
	if c.Resident(0) {
		t.Fatal("Resident refreshed the block's LRU position")
	}
}

// TestPrefetcherAllocs gates the cost: detecting a stream allocates
// nothing, and once the frames of evicted read-ahead blocks circulate, a
// firing reads into them and allocates nothing either.
func TestPrefetcherAllocs(t *testing.T) {
	const window = 8
	dev := newRADev(1 << 20)
	c, next, fire := steadyStream(dev, window)
	p := NewPrefetcher(c, window)
	if a := testing.AllocsPerRun(100, func() { _ = p.ahead(next) }); a != 0 {
		t.Fatalf("detection allocated %.1f times per miss, want 0", a)
	}
	fired := 0
	firing := testing.AllocsPerRun(100, func() { fired = fire() })
	if fired != window || firing != 0 {
		t.Fatalf("a firing of %d blocks allocated %.1f times; want %d blocks and 0 allocations", fired, firing, window)
	}
}

// steadyStream returns a one-shard cache of 64 blocks whose every block
// came in through read-ahead, the next demand miss of the stream that
// filled it, and fire, which takes that miss — a Put of a buffer allocated
// up front — and the window after it, returning how many blocks the window
// cached.
func steadyStream(dev disk.Device, window int) (*Cache, int64, func() int) {
	c := NewSharded(64, 1)
	p := NewPrefetcher(c, window)
	bufs := make([][]byte, 64)
	for i := range bufs {
		bufs[i] = make([]byte, dev.BlockSize())
	}
	c.Put(0, bufs[0], false)
	next := int64(1)
	fire := func() int {
		c.Put(next, bufs[next%64], false)
		got := p.ReadAhead(dev, next, nil)
		next += int64(got) + 1
		return got
	}
	// Round the cache until the frames the laps evict keep up with the
	// ones the next firing takes.
	for next < 8*64 {
		fire()
	}
	return c, next, fire
}

// BenchmarkReadAheadSteady prices one read-ahead firing of 8 blocks into a
// full cache whose evicted frames circulate.
func BenchmarkReadAheadSteady(b *testing.B) {
	_, _, fire := steadyStream(newRADev(1<<40), 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fire()
	}
}
