package bcache

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

var errLoad = errors.New("load failed")

// refModify and refMissInto are the miss protocols the file systems wrote
// out by hand before Modify and MissInto, the references for what the
// cache's sinks see: a read-for-modify looked the block up with Get and
// put a buffer of its own clean on a miss; Read's miss read into a frame,
// copied out, then filled it.
func refModify(c *Cache, n int64, load func([]byte) error) ([]byte, error) {
	if b := c.Get(n); b != nil {
		return b, nil
	}
	buf := make([]byte, FrameSize)
	if err := load(buf); err != nil {
		return nil, err
	}
	c.Put(n, buf, false)
	return buf, nil
}

func refMissInto(c *Cache, n int64, off int, dst []byte, load func([]byte) error) error {
	f := TakeFrame()
	if err := load(f); err != nil {
		return err
	}
	copy(dst, f[off:])
	c.Fill(n, f)
	return nil
}

// stamp returns a load that writes n and seq into its buffer, or fails.
func stamp(n int64, seq int, fail bool) func([]byte) error {
	return func(buf []byte) error {
		if fail {
			return errLoad
		}
		clear(buf)
		buf[0], buf[1] = byte(n), byte(seq)
		return nil
	}
}

// TestMissPathsCountAsReference: Modify and MissInto are the hand-written
// protocols they replaced for every sink — Stats, the registry's series,
// the trace events, the LRU order and so the victims — on a seeded mix of
// misses (some failing), hits, writers staging what Modify returned or
// letting it go, dirty puts that leave shards with no clean block, commits
// and drops. Only ownership differs, and what Modify hands out never sits
// in the pool while its caller may still patch it.
func TestMissPathsCountAsReference(t *testing.T) {
	ref, got := newLookupRun(24, 2), newLookupRun(24, 2)
	rng := rand.New(rand.NewSource(53))
	dst, want := make([]byte, 5), make([]byte, 5)
	for step := 0; step < 4000; step++ {
		n := rng.Int63n(60)
		fail := rng.Intn(8) == 0
		switch r := rng.Intn(12); {
		case r < 4:
			a, aerr := refModify(ref.c, n, stamp(n, step, fail))
			b, berr := got.c.Modify(n, stamp(n, step, fail))
			if (aerr == nil) != (berr == nil) || (a == nil) != (b == nil) || !bytes.Equal(a, b) {
				t.Fatalf("step %d: Modify(%d) = %x, %v; the reference %x, %v", step, n, b, berr, a, aerr)
			}
			if b != nil && inPool(b) {
				t.Fatalf("step %d: Modify(%d) handed out a frame in the pool", step, n)
			}
			if b != nil && rng.Intn(3) > 0 {
				// The writer patches and stages it.
				a[2], b[2] = byte(step), byte(step)
				ref.c.Put(n, a, true)
				got.c.Put(n, b, true)
			}
		case r < 7:
			off := rng.Intn(4)
			aerr := refMissInto(ref.c, n, off, want, stamp(n, step, fail))
			berr := got.c.MissInto(n, off, dst, stamp(n, step, fail))
			if (aerr == nil) != (berr == nil) || aerr == nil && !bytes.Equal(dst, want) {
				t.Fatalf("step %d: MissInto(%d) = %x, %v; the reference %x, %v", step, n, dst, berr, want, aerr)
			}
		case r < 9:
			dirty := rng.Intn(3) > 0
			ref.c.Put(n, make([]byte, FrameSize), dirty)
			got.c.Put(n, make([]byte, FrameSize), dirty)
		case r < 10:
			// A commit unpins a run of blocks.
			for b := n; b < n+12; b++ {
				ref.c.MarkClean(b)
				got.c.MarkClean(b)
			}
		case r < 11:
			ref.c.Drop(n)
			got.c.Drop(n)
		default:
			a, b := ref.c.Borrow(n), got.c.Borrow(n)
			if !bytes.Equal(a, b) {
				t.Fatalf("step %d: block %d holds %x, the reference %x", step, n, b, a)
			}
		}
		if step%100 == 0 {
			if a, b := ref.state(), got.state(); a != b {
				t.Fatalf("step %d: reference\n%s\nMissInto and Modify\n%s", step, a, b)
			}
		}
	}
	if a, b := ref.state(), got.state(); a != b {
		t.Fatalf("reference\n%s\nMissInto and Modify\n%s", a, b)
	}
	if s := got.c.Stats(); s.Evicts == 0 || s.Misses == 0 {
		t.Fatalf("the mix evicted %d and missed %d times: it tests nothing", s.Evicts, s.Misses)
	}
}

// TestModifyFrames: the frame a miss reads into stays the cache's once
// Modify returns it: staged and committed, it is recycled when its block
// leaves. A fill that evicts it at once — every other block of its shard
// is dirty — leaves it to the caller, out of the pool, for the staging
// Put to insert again. A block load itself made resident wins over the
// frame, which goes back to the pool. A failed load inserts nothing.
func TestModifyFrames(t *testing.T) {
	c := NewSharded(16, 1)
	f, err := c.Modify(3, stamp(3, 1, false))
	if err != nil || f[0] != 3 || inPool(f) || !sameBuf(c.Borrow(3), f) {
		t.Fatalf("Modify(3) = %x, %v: want the loaded frame, resident and out of the pool", f, err)
	}
	c.Put(3, f, true)
	c.MarkClean(3)
	c.Drop(3)
	if !inPool(f) {
		t.Fatal("the staged frame was not recycled when its block left: it lost its ownership")
	}

	c = NewSharded(16, 1)
	for b := int64(100); b < 116; b++ {
		c.Put(b, make([]byte, FrameSize), true)
	}
	before := c.Stats()
	f, err = c.Modify(4, stamp(4, 2, false))
	if err != nil || c.Resident(4) || c.Stats().Evicts != before.Evicts+1 {
		t.Fatalf("Modify(4) in a dirty shard: %v, resident %v, %d evicts: want the fill to evict it at once",
			err, c.Resident(4), c.Stats().Evicts-before.Evicts)
	}
	if inPool(f) {
		t.Fatal("the frame the fill evicted went to the pool while its caller holds it")
	}
	c.Put(4, f, true)
	if !sameBuf(c.Borrow(4), f) || f[0] != 4 {
		t.Fatal("the staging Put did not insert the frame Modify returned")
	}

	c = NewSharded(16, 1)
	other := []byte("resident")
	var frame []byte
	b, err := c.Modify(5, func(buf []byte) error {
		frame = buf
		c.Put(5, other, false)
		return nil
	})
	if err != nil || !sameBuf(b, other) || !inPool(frame) {
		t.Fatalf("Modify(5) = %q, %v: want the buffer load made resident, and the frame back in the pool", b, err)
	}

	before = c.Stats()
	if b, err := c.Modify(6, stamp(6, 3, true)); b != nil || !errors.Is(err, errLoad) || c.Resident(6) {
		t.Fatalf("Modify(6) with a failing load = %x, %v, resident %v", b, err, c.Resident(6))
	}
	if s := c.Stats(); s.Misses != before.Misses+1 || s.Inserts != before.Inserts {
		t.Fatalf("a failed load: %+v after %+v, want one miss and no insert", s, before)
	}
}
