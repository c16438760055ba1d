package sched

import (
	"bytes"
	"testing"

	"ironfs/internal/bcache"
	"ironfs/internal/disk"
)

// stamp returns a block whose every byte is v.
func stamp(v byte) []byte { return bytes.Repeat([]byte{v}, devBlockSize) }

// holds reports whether every block in want reads back from the device
// as the bytes last written to it.
func holds(t *testing.T, d *memdev, want map[int64]byte) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	for b, v := range want {
		if got := d.blocks[b]; !bytes.Equal(got, stamp(v)) {
			t.Errorf("block %d holds % x, want %02x throughout", b, got, v)
		}
	}
}

// TestQueuedBytesSurviveRecycling: the scheduler copies each write into a
// buffer of its own, so the bytes that land are the ones written, whatever
// happens to buffers around them: the caller overwriting its buffer after
// WriteBlock, a rewrite absorbed into a queued block, and a sweep the
// device refused staying queued while later writes take new buffers.
func TestQueuedBytesSurviveRecycling(t *testing.T) {
	t.Run("caller_reuses_buffer", func(t *testing.T) {
		dev := newMemdev()
		s := New(dev, Config{QueueDepth: 8})
		want := map[int64]byte{}
		buf := make([]byte, devBlockSize)
		for i := 0; i < 100; i++ {
			b, v := int64(i*37%64), byte(i+1)
			copy(buf, stamp(v))
			if err := s.WriteBlock(b, buf); err != nil {
				t.Fatal(err)
			}
			want[b] = v
		}
		clear(buf)
		if err := s.Barrier(); err != nil {
			t.Fatal(err)
		}
		holds(t, dev, want)
	})
	t.Run("absorbed_rewrite", func(t *testing.T) {
		dev := newMemdev()
		s := New(dev, Config{QueueDepth: 8})
		want := map[int64]byte{}
		for round := 0; round < 20; round++ {
			for b := int64(0); b < 6; b++ {
				v := byte(round*6 + int(b) + 1)
				s.WriteBlock(b, stamp(v))
				s.WriteBlock(b, stamp(v+100))
				want[b] = v + 100
			}
			s.WriteBatch([]disk.Request{{Block: 40, Data: stamp(byte(round))}, {Block: 41, Data: stamp(byte(round) + 1)}})
			want[40], want[41] = byte(round), byte(round)+1
		}
		if err := s.Barrier(); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Absorbed == 0 || st.Drains < 10 {
			t.Fatalf("stats %+v: want absorbed rewrites across many drains", st)
		}
		holds(t, dev, want)
	})
	t.Run("failed_sweep_stays_queued", func(t *testing.T) {
		// Block 5 fails the first two commands that carry it: the drain
		// that the fourth write forces and the one after it keep all
		// four blocks queued, while the writes behind them take new
		// buffers and later drains land theirs.
		dev := newFaildev(5, 2)
		s := New(dev, Config{QueueDepth: 4})
		want := map[int64]byte{}
		failed := 0
		for _, b := range []int64{1, 2, 3, 5, 20, 21, 22, 23, 40, 41, 42, 43, 44} {
			if err := s.WriteBlock(b, stamp(byte(b))); err != nil {
				failed++
			}
			want[b] = byte(b)
		}
		if err := s.Barrier(); err != nil || failed != 2 {
			t.Fatalf("%d drains failed, then Barrier: %v; want 2 and nil", failed, err)
		}
		holds(t, dev.memdev, want)
	})
}

// nulldev accepts every write and keeps nothing: a device of 4 KiB blocks
// that allocates nothing, so what an allocation test counts is the
// scheduler's.
type nulldev struct{}

func (nulldev) ReadBlock(int64, []byte) error   { return nil }
func (nulldev) WriteBlock(int64, []byte) error  { return nil }
func (nulldev) WriteBatch([]disk.Request) error { return nil }
func (nulldev) Barrier() error                  { return nil }
func (nulldev) BlockSize() int                  { return bcache.FrameSize }
func (nulldev) NumBlocks() int64                { return 1 << 20 }
func (nulldev) Close() error                    { return nil }

// refusedev is nulldev refusing the next refuse commands.
type refusedev struct {
	nulldev
	refuse int
}

func (d *refusedev) WriteBatch([]disk.Request) error {
	if d.refuse > 0 {
		d.refuse--
		return disk.ErrIO
	}
	return nil
}

// pooled returns the first byte's address of every frame the process's
// pool holds, taking each and giving them all back in their order.
func pooled() map[*byte]bool {
	_, n := bcache.PoolStats()
	fs := make([]disk.Request, n)
	for i := range fs {
		fs[n-1-i].Data = bcache.TakeFrame()
	}
	out := map[*byte]bool{}
	for _, f := range fs {
		out[&f.Data[0]] = true
	}
	bcache.GiveFrames(fs)
	return out
}

// TestDrainGivesFramesToThePool: over a device of 4 KiB blocks, a queued
// write's copy is a frame from the process's pool, and a sweep the device
// accepted hands its frames back: after a drain the pool holds every
// buffer it drained. A sweep the device refused keeps its buffers queued
// and out of the pool.
func TestDrainGivesFramesToThePool(t *testing.T) {
	dev := &refusedev{refuse: 1}
	s := New(dev, Config{QueueDepth: 32})
	buf := make([]byte, bcache.FrameSize)
	for b := int64(0); b < 8; b++ {
		if err := s.WriteBlock(b*3, buf); err != nil {
			t.Fatal(err)
		}
	}
	queued := map[*byte]bool{}
	s.mu.Lock()
	for _, q := range s.queue {
		queued[&q.data[0]] = true
	}
	s.mu.Unlock()
	if err := s.Barrier(); err == nil {
		t.Fatal("the refused sweep's Barrier returned no error")
	}
	for f := range pooled() {
		if queued[f] {
			t.Fatal("a refused sweep's buffer went to the pool while still queued")
		}
	}
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	in := pooled()
	for f := range queued {
		if !in[f] {
			t.Fatal("a drained buffer is not in the pool")
		}
	}
}

// enqueueDrain returns a scheduler at depth 32 under policy and a
// function that writes one block of a scattered stream to it, each block
// twice in a row, so every other write is an absorbed rewrite. A queue
// that reaches 32 blocks drains in C-LOOK order, and every 100th write
// adds a Barrier, which drains a shallow queue — in deadline order under
// PolicyAdaptive.
func enqueueDrain(policy Policy) (*Scheduler, func()) {
	s := New(nulldev{}, Config{QueueDepth: 32, Policy: policy})
	buf := make([]byte, 4096)
	i := 0
	return s, func() {
		i++
		s.WriteBlock(int64(i/2*7919%4093), buf)
		if i%100 == 0 {
			s.Barrier()
		}
	}
}

// TestEnqueueDrainAllocs: once the pool's frames and the scheduler's
// scratch slices are warm, the scheduler allocates nothing per write,
// drains included, and a drain deeper than the queue depth hands every
// frame it took back to the pool for the next one. A run is
// 100 writes, so even one allocation in a cycle of drains shows.
func TestEnqueueDrainAllocs(t *testing.T) {
	for _, policy := range []Policy{PolicyCLOOK, PolicyAdaptive} {
		s, write := enqueueDrain(policy)
		cycle := func() {
			for i := 0; i < 100; i++ {
				write()
			}
		}
		for i := 0; i < 4; i++ {
			cycle()
		}
		if got := testing.AllocsPerRun(40, cycle); got != 0 {
			t.Errorf("policy %d: %v allocs per 100 writes, want 0", policy, got)
		}
		if st := s.Stats(); st.Absorbed == 0 || st.CLOOKDrains == 0 || policy == PolicyAdaptive && st.DeadlineDrains == 0 {
			t.Errorf("policy %d: stats %+v, want absorbed rewrites and every kind of drain the policy has", policy, st)
		}

		// A batch queues past the depth before it drains, as a group
		// commit or a checkpoint does: a drain of 100 blocks gives all
		// 100 frames back for the next one.
		batch := make([]disk.Request, 100)
		for i := range batch {
			batch[i] = disk.Request{Block: int64(i * 3), Data: make([]byte, 4096)}
		}
		deep := func() {
			if err := s.WriteBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		deep()
		if got := testing.AllocsPerRun(20, deep); got != 0 {
			t.Errorf("policy %d: %v allocs per 100-block drain at depth 32, want 0", policy, got)
		}
		if st := s.Stats(); st.MaxQueue < len(batch) {
			t.Errorf("policy %d: deepest queue %d, want at least %d", policy, st.MaxQueue, len(batch))
		}
	}
}

// BenchmarkEnqueueDrain prices one queued write at depth 32, its share of
// the drains included.
func BenchmarkEnqueueDrain(b *testing.B) {
	_, write := enqueueDrain(PolicyCLOOK)
	for i := 0; i < 400; i++ {
		write()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write()
	}
}
