package sched

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ironfs/internal/disk"
)

// memdev is a recording in-memory device: every operation that reaches it
// is appended to log in arrival order, so tests can assert exactly what
// the scheduler dispatched and when.
type memdev struct {
	mu     sync.Mutex
	blocks map[int64][]byte
	log    []string
	batch  []int // size of each WriteBatch received
}

const (
	devBlockSize = 16
	devNumBlocks = 4096
)

func newMemdev() *memdev { return &memdev{blocks: map[int64][]byte{}} }

func (d *memdev) ReadBlock(n int64, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.log = append(d.log, fmt.Sprintf("r%d", n))
	if b, ok := d.blocks[n]; ok {
		copy(buf, b)
	} else {
		for i := range buf {
			buf[i] = 0
		}
	}
	return nil
}

func (d *memdev) WriteBlock(n int64, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.log = append(d.log, fmt.Sprintf("w%d", n))
	d.blocks[n] = append([]byte(nil), buf...)
	return nil
}

func (d *memdev) WriteBatch(reqs []disk.Request) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	line := "b"
	for _, r := range reqs {
		line += fmt.Sprintf("/%d", r.Block)
		d.blocks[r.Block] = append([]byte(nil), r.Data...)
	}
	d.log = append(d.log, line)
	d.batch = append(d.batch, len(reqs))
	return nil
}

func (d *memdev) Barrier() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.log = append(d.log, "B")
	return nil
}

func (d *memdev) BlockSize() int   { return devBlockSize }
func (d *memdev) NumBlocks() int64 { return devNumBlocks }
func (d *memdev) Close() error     { return nil }
func (d *memdev) snapshot() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.log...)
}

func block(v byte) []byte {
	b := make([]byte, devBlockSize)
	b[0] = v
	return b
}

// TestDepthOnePassthrough: at queue depth 1 every operation is forwarded
// synchronously and in order — the scheduler is invisible.
func TestDepthOnePassthrough(t *testing.T) {
	dev := newMemdev()
	s := New(dev, Config{QueueDepth: 1})
	buf := make([]byte, devBlockSize)
	s.WriteBlock(9, block(1))
	s.ReadBlock(9, buf)
	s.Barrier()
	s.WriteBatch([]disk.Request{{Block: 3, Data: block(2)}, {Block: 4, Data: block(3)}})
	s.WriteBlock(7, block(4))
	want := []string{"w9", "r9", "B", "b/3/4", "w7"}
	got := dev.snapshot()
	if len(got) != len(want) {
		t.Fatalf("log = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("log[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
	if st := s.Stats(); st.Enqueued != 0 || st.Drains != 0 {
		t.Fatalf("passthrough accumulated queue stats: %+v", st)
	}
}

// TestBarrierNeverReorderedAcross: every write enqueued before a barrier
// reaches the device before the barrier does, and every write after it
// comes later — across random workloads.
func TestBarrierNeverReorderedAcross(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		dev := newMemdev()
		s := New(dev, Config{QueueDepth: 2 + rng.Intn(16)})
		// Epoch e writes blocks with value e; a barrier separates epochs.
		epochs := 2 + rng.Intn(4)
		written := make([]map[int64]bool, epochs)
		for e := 0; e < epochs; e++ {
			written[e] = map[int64]bool{}
			for i := 0; i < 1+rng.Intn(20); i++ {
				b := int64(rng.Intn(200))
				s.WriteBlock(b, block(byte(e)))
				// Track the epoch that last wrote each block.
				for p := 0; p < e; p++ {
					delete(written[p], b)
				}
				written[e][b] = true
			}
			if err := s.Barrier(); err != nil {
				t.Fatal(err)
			}
		}
		// Walk the device log: after the e-th "B", no write carrying an
		// epoch ≤ e payload may appear (those had to land before it).
		seenBarriers := 0
		for _, op := range dev.snapshot() {
			if op == "B" {
				seenBarriers++
			}
		}
		if seenBarriers != epochs {
			t.Fatalf("trial %d: %d barriers reached device, want %d", trial, seenBarriers, epochs)
		}
		// Stronger check: replay the log, tracking barrier count at each
		// write; a block's final device content must match the last epoch,
		// and each epoch's writes must appear before its own barrier.
		barriersSeen := 0
		lastWriteBarrier := map[int64]int{}
		for _, op := range dev.snapshot() {
			if op == "B" {
				barriersSeen++
				continue
			}
			var bs []int64
			if op[0] == 'w' {
				var n int64
				fmt.Sscanf(op, "w%d", &n)
				bs = []int64{n}
			} else if op[0] == 'b' {
				rest := op[1:]
				for len(rest) > 0 {
					var n int64
					fmt.Sscanf(rest, "/%d", &n)
					bs = append(bs, n)
					rest = rest[1:]
					for len(rest) > 0 && rest[0] != '/' {
						rest = rest[1:]
					}
				}
			}
			for _, n := range bs {
				lastWriteBarrier[n] = barriersSeen
			}
		}
		for e := 0; e < epochs; e++ {
			for b := range written[e] {
				if lw, ok := lastWriteBarrier[b]; !ok || lw > e {
					t.Fatalf("trial %d: block %d last written by epoch %d landed after barrier %d",
						trial, b, e, e)
				}
				if dev.blocks[b][0] != byte(e) {
					t.Fatalf("trial %d: block %d = epoch %d, want %d", trial, b, dev.blocks[b][0], e)
				}
			}
		}
	}
}

// TestCoalescedBatchEqualsSum: the writes leaving in batches account
// exactly for the writes enqueued, minus absorption, minus what is still
// queued — each device batch is strictly ascending, and Coalesced counts
// exactly the writes that share a batch with an adjacent neighbour. (A
// batch is a sweep now, not an adjacent run, so adjacency is counted
// inside each batch.)
func TestCoalescedBatchEqualsSum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dev := newMemdev()
	s := New(dev, Config{QueueDepth: 32})
	writes := 0
	for i := 0; i < 500; i++ {
		// Cluster writes so adjacency actually occurs.
		base := int64(rng.Intn(40) * 10)
		s.WriteBlock(base+int64(rng.Intn(12)), block(byte(i)))
		writes++
	}
	s.Barrier()
	st := s.Stats()
	if st.Enqueued != int64(writes) {
		t.Fatalf("Enqueued = %d, want %d", st.Enqueued, writes)
	}
	if st.Dispatched != st.Enqueued-st.Absorbed {
		t.Fatalf("Dispatched(%d) != Enqueued(%d) - Absorbed(%d)", st.Dispatched, st.Enqueued, st.Absorbed)
	}
	var batched int64
	for _, n := range dev.batch {
		batched += int64(n)
	}
	if batched != st.Dispatched {
		t.Fatalf("device received %d writes in batches, scheduler dispatched %d", batched, st.Dispatched)
	}
	if int64(len(dev.batch)) != st.Batches {
		t.Fatalf("device saw %d batches, stats say %d", len(dev.batch), st.Batches)
	}
	var adjacent int64
	for _, op := range dev.snapshot() {
		if op[0] != 'b' {
			continue
		}
		cmd := commandBlocks(op)
		for i, b := range cmd {
			if i > 0 && b <= cmd[i-1] {
				t.Fatalf("batch %q not strictly ascending", op)
			}
			if (i > 0 && b == cmd[i-1]+1) || (i+1 < len(cmd) && cmd[i+1] == b+1) {
				adjacent++
			}
		}
	}
	if adjacent != st.Coalesced {
		t.Fatalf("Coalesced = %d, batches hold %d writes with an adjacent neighbour", st.Coalesced, adjacent)
	}
}

// TestDeterministicDispatch: the same seeded workload produces the same
// device-level operation sequence, twice.
func TestDeterministicDispatch(t *testing.T) {
	run := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		dev := newMemdev()
		s := New(dev, Config{QueueDepth: 8})
		for i := 0; i < 300; i++ {
			switch rng.Intn(4) {
			case 0, 1:
				s.WriteBlock(int64(rng.Intn(256)), block(byte(i)))
			case 2:
				buf := make([]byte, devBlockSize)
				s.ReadBlock(int64(rng.Intn(256)), buf)
			case 3:
				s.Barrier()
			}
		}
		s.Close()
		return dev.snapshot()
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestReadOfQueuedBlockDrains: reading a block with a queued write first
// drains the queue, so the read observes the write *through the device*
// (fault injection on the read path stays live).
func TestReadOfQueuedBlockDrains(t *testing.T) {
	dev := newMemdev()
	s := New(dev, Config{QueueDepth: 16})
	s.WriteBlock(5, block(0xEE))
	buf := make([]byte, devBlockSize)
	if err := s.ReadBlock(5, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xEE {
		t.Fatalf("read %x, want EE", buf[0])
	}
	log := dev.snapshot()
	if len(log) != 2 || log[0] != "b/5" || log[1] != "r5" {
		t.Fatalf("log = %v, want [b/5 r5]", log)
	}
	if st := s.Stats(); st.ReadFlushes != 1 {
		t.Fatalf("ReadFlushes = %d, want 1", st.ReadFlushes)
	}
	// A read of an unqueued block must NOT drain: block 6 stays queued.
	s.WriteBlock(6, block(1))
	s.ReadBlock(100, buf)
	if st := s.Stats(); st.Drains != 1 || st.ReadFlushes != 1 {
		t.Fatalf("unqueued read perturbed the queue: %+v", st)
	}
}

// TestWriteAbsorption: rewriting a queued block keeps only the last
// version; the earlier one never reaches the device.
func TestWriteAbsorption(t *testing.T) {
	dev := newMemdev()
	s := New(dev, Config{QueueDepth: 16})
	s.WriteBlock(8, block(1))
	s.WriteBlock(8, block(2))
	s.WriteBlock(8, block(3))
	s.Barrier()
	if got := dev.blocks[8][0]; got != 3 {
		t.Fatalf("device holds %d, want 3", got)
	}
	st := s.Stats()
	if st.Enqueued != 3 || st.Absorbed != 2 || st.Dispatched != 1 {
		t.Fatalf("absorption accounting wrong: %+v", st)
	}
}

// TestCLOOKOrder: a drain dispatches ascending from the head position,
// wrapping at most once — one command each side of the wrap, since a
// command now spans a whole ascending sweep rather than one adjacent run.
func TestCLOOKOrder(t *testing.T) {
	dev := newMemdev()
	s := New(dev, Config{QueueDepth: 64})
	// First drain leaves head after block 50.
	s.WriteBlock(50, block(1))
	s.Barrier()
	for _, b := range []int64{10, 90, 30, 70} {
		s.WriteBlock(b, block(2))
	}
	s.Barrier()
	// From head 51: 70, 90, then wrap to 10, 30.
	var got []string
	for _, op := range dev.snapshot() {
		if op[0] == 'b' {
			got = append(got, op)
		}
	}
	want := []string{"b/50", "b/70/90", "b/10/30"}
	if len(got) != len(want) {
		t.Fatalf("batches = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batches = %v, want %v", got, want)
		}
	}
}

// TestConcurrentClientsRace: many goroutines write and barrier through one
// scheduler; every acknowledged write must be on the device afterwards.
// Run under -race this also exercises the locking.
func TestConcurrentClientsRace(t *testing.T) {
	dev := newMemdev()
	s := New(dev, Config{QueueDepth: 8})
	var wg sync.WaitGroup
	const workers = 6
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * 300)
			for i := int64(0); i < 100; i++ {
				if err := s.WriteBlock(base+i, block(byte(w))); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if i%25 == 24 {
					if err := s.Barrier(); err != nil {
						t.Errorf("worker %d barrier: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		base := int64(w * 300)
		for i := int64(0); i < 100; i++ {
			b, ok := dev.blocks[base+i]
			if !ok || b[0] != byte(w) {
				t.Fatalf("worker %d block %d missing or wrong", w, base+i)
			}
		}
	}
	st := s.Stats()
	if st.Dispatched != workers*100 {
		t.Fatalf("Dispatched = %d, want %d", st.Dispatched, workers*100)
	}
}
