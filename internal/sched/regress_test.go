package sched

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/stat"
)

var errInjected = errors.New("injected dispatch failure")

// faildev wraps memdev, failing any WriteBatch that contains failBlock
// while fails > 0, and counting per-block dispatch totals so tests can
// assert exactly-once delivery across failed and retried drains.
type faildev struct {
	*memdev
	fmu       sync.Mutex
	failBlock int64
	fails     int
	writes    map[int64]int
}

func newFaildev(failBlock int64, fails int) *faildev {
	return &faildev{
		memdev: newMemdev(), failBlock: failBlock, fails: fails,
		writes: map[int64]int{},
	}
}

func (d *faildev) WriteBatch(reqs []disk.Request) error {
	d.fmu.Lock()
	for _, r := range reqs {
		if r.Block == d.failBlock && d.fails > 0 {
			d.fails--
			d.fmu.Unlock()
			return errInjected
		}
	}
	for _, r := range reqs {
		d.writes[r.Block]++
	}
	d.fmu.Unlock()
	return d.memdev.WriteBatch(reqs)
}

func (d *faildev) counts() map[int64]int {
	d.fmu.Lock()
	defer d.fmu.Unlock()
	out := map[int64]int{}
	for b, n := range d.writes {
		out[b] = n
	}
	return out
}

// TestFailedDrainAccounting: a drain that errors mid-dispatch has already
// moved earlier sweeps out of the queue, so it must still count as a drain
// and the depth gauge must track what actually remains. Pre-fix, the
// error return skipped stats.Drains and the gauge update, leaving
// sched_queue_depth at the stale pre-drain value until the next enqueue.
// A drain of two commands needs a C-LOOK wrap now that one ascending
// sweep is one command, so the first drain parks the head past block 20.
func TestFailedDrainAccounting(t *testing.T) {
	dev := newFaildev(10, 1)
	s := New(dev, Config{QueueDepth: 8})
	s.WriteBlock(20, block(1))
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	s.WriteBlock(30, block(2))
	s.WriteBlock(10, block(3))
	if err := s.Barrier(); !errors.Is(err, errInjected) {
		t.Fatalf("Barrier over failing device = %v, want injected failure", err)
	}
	// From head 21 the drain is 30, then the wrap to 10: block 30's
	// command dispatched and left the queue before block 10's errored.
	// Two drains in all, the second partial.
	if st := s.Stats(); st.Drains != 2 {
		t.Fatalf("Drains = %d after failed drain, want 2", st.Drains)
	}
	if got := stat.G("sched_queue_depth").Value(); got != 1 {
		t.Fatalf("sched_queue_depth = %d after failed drain, want 1 (gauge went stale)", got)
	}
}

// TestPartialDispatchRetry: after a mid-drain WriteBatch error the
// remaining writes stay queued, and a retried drain — even raced by
// several clients — dispatches each write exactly once.
func TestPartialDispatchRetry(t *testing.T) {
	dev := newFaildev(30, 1)
	s := New(dev, Config{QueueDepth: 8})
	s.WriteBlock(10, block(1))
	s.WriteBlock(30, block(2))
	if err := s.Barrier(); !errors.Is(err, errInjected) {
		t.Fatalf("Barrier over failing device = %v, want injected failure", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Barrier()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("retry Barrier[%d] = %v", i, err)
		}
	}
	if got := dev.counts(); got[10] != 1 || got[30] != 1 {
		t.Fatalf("per-block dispatch counts = %v, want exactly one each for 10 and 30", got)
	}
	if st := s.Stats(); st.Dispatched != 2 {
		t.Fatalf("Dispatched = %d, want 2", st.Dispatched)
	}
}

// TestAdaptiveDeadlineOrder: under PolicyAdaptive a shallow drain
// dispatches lanes in arrival order (fair dispatch — the oldest client's
// batch lands first), not elevator order, with blocks ascending within a
// lane so intra-lane runs still coalesce. Lanes whose blocks keep
// ascending share one command; a new command starts where lane order
// descends.
func TestAdaptiveDeadlineOrder(t *testing.T) {
	dev := newMemdev()
	s := New(dev, Config{QueueDepth: 32, Policy: PolicyAdaptive})
	// Lane 1: client A writes 90. Lane 2: client B batches {11, 10}.
	// Lane 3: client C writes 50. C-LOOK from head 0 would dispatch
	// 10, 11, 50, 90; deadline order preserves lane arrival.
	s.WriteBlock(90, block(1))
	s.WriteBatch([]disk.Request{{Block: 11, Data: block(2)}, {Block: 10, Data: block(3)}})
	s.WriteBlock(50, block(4))
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	want := []string{"b/90", "b/10/11/50", "B"}
	got := dev.snapshot()
	if len(got) != len(want) {
		t.Fatalf("log = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("log[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
	if st := s.Stats(); st.DeadlineDrains != 1 || st.CLOOKDrains != 0 {
		t.Fatalf("drain split = %d deadline / %d clook, want 1/0", st.DeadlineDrains, st.CLOOKDrains)
	}
}

// TestAdaptivePressureSwitchesToCLOOK: once the queue reaches the
// pressure threshold (3/4 of depth), the adaptive policy drains in
// elevator order even though lanes arrived in the opposite order: the
// whole drain is one ascending sweep, so it leaves as one command.
func TestAdaptivePressureSwitchesToCLOOK(t *testing.T) {
	dev := newMemdev()
	s := New(dev, Config{QueueDepth: 64, Policy: PolicyAdaptive})
	// 48 lanes arrive in descending block order; 48 = 64*3/4 is exactly
	// at the threshold, so the drain must pick C-LOOK.
	for i := 47; i >= 0; i-- {
		if err := s.WriteBlock(int64(i*10), block(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	want := "b"
	for i := 0; i < 48; i++ {
		want += fmt.Sprintf("/%d", i*10)
	}
	if got := dev.snapshot(); got[0] != want {
		t.Fatalf("log[0] = %q, want %q (elevator order)", got[0], want)
	}
	if st := s.Stats(); st.CLOOKDrains != 1 || st.DeadlineDrains != 0 {
		t.Fatalf("drain split = %d deadline / %d clook, want 0/1", st.DeadlineDrains, st.CLOOKDrains)
	}
}
