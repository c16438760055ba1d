// Package sched provides a queued, batching I/O scheduler that sits
// between a file system and the simulated disk.
//
// The disk's mechanical service model (seek ∝ √distance, rotational
// position, per-command overhead) prices I/O *patterns*: scattered
// synchronous writes pay a full seek and command overhead each, while a
// sorted batch of adjacent blocks streams at media rate under one command.
// Driving the disk one synchronous request at a time therefore leaves the
// modeled hardware mostly idle. The scheduler closes that gap the way a
// real block layer does: writes are accepted into a bounded queue and
// acknowledged immediately (write-behind), the queue absorbs rewrites of
// the same block (last-wins), and when the queue fills — or a barrier,
// close, or conflicting read forces the issue — the queue is drained in
// C-LOOK elevator order from the current head position. Each sweep of the
// drain (a maximal strictly ascending stretch of its dispatch order) goes
// to the device as one WriteBatch command, so the disk pays one command
// overhead per sweep and catches the next queued block on the same
// revolution instead of missing its slot behind a new command. A C-LOOK
// drain is at most two commands, one each side of its wrap; the order
// within and across commands is the policy's, never the disk's.
//
// Ordering semantics are preserved where they matter: a Barrier drains the
// queue before it reaches the device, so everything written before the
// barrier is on disk (or in the volatile write cache being modeled above
// the disk) before anything after it — exactly the contract journaling
// file systems and the ironcrash harness rely on. At QueueDepth ≤ 1 the
// scheduler is a strict passthrough: every operation is forwarded
// unmodified and no trace events are emitted, so existing harness output
// (crash matrices, trace goldens) is byte-identical with the scheduler in
// the stack.
//
// Fault injection composes underneath: the scheduler only reorders and
// batches; every block still reaches the wrapped device through ReadBlock
// or WriteBatch, where per-block faults fire as usual. The one visible
// write-behind consequence is error timing — a queued write's fault
// surfaces at the flush that dispatches it (the triggering write, barrier,
// read, or close reports it), mirroring how real write-back caches defer
// errors to fsync. The unit of failure is the command: a sweep whose
// WriteBatch errors keeps every one of its blocks queued and ends the
// drain. Under the fault layer, which writes a sweep's fault-free runs
// before reporting the faulted block, the blocks that did land are written
// again by the next drain.
package sched

import (
	"slices"
	"sync"

	"ironfs/internal/bcache"
	"ironfs/internal/disk"
	"ironfs/internal/stat"
	"ironfs/internal/trace"
)

// Policy selects the dispatch order a drain uses.
type Policy int

const (
	// PolicyCLOOK always drains in C-LOOK elevator order — the default,
	// the scheduler's historical dispatch order.
	PolicyCLOOK Policy = iota
	// PolicyAdaptive switches by queue pressure: a shallow queue drains
	// in deadline order (lanes in arrival order, so the oldest client's
	// writes reach the platter first and no lane's data stays volatile
	// behind a luckier seek position), while a queue at or above the
	// pressure threshold drains in C-LOOK order, where seek savings
	// dominate. The threshold is 3/4 of QueueDepth.
	PolicyAdaptive
)

// Config parameterizes a Scheduler.
type Config struct {
	// QueueDepth is the maximum number of queued writes before the
	// scheduler drains. Depth ≤ 1 makes the scheduler a strict
	// passthrough (no queueing, no reordering, no trace events).
	QueueDepth int
	// Policy selects the drain dispatch order. The zero value is
	// PolicyCLOOK, preserving the historical dispatch order.
	Policy Policy
}

// Stats counts scheduler activity. All fields are exact (updated under the
// scheduler's lock).
type Stats struct {
	// Enqueued counts writes accepted into the queue; Absorbed the subset
	// that overwrote an already-queued block (last-wins, so the earlier
	// version never reached the disk).
	Enqueued, Absorbed int64
	// Dispatched counts writes handed to the device; Batches the WriteBatch
	// commands they left in (one per sweep); Coalesced the writes that
	// shared a command with at least one adjacent neighbor.
	Dispatched, Batches, Coalesced int64
	// Drains counts queue flushes; ReadFlushes the subset forced by a read
	// of a queued block (read-your-writes through the device, so fault
	// injection still sees the read).
	Drains, ReadFlushes int64
	// CLOOKDrains and DeadlineDrains split Drains by the dispatch order
	// used — under PolicyAdaptive the ratio shows how often queue
	// pressure flipped the policy.
	CLOOKDrains, DeadlineDrains int64
	// MaxQueue is the deepest queue observed.
	MaxQueue int
}

// Scheduler implements disk.Device over an inner device, adding a
// write-behind queue with C-LOOK dispatch, one command per ascending sweep.
// It is safe for concurrent use; concurrent clients' requests interleave
// in the queue and drain together.
type Scheduler struct {
	inner    disk.Device
	depth    int
	policy   Policy
	pressure int
	tr       *trace.Tracer
	// clk is the stack's simulated clock (nil over clockless test
	// doubles); it timestamps enqueues so queue wait is measured in
	// exact virtual time.
	clk *disk.Clock
	// ops, queueLen and queueWait are the registry's handles, resolved at
	// construction: sched_ops_total{kind} per event kind (note),
	// sched_queue_depth and sched_queue_wait_ns. The passthrough
	// configuration (depth ≤ 1) records nothing, matching its
	// no-trace-events contract.
	ops       [numEvents]*stat.Counter
	queueLen  *stat.Gauge
	queueWait *stat.Histogram

	//iron:lockorder 20 scheduler queue lock nests under any FS lock via device calls
	mu    sync.Mutex
	queue map[int64]queued
	// blocks, order and reqs are flushLocked's scratch, reused by every
	// drain.
	blocks, order []int64
	reqs          []disk.Request
	head          int64
	// laneSeq numbers arrival lanes: every WriteBlock call and every
	// WriteBatch call is one lane, so a client's batch stays contiguous
	// under deadline dispatch and lanes drain in arrival order (fair —
	// no client's batch can be starved by another's block numbers).
	laneSeq int64
	stats   Stats
}

// queued is one write waiting in the queue: the (copied) data, the
// virtual time it was accepted, and its arrival lane. A last-wins
// absorption resets both — the wait and lane reported are the surviving
// write's.
type queued struct {
	data []byte
	at   int64
	lane int64
}

// event is a kind of scheduler event. The first four have a trace event
// of the kind eventKinds names; every kind is one sched_ops_total counter
// labelled by that name, and one Stats field.
type event int

const (
	evEnqueue event = iota
	evCoalesce
	evDispatch
	evDrain
	evAbsorb
	evBatch
	evReadFlush
	numEvents
)

var eventKinds = [numEvents]string{trace.KindEnqueue, trace.KindCoalesce, trace.KindDispatch, trace.KindDrain, "absorb", "batch", "read-flush"}

var _ disk.Device = (*Scheduler)(nil)

// Clock exposes the stack's simulated clock for disk.ClockOf discovery,
// so file systems mounted over the scheduler can still measure exact
// virtual-time waits (fsync latency).
func (s *Scheduler) Clock() *disk.Clock { return s.clk }

// New wraps inner with a scheduler configured by cfg. The run's tracer is
// discovered from the inner device (trace.Of), so the scheduler's events
// land in the same evidence trace as the I/O it batches.
func New(inner disk.Device, cfg Config) *Scheduler {
	depth := cfg.QueueDepth
	if depth < 1 {
		depth = 1
	}
	pressure := depth * 3 / 4
	if pressure < 2 {
		pressure = 2
	}
	s := &Scheduler{
		inner:     inner,
		depth:     depth,
		policy:    cfg.Policy,
		pressure:  pressure,
		tr:        trace.Of(inner),
		clk:       disk.ClockOf(inner),
		queueLen:  stat.G("sched_queue_depth"),
		queueWait: stat.H("sched_queue_wait_ns"),
		queue:     make(map[int64]queued),
	}
	for ev, kind := range eventKinds {
		s.ops[ev] = stat.C("sched_ops_total", "kind", kind)
	}
	return s
}

// Tracer implements trace.Provider so layers mounted on the scheduler
// discover the run's tracer through it.
func (s *Scheduler) Tracer() *trace.Tracer { return s.tr }

// QueueDepth returns the configured drain threshold.
func (s *Scheduler) QueueDepth() int { return s.depth }

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// BlockSize returns the inner device's block size.
func (s *Scheduler) BlockSize() int { return s.inner.BlockSize() }

// NumBlocks returns the inner device's capacity.
func (s *Scheduler) NumBlocks() int64 { return s.inner.NumBlocks() }

// ReadBlock reads block n. A read of a queued block first drains the queue
// so the read is served by the device — never from the queue — keeping
// read-path fault injection intact; reads of unqueued blocks pass straight
// through.
func (s *Scheduler) ReadBlock(n int64, buf []byte) error {
	if s.depth > 1 {
		s.mu.Lock()
		if _, queued := s.queue[n]; queued {
			s.note(evReadFlush, n, 0, "")
			err := s.flushLocked("read")
			s.mu.Unlock()
			if err != nil {
				return err
			}
		} else {
			s.mu.Unlock()
		}
	}
	return s.inner.ReadBlock(n, buf)
}

// WriteBlock queues one block write and returns immediately; the write
// reaches the device at the next drain. When the queue hits QueueDepth the
// triggering write drains it and reports any dispatch error. At depth 1
// the write is forwarded synchronously.
func (s *Scheduler) WriteBlock(n int64, buf []byte) error {
	if s.depth <= 1 {
		return s.inner.WriteBlock(n, buf)
	}
	if len(buf) != s.inner.BlockSize() {
		return disk.ErrBadSize
	}
	if n < 0 || n >= s.inner.NumBlocks() {
		return disk.ErrOutOfRange
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.laneSeq++
	s.enqueueLocked(n, buf)
	if len(s.queue) >= s.depth {
		return s.flushLocked("depth")
	}
	return nil
}

// WriteBatch queues every request in the batch (preserving the queue's
// last-wins absorption against earlier writes to the same blocks), then
// drains if the queue is at depth. At depth 1 the batch is forwarded
// unmodified.
func (s *Scheduler) WriteBatch(reqs []disk.Request) error {
	if s.depth <= 1 {
		return s.inner.WriteBatch(reqs)
	}
	for _, r := range reqs {
		if len(r.Data) != s.inner.BlockSize() {
			return disk.ErrBadSize
		}
		if r.Block < 0 || r.Block >= s.inner.NumBlocks() {
			return disk.ErrOutOfRange
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.laneSeq++
	for _, r := range reqs {
		s.enqueueLocked(r.Block, r.Data)
	}
	if len(s.queue) >= s.depth {
		return s.flushLocked("depth")
	}
	return nil
}

// Barrier drains the queue and forwards the barrier, so every write
// accepted before the barrier is on the device before anything after it.
// Queued writes are never reordered across a barrier.
func (s *Scheduler) Barrier() error {
	if s.depth <= 1 {
		return s.inner.Barrier()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked("barrier"); err != nil {
		return err
	}
	return s.inner.Barrier()
}

// Close drains the queue and closes the inner device.
func (s *Scheduler) Close() error {
	if s.depth <= 1 {
		return s.inner.Close()
	}
	s.mu.Lock()
	err := s.flushLocked("close")
	s.mu.Unlock()
	if cerr := s.inner.Close(); err == nil {
		err = cerr
	}
	return err
}

// enqueueLocked inserts one write, copying the data (callers reuse their
// buffers after WriteBlock returns): an absorbed rewrite into the buffer
// of the write it replaces, a new block into a frame from the pool — or,
// over a device whose blocks are not frames, a new buffer, so no copy is
// padded with a stale frame's bytes. Caller holds s.mu.
func (s *Scheduler) enqueueLocked(n int64, buf []byte) {
	q, ok := s.queue[n]
	if ok {
		s.note(evAbsorb, n, 0, "")
	} else if len(buf) == bcache.FrameSize {
		q.data = bcache.TakeFrame()
	} else {
		q.data = make([]byte, len(buf))
	}
	copy(q.data, buf)
	q.at, q.lane = 0, s.laneSeq
	if s.clk != nil {
		q.at = int64(s.clk.Now())
	}
	s.queue[n] = q
	s.note(evEnqueue, n, len(s.queue), "")
}

// flushLocked drains the queue in C-LOOK order (ascending from the head
// position to the end, then wrapping to the lowest queued block) or, under
// PolicyAdaptive below pressure, in deadline order. Each maximal strictly
// ascending stretch of that order — a sweep — is one WriteBatch command;
// a new command starts exactly where the order descends, so the disk,
// which services a batch in ascending order, never reorders one. Runs of
// adjacent blocks inside a sweep are what Coalesced counts. On a dispatch
// error the failed sweep's writes and every later one stay queued, and
// the error is returned to the operation that forced the drain. Caller
// holds s.mu.
//
// The inner device calls below run with s.mu held on purpose: the drain
// must be atomic with respect to concurrent enqueues and barriers — a
// write slipping in mid-drain could be reordered across a barrier that had
// already begun. The inner simulated disk serializes internally anyway, so
// the held lock costs no parallelism.
func (s *Scheduler) flushLocked(reason string) error {
	n := len(s.queue)
	if n == 0 {
		return nil
	}
	blocks := slices.Grow(s.blocks[:0], n)
	for b := range s.queue {
		blocks = append(blocks, b)
	}
	sortBlocks(blocks)
	s.blocks = blocks
	var order []int64
	if s.policy == PolicyAdaptive && n < s.pressure {
		// Deadline dispatch: lanes drain in arrival order — the oldest
		// client's batch reaches the platter first — with ascending
		// blocks within a lane so intra-lane runs still coalesce. Used
		// only while the queue is shallow, where the seek savings of
		// elevator order are small and arrival order bounds how long
		// any lane's writes stay volatile.
		order = blocks
		slices.SortFunc(order, func(a, b int64) int {
			if la, lb := s.queue[a].lane, s.queue[b].lane; la != lb {
				if la < lb {
					return -1
				}
				return 1
			}
			if a < b {
				return -1
			}
			return 1
		})
		s.stats.DeadlineDrains++
	} else {
		// C-LOOK: rotate so dispatch starts at the first block >= head.
		start := 0
		for start < len(blocks) && blocks[start] < s.head {
			start++
		}
		order = append(slices.Grow(s.order[:0], n), blocks[start:]...)
		order = append(order, blocks[:start]...)
		s.order = order
		s.stats.CLOOKDrains++
	}

	dispatched := 0
	for i := 0; i < len(order); {
		j := i + 1
		for j < len(order) && order[j] > order[j-1] {
			j++
		}
		sweep := order[i:j]
		reqs := slices.Grow(s.reqs[:0], len(sweep))
		for _, b := range sweep {
			reqs = append(reqs, disk.Request{Block: b, Data: s.queue[b].data})
		}
		s.reqs = reqs
		for r := 0; r < len(sweep); {
			e := r + 1
			for e < len(sweep) && sweep[e] == sweep[e-1]+1 {
				e++
			}
			if e-r > 1 {
				s.note(evCoalesce, sweep[r], e-r, "")
			}
			r = e
		}
		if err := s.inner.WriteBatch(reqs); err != nil {
			// The drain still happened — earlier sweeps already left the
			// queue — so count it, which re-points the depth gauge at what
			// actually remains. Skipping it (the historical bug) left
			// sched_queue_depth at the stale pre-drain value until the
			// next enqueue.
			s.note(evDrain, trace.NoBlock, dispatched, reason+"-error")
			return err
		}
		if s.clk != nil {
			// Queue wait is enqueue → dispatch completion in virtual
			// time: what write-behind actually deferred.
			now := int64(s.clk.Now())
			for _, b := range sweep {
				s.queueWait.Observe(now - s.queue[b].at)
			}
		}
		// The device kept no buffer of the sweep (disk.Device), so the
		// pool may have them back.
		for _, r := range reqs {
			delete(s.queue, r.Block)
		}
		bcache.GiveFrames(reqs)
		s.note(evDispatch, sweep[0], len(sweep), "")
		dispatched += len(sweep)
		s.head = sweep[len(sweep)-1] + 1
		i = j
	}
	s.note(evDrain, trace.NoBlock, dispatched, reason)
	return nil
}

// note records one scheduler event in each of its sinks: the exact
// Stats, the registry (sched_ops_total{kind}, and the depth gauge after an
// enqueue or a drain) and, for the first four kinds, the trace
// (Tracer.Sched). n is the queue depth after an enqueue, the length of a
// coalesced run or a dispatched batch, and the writes a drain dispatched;
// a dispatch is one batch too. Caller holds s.mu.
func (s *Scheduler) note(ev event, block int64, n int, detail string) {
	count := int64(1)
	switch ev {
	case evEnqueue:
		s.stats.Enqueued++
		s.stats.MaxQueue = max(s.stats.MaxQueue, n)
		s.queueLen.Set(int64(n))
	case evCoalesce:
		count = int64(n)
		s.stats.Coalesced += count
	case evDispatch:
		count = int64(n)
		s.stats.Dispatched += count
		s.stats.Batches++
		s.ops[evBatch].Inc()
	case evDrain:
		s.stats.Drains++
		s.queueLen.Set(int64(len(s.queue)))
	case evAbsorb:
		s.stats.Absorbed++
	case evReadFlush:
		s.stats.ReadFlushes++
	}
	s.ops[ev].Add(count)
	if ev <= evDrain {
		s.tr.Sched(eventKinds[ev], block, n, detail)
	}
}

// sortBlocks sorts ascending. slices.Sort (pattern-defeating quicksort)
// replaced the original insertion sort: at 256 clients × depth 32 the
// per-drain O(n²) sort dominated the drain itself.
func sortBlocks(b []int64) {
	slices.Sort(b)
}
