package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ironfs/internal/disk"
)

// refSched is the scheduler with the dispatch it had before a drain went
// out one command per sweep: the same queue, lanes, absorption and
// dispatch order, but one device command per run of adjacent blocks. It
// is the reference the sweep dispatch is held against.
type refSched struct{ *Scheduler }

func (r refSched) WriteBlock(n int64, buf []byte) error {
	s := r.Scheduler
	s.mu.Lock()
	defer s.mu.Unlock()
	s.laneSeq++
	s.enqueueLocked(n, buf)
	if len(s.queue) >= s.depth {
		return refFlushLocked(s)
	}
	return nil
}

func (r refSched) WriteBatch(reqs []disk.Request) error {
	s := r.Scheduler
	s.mu.Lock()
	defer s.mu.Unlock()
	s.laneSeq++
	for _, q := range reqs {
		s.enqueueLocked(q.Block, q.Data)
	}
	if len(s.queue) >= s.depth {
		return refFlushLocked(s)
	}
	return nil
}

func (r refSched) Barrier() error {
	s := r.Scheduler
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := refFlushLocked(s); err != nil {
		return err
	}
	return s.inner.Barrier()
}

func (r refSched) ReadBlock(n int64, buf []byte) error {
	s := r.Scheduler
	s.mu.Lock()
	if _, queued := s.queue[n]; queued {
		s.stats.ReadFlushes++
		if err := refFlushLocked(s); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	s.mu.Unlock()
	return s.inner.ReadBlock(n, buf)
}

// refFlushLocked is the one-command-per-run drain: the order is computed
// exactly as flushLocked computes it, and the order is then cut at every
// gap between blocks.
func refFlushLocked(s *Scheduler) error {
	n := len(s.queue)
	if n == 0 {
		return nil
	}
	blocks := make([]int64, 0, n)
	for b := range s.queue {
		blocks = append(blocks, b)
	}
	slices.Sort(blocks)
	var order []int64
	if s.policy == PolicyAdaptive && n < s.pressure {
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
		start := 0
		for start < len(blocks) && blocks[start] < s.head {
			start++
		}
		order = make([]int64, 0, n)
		order = append(order, blocks[start:]...)
		order = append(order, blocks[:start]...)
		s.stats.CLOOKDrains++
	}
	for i := 0; i < len(order); {
		j := i + 1
		for j < len(order) && order[j] == order[j-1]+1 {
			j++
		}
		run := order[i:j]
		reqs := make([]disk.Request, len(run))
		for k, b := range run {
			reqs[k] = disk.Request{Block: b, Data: s.queue[b].data}
		}
		if len(run) > 1 {
			s.stats.Coalesced += int64(len(run))
		}
		if err := s.inner.WriteBatch(reqs); err != nil {
			s.stats.Drains++
			return err
		}
		for _, b := range run {
			delete(s.queue, b)
		}
		s.stats.Dispatched += int64(len(run))
		s.stats.Batches++
		s.head = run[len(run)-1] + 1
		i = j
	}
	s.stats.Drains++
	return nil
}

// blockDev is the surface both the scheduler and its reference offer.
type blockDev interface {
	ReadBlock(int64, []byte) error
	WriteBlock(int64, []byte) error
	WriteBatch([]disk.Request) error
	Barrier() error
}

// commandBlocks parses a memdev "b/…" log line into its blocks.
func commandBlocks(op string) []int64 {
	var out []int64
	for _, f := range strings.Split(op, "/")[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		out = append(out, n)
	}
	return out
}

// flatten rewrites a memdev log as per-block events: every block of a
// command becomes its own "w<n>", reads and barriers stay as they are. Two
// logs that flatten equal wrote the same blocks in the same order with the
// same reads and barriers between them.
func flatten(log []string) []string {
	var out []string
	for _, op := range log {
		if op[0] != 'b' {
			out = append(out, op)
			continue
		}
		for _, b := range commandBlocks(op) {
			out = append(out, fmt.Sprintf("w%d", b))
		}
	}
	return out
}

// TestSweepDispatchMatchesRunDispatch: over seeded mixes of WriteBlock,
// WriteBatch, Barrier and reads of queued and unqueued blocks, at depths 8
// and 32 under both policies, the sweep dispatch writes exactly the block
// sequence the one-command-per-run reference writes, with the same reads
// and barriers between; every command it issues is strictly ascending,
// and inside a drain a new command starts exactly where the order
// descends; Dispatched, Coalesced and Drains equal the reference's.
func TestSweepDispatchMatchesRunDispatch(t *testing.T) {
	for _, depth := range []int{8, 32} {
		for _, policy := range []Policy{PolicyCLOOK, PolicyAdaptive} {
			for seed := int64(1); seed <= 20; seed++ {
				name := fmt.Sprintf("depth%d/policy%d/seed%d", depth, policy, seed)
				t.Run(name, func(t *testing.T) {
					sweepDifferential(t, depth, policy, seed)
				})
			}
		}
	}
}

func sweepDifferential(t *testing.T, depth int, policy Policy, seed int64) {
	cfg := Config{QueueDepth: depth, Policy: policy}
	dev, refDev := newMemdev(), newMemdev()
	s := New(dev, cfg)
	ref := refSched{New(refDev, cfg)}
	rng := rand.New(rand.NewSource(seed))
	// Blocks cluster in a few regions so that runs, near gaps and far
	// descents all occur.
	pick := func() int64 { return int64(rng.Intn(6)*300 + rng.Intn(24)) }
	var recent []int64
	buf := make([]byte, devBlockSize)
	for op := 0; op < 400; op++ {
		// Draw one operation, then apply it to both sides.
		var apply func(d blockDev) error
		switch k := rng.Intn(10); {
		case k < 4:
			b := pick()
			recent = append(recent, b)
			apply = func(d blockDev) error { return d.WriteBlock(b, block(byte(op))) }
		case k < 7:
			var reqs []disk.Request
			for i := 0; i < 1+rng.Intn(12); i++ {
				b := pick()
				recent = append(recent, b)
				reqs = append(reqs, disk.Request{Block: b, Data: block(byte(op))})
			}
			apply = func(d blockDev) error { return d.WriteBatch(reqs) }
		case k < 8:
			apply = blockDev.Barrier
		default:
			b := pick()
			if len(recent) > 0 && rng.Intn(2) == 0 {
				b = recent[rng.Intn(len(recent))]
			}
			apply = func(d blockDev) error { return d.ReadBlock(b, buf) }
		}
		drains, mark := s.Stats().Drains, len(dev.snapshot())
		if err := apply(s); err != nil {
			t.Fatal(err)
		}
		if err := apply(ref); err != nil {
			t.Fatal(err)
		}
		if s.Stats().Drains == drains {
			continue
		}
		var prev []int64
		for _, line := range dev.snapshot()[mark:] {
			if line[0] != 'b' {
				continue
			}
			cmd := commandBlocks(line)
			for i := 1; i < len(cmd); i++ {
				if cmd[i] <= cmd[i-1] {
					t.Fatalf("command %q is not strictly ascending", line)
				}
			}
			if prev != nil && cmd[0] > prev[len(prev)-1] {
				t.Fatalf("command %q starts above the previous command's last block %d: one sweep split in two",
					line, prev[len(prev)-1])
			}
			prev = cmd
		}
	}
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Barrier(); err != nil {
		t.Fatal(err)
	}
	if got, want := flatten(dev.snapshot()), flatten(refDev.snapshot()); !slices.Equal(got, want) {
		t.Fatalf("per-block sequence differs from the one-command-per-run reference:\n got %v\nwant %v", got, want)
	}
	for b, data := range refDev.blocks {
		if !slices.Equal(dev.blocks[b], data) {
			t.Fatalf("block %d holds %v, reference %v", b, dev.blocks[b], data)
		}
	}
	got, want := s.Stats(), ref.Stats()
	if got.Dispatched != want.Dispatched || got.Coalesced != want.Coalesced || got.Drains != want.Drains {
		t.Fatalf("dispatched/coalesced/drains = %d/%d/%d, reference %d/%d/%d",
			got.Dispatched, got.Coalesced, got.Drains, want.Dispatched, want.Coalesced, want.Drains)
	}
	if got.Batches > want.Batches {
		t.Fatalf("Batches = %d, more than the reference's %d", got.Batches, want.Batches)
	}
}

// TestScatteredBatchCostsAsAtDepthOne: one scattered ascending WriteBatch
// and a barrier cost the disk the same busy time through a depth-32
// adaptive queue (below pressure) as through the depth-1 passthrough,
// which hands the batch to the disk as one command. Split at every gap,
// each near gap would miss its rotational slot behind a new command.
func TestScatteredBatchCostsAsAtDepthOne(t *testing.T) {
	busy := func(depth int) disk.Duration {
		d, err := disk.New(4096, disk.DefaultGeometry(), nil)
		if err != nil {
			t.Fatal(err)
		}
		s := New(d, Config{QueueDepth: depth, Policy: PolicyAdaptive})
		var reqs []disk.Request
		for _, b := range []int64{100, 102, 103, 105, 240, 241, 900, 903} {
			reqs = append(reqs, disk.Request{Block: b, Data: make([]byte, d.BlockSize())})
		}
		if err := s.WriteBatch(reqs); err != nil {
			t.Fatal(err)
		}
		if err := s.Barrier(); err != nil {
			t.Fatal(err)
		}
		return d.Stats().BusyTime
	}
	if one, deep := busy(1), busy(32); deep != one {
		t.Fatalf("busy time at depth 32 = %v, at depth 1 = %v", deep, one)
	}
}
