package trace

import (
	"fmt"
	"sort"
	"strings"

	"ironfs/internal/stat"
)

// Derived metrics: a Summary is a pure function of an event stream, so
// tools and tests can aggregate a trace (or compare two) without having
// observed the run live.

// Histogram is the exact per-value latency histogram shared with the
// live-metrics registry, so a post-hoc trace summary and a live snapshot
// of the same run report the same order statistics. (It replaced an
// older power-of-two bucketed type; quantiles are now exact.)
type Histogram = stat.Histogram

// TypeStat aggregates the fault-layer view of one block type.
type TypeStat struct {
	Reads, Writes, Faults int
	Errs                  int
	// Lat is the service-time distribution of the type's I/O, in
	// simulated nanoseconds.
	Lat *Histogram
}

// Summary is the aggregate view of a trace.
type Summary struct {
	Events int
	// Layers and Kinds count events per layer and per (layer, kind).
	Layers map[string]int
	Kinds  map[string]int
	// Types is the per-block-type breakdown from the fault layer.
	Types map[string]*TypeStat
	// Faults counts fault firings per fault class.
	Faults map[string]int
	// DiskReads/DiskWrites/DiskBarriers count mechanical disk events;
	// BusyNs sums their service time.
	DiskReads, DiskWrites, DiskBarriers int
	BusyNs                              int64
	// CacheWrites and CacheBarriers count volatile-write-cache events;
	// Epochs is the highest sealed epoch count observed, MaxDepth the
	// deepest open-epoch queue.
	CacheWrites, CacheBarriers int
	Epochs, MaxDepth           int
	// BufHits/BufMisses/BufEvicts count buffer-cache events.
	BufHits, BufMisses, BufEvicts int
	// SchedEnqueues/SchedCoalesces/SchedDispatches/SchedDrains count I/O
	// scheduler events; SchedMaxQueue is the deepest write queue observed
	// and SchedBatched the total writes that left in coalesced runs.
	SchedEnqueues, SchedCoalesces, SchedDispatches, SchedDrains int
	SchedMaxQueue, SchedBatched                                 int
	// Detects/Recovers/Phases count file-system semantic events, Marks
	// the harness segment boundaries.
	Detects, Recovers, Phases, Marks int
	// EndNs is the largest timestamp observed.
	EndNs int64
}

// Summarize aggregates an event stream.
func Summarize(events []Event) *Summary {
	s := &Summary{
		Layers: map[string]int{},
		Kinds:  map[string]int{},
		Types:  map[string]*TypeStat{},
		Faults: map[string]int{},
	}
	for i := range events {
		e := &events[i]
		s.Events++
		s.Layers[e.Layer]++
		s.Kinds[e.Layer+"/"+e.Kind]++
		if e.T > s.EndNs {
			s.EndNs = e.T
		}
		switch e.Layer {
		case LayerDisk:
			s.BusyNs += e.Svc
			switch e.Kind {
			case KindRead:
				s.DiskReads++
			case KindWrite:
				s.DiskWrites++
			case KindBarrier:
				s.DiskBarriers++
			}
		case LayerFault:
			if e.Kind == KindFault {
				s.Faults[e.Fault]++
				if e.Type != "" {
					s.typeStat(e.Type).Faults++
				}
				continue
			}
			if e.Type == "" {
				continue
			}
			st := s.typeStat(e.Type)
			switch e.Kind {
			case KindRead:
				st.Reads++
			case KindWrite:
				st.Writes++
			}
			if e.Err != "" {
				st.Errs++
			}
			if e.Svc > 0 {
				st.Lat.Observe(e.Svc)
			}
		case LayerCache:
			switch e.Kind {
			case KindWrite:
				s.CacheWrites++
			case KindBarrier:
				s.CacheBarriers++
				if e.Epoch+1 > s.Epochs {
					s.Epochs = e.Epoch + 1
				}
			}
			if e.Depth > s.MaxDepth {
				s.MaxDepth = e.Depth
			}
		case LayerBuf:
			switch e.Kind {
			case KindHit:
				s.BufHits++
			case KindMiss:
				s.BufMisses++
			case KindEvict:
				s.BufEvicts++
			}
		case LayerSched:
			switch e.Kind {
			case KindEnqueue:
				s.SchedEnqueues++
				if e.Depth > s.SchedMaxQueue {
					s.SchedMaxQueue = e.Depth
				}
			case KindCoalesce:
				s.SchedCoalesces++
				s.SchedBatched += e.Depth
			case KindDispatch:
				s.SchedDispatches++
			case KindDrain:
				s.SchedDrains++
			}
		case LayerFS:
			switch e.Kind {
			case KindDetect:
				s.Detects++
			case KindRecover:
				s.Recovers++
			case KindPhase:
				s.Phases++
			}
		case LayerHarness:
			if e.Kind == KindMark {
				s.Marks++
			}
		}
	}
	return s
}

func (s *Summary) typeStat(typ string) *TypeStat {
	st := s.Types[typ]
	if st == nil {
		st = &TypeStat{Lat: stat.NewHistogram()}
		s.Types[typ] = st
	}
	return st
}

// Render draws the summary deterministically (sorted keys throughout).
func (s *Summary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d simtime=%dns busy=%dns marks=%d\n", s.Events, s.EndNs, s.BusyNs, s.Marks)
	fmt.Fprintf(&b, "disk: reads=%d writes=%d barriers=%d\n", s.DiskReads, s.DiskWrites, s.DiskBarriers)
	fmt.Fprintf(&b, "cache: writes=%d barriers=%d epochs=%d maxdepth=%d\n",
		s.CacheWrites, s.CacheBarriers, s.Epochs, s.MaxDepth)
	fmt.Fprintf(&b, "bcache: hits=%d misses=%d evicts=%d\n", s.BufHits, s.BufMisses, s.BufEvicts)
	if s.SchedEnqueues+s.SchedDispatches+s.SchedDrains > 0 {
		fmt.Fprintf(&b, "sched: enqueues=%d coalesces=%d dispatches=%d drains=%d maxqueue=%d batched=%d\n",
			s.SchedEnqueues, s.SchedCoalesces, s.SchedDispatches, s.SchedDrains, s.SchedMaxQueue, s.SchedBatched)
	}
	fmt.Fprintf(&b, "fs: detects=%d recovers=%d phases=%d\n", s.Detects, s.Recovers, s.Phases)

	if len(s.Faults) > 0 {
		keys := sortedKeys(s.Faults)
		b.WriteString("faults:")
		for _, k := range keys {
			fmt.Fprintf(&b, " %q:%d", k, s.Faults[k])
		}
		b.WriteByte('\n')
	}

	if len(s.Layers) > 0 {
		b.WriteString("layers:")
		for _, k := range sortedKeys(s.Layers) {
			fmt.Fprintf(&b, " %s:%d", k, s.Layers[k])
		}
		b.WriteByte('\n')
	}

	if len(s.Types) > 0 {
		b.WriteString("per-type (fault layer):\n")
		types := make([]string, 0, len(s.Types))
		for k := range s.Types {
			types = append(types, k)
		}
		sort.Strings(types)
		for _, k := range types {
			st := s.Types[k]
			fmt.Fprintf(&b, "  %-14s reads=%-5d writes=%-5d faults=%-3d errs=%-3d lat[%s]\n",
				k, st.Reads, st.Writes, st.Faults, st.Errs, st.Lat.String())
		}
	}
	return b.String()
}

// Diff renders the counters on which a and b disagree, one per line, as
// "name: a -> b". An empty result means the summaries agree.
func Diff(a, b *Summary) string {
	var lines []string
	add := func(name string, av, bv int64) {
		if av != bv {
			lines = append(lines, fmt.Sprintf("%-28s %8d -> %-8d (%+d)", name, av, bv, bv-av))
		}
	}
	add("events", int64(a.Events), int64(b.Events))
	add("simtime-ns", a.EndNs, b.EndNs)
	add("busy-ns", a.BusyNs, b.BusyNs)
	add("disk-reads", int64(a.DiskReads), int64(b.DiskReads))
	add("disk-writes", int64(a.DiskWrites), int64(b.DiskWrites))
	add("disk-barriers", int64(a.DiskBarriers), int64(b.DiskBarriers))
	add("cache-writes", int64(a.CacheWrites), int64(b.CacheWrites))
	add("cache-barriers", int64(a.CacheBarriers), int64(b.CacheBarriers))
	add("cache-epochs", int64(a.Epochs), int64(b.Epochs))
	add("cache-maxdepth", int64(a.MaxDepth), int64(b.MaxDepth))
	add("bcache-hits", int64(a.BufHits), int64(b.BufHits))
	add("bcache-misses", int64(a.BufMisses), int64(b.BufMisses))
	add("bcache-evicts", int64(a.BufEvicts), int64(b.BufEvicts))
	add("sched-enqueues", int64(a.SchedEnqueues), int64(b.SchedEnqueues))
	add("sched-coalesces", int64(a.SchedCoalesces), int64(b.SchedCoalesces))
	add("sched-dispatches", int64(a.SchedDispatches), int64(b.SchedDispatches))
	add("sched-drains", int64(a.SchedDrains), int64(b.SchedDrains))
	add("sched-maxqueue", int64(a.SchedMaxQueue), int64(b.SchedMaxQueue))
	add("sched-batched", int64(a.SchedBatched), int64(b.SchedBatched))
	add("fs-detects", int64(a.Detects), int64(b.Detects))
	add("fs-recovers", int64(a.Recovers), int64(b.Recovers))
	add("fs-phases", int64(a.Phases), int64(b.Phases))
	add("marks", int64(a.Marks), int64(b.Marks))
	for _, k := range unionKeys(a.Faults, b.Faults) {
		add("fault["+k+"]", int64(a.Faults[k]), int64(b.Faults[k]))
	}
	for _, k := range unionTypeKeys(a.Types, b.Types) {
		at, bt := a.Types[k], b.Types[k]
		var ar, aw, af, br, bw, bf int
		if at != nil {
			ar, aw, af = at.Reads, at.Writes, at.Faults
		}
		if bt != nil {
			br, bw, bf = bt.Reads, bt.Writes, bt.Faults
		}
		add("type["+k+"].reads", int64(ar), int64(br))
		add("type["+k+"].writes", int64(aw), int64(bw))
		add("type["+k+"].faults", int64(af), int64(bf))
	}
	return strings.Join(lines, "\n")
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func unionKeys(a, b map[string]int) []string {
	set := map[string]bool{}
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func unionTypeKeys(a, b map[string]*TypeStat) []string {
	set := map[string]bool{}
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
