// Package stat is the live-metrics pillar of the observability story:
// an always-on, race-safe registry of counters, gauges, and latency
// histograms recorded on the simulated clock. Because virtual time is
// deterministic, histograms keep *exact* per-value counts (not
// power-of-two buckets), so p50/p95/p99/p999 are true order statistics
// and two identical runs snapshot byte-identically — the same
// determinism discipline irontrace and ironvet already enforce.
//
// Each layer instance resolves its handles once from the process-wide
// Default registry (swappable for tests): at construction for a fixed key
// set, at a key's first event (Counters) for open-ended labels. It then
// records through the handle from the one call that emits the event to
// every sink: a counter increment is one atomic add, a histogram
// observation is one sharded map update. The registry itself is only
// locked when a new handle is interned or a snapshot is taken.
package stat

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry interns metric handles by key. Keys are rendered as
// name{k1=v1,k2=v2} with label pairs sorted by label name, so the same
// (name, labels) always maps to the same handle regardless of argument
// order.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

var defaultReg atomic.Pointer[Registry]

func init() { defaultReg.Store(NewRegistry()) }

// Default returns the process-wide registry every layer records into.
func Default() *Registry { return defaultReg.Load() }

// SetDefault swaps the process-wide registry and returns the previous
// one. Tests install a fresh registry before building a stack so the
// handles the stack resolves are theirs alone; handles resolved earlier
// keep pointing at the old registry.
func SetDefault(r *Registry) *Registry {
	if r == nil {
		panic("stat: SetDefault(nil)")
	}
	return defaultReg.Swap(r)
}

// Key renders the canonical metric key for a name and alternating
// label-name/label-value pairs.
func Key(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic("stat: odd label list for metric " + name)
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter resolves (or creates) the counter for key(name, labels).
func (r *Registry) Counter(name string, labels ...string) *Counter {
	k := Key(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge resolves (or creates) the gauge for key(name, labels).
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	k := Key(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram resolves (or creates) the histogram for key(name, labels).
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	k := Key(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		h = NewHistogram()
		r.hists[k] = h
	}
	return h
}

// C, G, and H resolve handles from the Default registry; they are the
// forms layer constructors use.
func C(name string, labels ...string) *Counter   { return Default().Counter(name, labels...) }
func G(name string, labels ...string) *Gauge     { return Default().Gauge(name, labels...) }
func H(name string, labels ...string) *Histogram { return Default().Histogram(name, labels...) }

// Counters keeps one owner's handles of a counter family, each resolved
// from a registry the first time its key is counted: an owner whose events
// carry open-ended labels (a block type, a subsystem, a volume) renders a
// key and takes the registry lock once per key rather than once per event,
// and the registry still lists only what was counted. The zero value is
// ready; the owner serializes its calls.
type Counters[K comparable] struct{ m map[K]*Counter }

// Get returns k's counter, resolving r.Counter(name, labels...) at k's
// first use.
func (cs *Counters[K]) Get(k K, r *Registry, name string, labels ...string) *Counter {
	c := cs.m[k]
	if c == nil {
		if cs.m == nil {
			cs.m = make(map[K]*Counter)
		}
		c = r.Counter(name, labels...)
		cs.m[k] = c
	}
	return c
}

// Reset zeroes every registered metric in place, through the live
// handles, so a second identical run over the same stack starts from
// the same state (the double-run byte-identity gates depend on this).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge samples an instantaneous level (queue depth, cache residency).
// It keeps the last sample plus max/sum/count so a snapshot can report
// both the final level and the shape of the run.
type Gauge struct {
	mu   sync.Mutex
	last int64
	max  int64
	sum  int64
	n    int64
}

// Set records one sample of the level.
func (g *Gauge) Set(v int64) {
	g.mu.Lock()
	g.last = v
	if g.n == 0 || v > g.max {
		g.max = v
	}
	g.sum += v
	g.n++
	g.mu.Unlock()
}

// Value reads the most recent sample.
func (g *Gauge) Value() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.last
}

// Max reads the largest sample seen.
func (g *Gauge) Max() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

func (g *Gauge) snapshot() (last, max, sum, n int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.last, g.max, g.sum, g.n
}

func (g *Gauge) reset() {
	g.mu.Lock()
	g.last, g.max, g.sum, g.n = 0, 0, 0, 0
	g.mu.Unlock()
}

// histShards spreads histogram contention: observations hash by value,
// so concurrent recorders rarely collide on a shard lock. Must stay a
// power of two.
const histShards = 8

// Histogram keeps an exact value→count map of int64 observations
// (virtual-clock nanoseconds, transaction sizes, ...). Simulated
// service times are heavily quantized, so the map stays small relative
// to the observation count, and quantiles computed from it are exact
// order statistics rather than bucketed estimates.
type Histogram struct {
	shards [histShards]histShard
}

type histShard struct {
	mu     sync.Mutex
	counts map[int64]int64
	n      int64
	sum    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	for i := range h.shards {
		h.shards[i].counts = make(map[int64]int64)
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	s := &h.shards[uint64(v)&(histShards-1)]
	s.mu.Lock()
	s.counts[v]++
	s.n++
	s.sum += v
	s.mu.Unlock()
}

// Merge folds every observation of o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	for i := range o.shards {
		s := &o.shards[i]
		s.mu.Lock()
		for v, n := range s.counts {
			d := &h.shards[uint64(v)&(histShards-1)]
			d.mu.Lock()
			d.counts[v] += n
			d.n += n
			d.sum += v * n
			d.mu.Unlock()
		}
		s.mu.Unlock()
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		n += s.n
		s.mu.Unlock()
	}
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	var sum int64
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		sum += s.sum
		s.mu.Unlock()
	}
	return sum
}

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() int64 {
	n, sum := h.Count(), h.Sum()
	if n == 0 {
		return 0
	}
	return sum / n
}

// sorted returns the distinct observed values in ascending order with
// their counts, merged across shards.
func (h *Histogram) sorted() (vals []int64, counts map[int64]int64, n int64) {
	counts = make(map[int64]int64)
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		for v, c := range s.counts {
			counts[v] += c
		}
		n += s.n
		s.mu.Unlock()
	}
	vals = make([]int64, 0, len(counts))
	for v := range counts {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals, counts, n
}

// Quantile returns the exact q-quantile by the nearest-rank method:
// the ceil(q*n)-th smallest observation (the minimum for q<=0, the
// maximum for q>=1). Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	vals, counts, n := h.sorted()
	return quantile(vals, counts, n, q)
}

// Quantiles returns the exact quantiles for each q in one merged pass.
func (h *Histogram) Quantiles(qs ...float64) []int64 {
	vals, counts, n := h.sorted()
	out := make([]int64, len(qs))
	for i, q := range qs {
		out[i] = quantile(vals, counts, n, q)
	}
	return out
}

func quantile(vals []int64, counts map[int64]int64, n int64, q float64) int64 {
	if n == 0 || len(vals) == 0 {
		return 0
	}
	rank := int64(math.Ceil(float64(n) * q))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var seen int64
	for _, v := range vals {
		seen += counts[v]
		if seen >= rank {
			return v
		}
	}
	return vals[len(vals)-1]
}

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() int64 {
	vals, _, n := h.sorted()
	if n == 0 {
		return 0
	}
	return vals[0]
}

// Max returns the largest observation, or 0 if empty.
func (h *Histogram) Max() int64 {
	vals, _, n := h.sorted()
	if n == 0 {
		return 0
	}
	return vals[len(vals)-1]
}

func (h *Histogram) reset() {
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		s.counts = make(map[int64]int64)
		s.n = 0
		s.sum = 0
		s.mu.Unlock()
	}
}

// String renders the headline order statistics; values are in the
// recorded unit (nanoseconds for latencies). Deterministic: every field
// is an integer.
func (h *Histogram) String() string {
	n := h.Count()
	if n == 0 {
		return "n=0"
	}
	q := h.Quantiles(0.50, 0.99, 0.999)
	return fmt.Sprintf("n=%d mean=%d p50=%d p99=%d p999=%d max=%d",
		n, h.Mean(), q[0], q[1], q[2], h.Max())
}
