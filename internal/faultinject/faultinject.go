// Package faultinject implements the paper's fault-injection pseudo-device:
// a layer directly beneath the file system that injects block read/write
// failures and block corruption according to the fail-partial failure model
// (§2 and §4.2 of the paper).
//
// Faults may be sticky (permanent) or transient (fire a bounded number of
// times), may target a contiguous range of blocks (spatial locality), and —
// the key idea of the paper — may be *type-aware*: armed against a specific
// on-disk structure ("fail the next inode write") via a per-file-system
// TypeResolver that classifies raw block numbers by reading the on-disk
// image, gray-box style.
package faultinject

import (
	"maps"
	"math/rand"
	"sort"
	"sync"

	"ironfs/internal/disk"
	"ironfs/internal/iron"
	"ironfs/internal/stat"
	"ironfs/internal/trace"
)

// TypeResolver classifies a raw block number as one of the file system's
// on-disk structure types. Implementations live in each file-system package
// and derive the classification from the on-disk image alone (gray-box
// knowledge), exactly as the paper's per-file-system injectors do.
type TypeResolver interface {
	Classify(block int64) iron.BlockType
}

// ResolverFunc adapts a function to the TypeResolver interface.
type ResolverFunc func(block int64) iron.BlockType

// Classify implements TypeResolver.
func (f ResolverFunc) Classify(block int64) iron.BlockType { return f(block) }

// CorruptFunc mutates a block's data in place to model corruption. The
// block number is provided so corrupters can forge type-specific contents
// (e.g., a "similar but wrong" structure per §4.2).
type CorruptFunc func(block int64, data []byte)

// BlockRange selects blocks [Start, End). The zero value matches any block.
type BlockRange struct {
	Start, End int64
}

// contains reports whether the range matches block n.
func (r BlockRange) contains(n int64) bool {
	if r.Start == 0 && r.End == 0 {
		return true
	}
	return n >= r.Start && n < r.End
}

// Fault is one armed fault. A fault fires when an I/O of the matching
// operation touches a matching block; a sticky fault fires forever, a
// transient one at most Count times (default 1).
type Fault struct {
	// Class selects read failure, write failure, or corruption.
	Class iron.FaultClass
	// Target restricts the fault to blocks of one type; empty matches
	// any type (type-oblivious injection).
	Target iron.BlockType
	// Range restricts the fault to a block range (spatial locality);
	// the zero value matches anywhere.
	Range BlockRange
	// Sticky marks the fault permanent. Non-sticky faults fire Count
	// times and then vanish (a transient fault).
	Sticky bool
	// Count is the number of firings for a transient fault; 0 means 1.
	Count int
	// Corrupt overrides the default corruption (deterministic noise).
	// Only used when Class is Corruption.
	Corrupt CorruptFunc

	fired int
	// latched pins a sticky type-targeted fault to the first block it
	// fires on: the paper's injector fails *a* block of a given type (a
	// single latent-faulty sector), not every instance of the type.
	latched   bool
	latchedAt int64
}

// TraceEntry records one I/O seen by the injection layer, for failure-policy
// inference and applicability (gray-cell) computation.
type TraceEntry struct {
	Op      disk.Op
	Block   int64
	Type    iron.BlockType
	Faulted bool
	Err     error
}

// Device wraps an underlying block device, classifying and tracing every
// I/O and applying armed faults. It implements disk.Device.
type Device struct {
	inner    disk.Device
	resolver TypeResolver
	// tr is the run's semantic tracer, discovered from the inner device
	// at construction (trace.Of); the fault layer contributes the
	// type-classified view of every I/O plus fault-firing events.
	tr *trace.Tracer

	mu     sync.Mutex
	faults []*Fault
	// counts is the per-(type, op) tally of every I/O seen; trace keeps
	// the raw entries too, but only while tracing is on.
	counts  map[iron.BlockType][2]int
	trace   []TraceEntry
	tracing bool
	seed    int64
	rng     *rand.Rand
	fires   int
}

// DefaultSeed seeds the corruption-noise RNG when the caller does not
// supply one. Runs that log their seed (cmd/ironfp does) are reproducible
// by passing it back via -seed.
const DefaultSeed int64 = 0x1207

// New wraps dev with a fault-injection layer. resolver may be nil, in which
// case every block classifies as iron.Unclassified (type-oblivious mode).
// The corruption RNG is seeded with DefaultSeed.
func New(dev disk.Device, resolver TypeResolver) *Device {
	return NewSeeded(dev, resolver, DefaultSeed)
}

// NewSeeded is New with a caller-supplied RNG seed, so corruption-noise
// failures seen in one run can be replayed exactly.
func NewSeeded(dev disk.Device, resolver TypeResolver, seed int64) *Device {
	return &Device{inner: dev, resolver: resolver, tr: trace.Of(dev),
		seed: seed, rng: rand.New(rand.NewSource(seed)),
		counts: map[iron.BlockType][2]int{}}
}

// Seed returns the seed the corruption RNG was created with.
func (d *Device) Seed() int64 { return d.seed }

// Tracer implements trace.Provider, so file systems built over the fault
// layer inherit the run's tracer.
func (d *Device) Tracer() *trace.Tracer { return d.tr }

// SetResolver installs (or replaces) the type resolver.
func (d *Device) SetResolver(r TypeResolver) {
	d.mu.Lock()
	d.resolver = r
	d.mu.Unlock()
}

// Arm adds a fault. The same fault value may not be armed twice.
func (d *Device) Arm(f *Fault) {
	d.mu.Lock()
	d.faults = append(d.faults, f)
	d.mu.Unlock()
}

// Disarm removes all armed faults.
func (d *Device) Disarm() {
	d.mu.Lock()
	d.faults = nil
	d.mu.Unlock()
}

// Fired returns the total number of fault firings so far.
func (d *Device) Fired() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fires
}

// SetTracing turns retention of raw per-I/O trace entries on or off. It is
// off by default — a long-lived device would grow without bound — and does
// not affect AccessCounts, which are always kept.
func (d *Device) SetTracing(on bool) {
	d.mu.Lock()
	d.tracing = on
	d.mu.Unlock()
}

// Trace returns a copy of the I/O trace retained while tracing was on.
func (d *Device) Trace() []TraceEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]TraceEntry, len(d.trace))
	copy(out, d.trace)
	return out
}

// ResetTrace discards the I/O trace and zeroes the access counts.
func (d *Device) ResetTrace() {
	d.mu.Lock()
	d.trace = d.trace[:0]
	clear(d.counts)
	d.mu.Unlock()
}

// AccessCounts returns the per-(type, op) access counts since the last
// ResetTrace, which the fingerprinter uses to decide which scenarios are
// applicable.
func (d *Device) AccessCounts() map[iron.BlockType][2]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return maps.Clone(d.counts)
}

// classify consults the resolver. Caller must not hold d.mu (resolvers read
// the device through this same layer's inner device).
func (d *Device) classify(block int64) iron.BlockType {
	d.mu.Lock()
	r := d.resolver
	d.mu.Unlock()
	if r == nil {
		return iron.Unclassified
	}
	return r.Classify(block)
}

// match finds the first armed fault matching (class, type, block) and
// consumes one firing. Caller holds d.mu.
func (d *Device) matchLocked(class iron.FaultClass, bt iron.BlockType, block int64) *Fault {
	for i, f := range d.faults {
		if f.Class != class {
			continue
		}
		if f.Target != "" && f.Target != bt {
			continue
		}
		if !f.Range.contains(block) {
			continue
		}
		if f.Sticky && f.Target != "" {
			if f.latched && f.latchedAt != block {
				continue
			}
			f.latched = true
			f.latchedAt = block
		}
		if !f.Sticky {
			limit := f.Count
			if limit <= 0 {
				limit = 1
			}
			if f.fired >= limit {
				continue
			}
			f.fired++
			if f.fired >= limit {
				// Retire the exhausted transient fault.
				d.faults = append(d.faults[:i:i], d.faults[i+1:]...)
			}
		} else {
			f.fired++
		}
		d.fires++
		return f
	}
	return nil
}

// record logs one I/O into the applicability trace and, when a tracer is
// attached, emits the type-classified event: at is the simulated start
// time, svc the service duration (both 0 when the I/O never reached the
// media).
func (d *Device) record(op disk.Op, block int64, bt iron.BlockType, faulted bool, err error, at, svc int64) {
	d.mu.Lock()
	c := d.counts[bt]
	c[op]++
	d.counts[bt] = c
	if d.tracing {
		d.trace = append(d.trace, TraceEntry{Op: op, Block: block, Type: bt, Faulted: faulted, Err: err})
	}
	d.mu.Unlock()
	if d.tr.Enabled() {
		kind := trace.KindRead
		if op == disk.OpWrite {
			kind = trace.KindWrite
		}
		d.tr.IO(trace.LayerFault, kind, block, bt, at, svc, err)
	}
}

// defaultCorrupt overwrites the block with deterministic pseudo-random
// noise ("random noise" corruption per §4.2).
func (d *Device) defaultCorrupt(data []byte) {
	d.mu.Lock()
	rng := d.rng
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	d.mu.Unlock()
}

// noteFired counts a fault firing in the live-metrics registry, keyed
// by fault class and the block type it hit. Firings are rare, so the
// handle is resolved per event rather than cached.
func noteFired(class iron.FaultClass, bt iron.BlockType) {
	stat.C("fault_fired_total", "class", class.String(), "type", string(bt)).Inc()
}

// ReadBlock implements disk.Device: applies read-failure and corruption
// faults. A read failure returns disk.ErrIO without touching the media; a
// corruption reads the real data and then mutates the returned buffer.
func (d *Device) ReadBlock(n int64, buf []byte) error {
	bt := d.classify(n)
	at := d.tr.Now()

	d.mu.Lock()
	fail := d.matchLocked(iron.ReadFailure, bt, n)
	d.mu.Unlock()
	if fail != nil {
		noteFired(iron.ReadFailure, bt)
		d.tr.FaultFired(iron.ReadFailure, n, bt, fail.Sticky)
		d.record(disk.OpRead, n, bt, true, disk.ErrIO, at, 0)
		return disk.ErrIO
	}

	if err := d.inner.ReadBlock(n, buf); err != nil {
		d.record(disk.OpRead, n, bt, false, err, at, d.tr.Now()-at)
		return err
	}

	d.mu.Lock()
	corrupt := d.matchLocked(iron.Corruption, bt, n)
	d.mu.Unlock()
	if corrupt != nil {
		if corrupt.Corrupt != nil {
			corrupt.Corrupt(n, buf)
		} else {
			d.defaultCorrupt(buf)
		}
		noteFired(iron.Corruption, bt)
		d.tr.FaultFired(iron.Corruption, n, bt, corrupt.Sticky)
		d.record(disk.OpRead, n, bt, true, nil, at, d.tr.Now()-at)
		return nil
	}
	d.record(disk.OpRead, n, bt, false, nil, at, d.tr.Now()-at)
	return nil
}

// WriteBlock implements disk.Device: applies write-failure, phantom-write
// and misdirected-write faults. A write failure returns disk.ErrIO and
// drops the write; a phantom write reports success while dropping the
// write; a misdirected write reports success but lands the data on the
// following block — both exactly the firmware bugs of §2.2, and both
// invisible to any detection short of end-to-end checksums.
func (d *Device) WriteBlock(n int64, buf []byte) error {
	return d.writeOne(n, buf)
}

// writeOne applies the full write-fault pipeline (failure, phantom,
// misdirected) to a single block write.
func (d *Device) writeOne(n int64, buf []byte) error {
	bt := d.classify(n)
	at := d.tr.Now()

	d.mu.Lock()
	fail := d.matchLocked(iron.WriteFailure, bt, n)
	d.mu.Unlock()
	if fail != nil {
		noteFired(iron.WriteFailure, bt)
		d.tr.FaultFired(iron.WriteFailure, n, bt, fail.Sticky)
		d.record(disk.OpWrite, n, bt, true, disk.ErrIO, at, 0)
		return disk.ErrIO
	}

	d.mu.Lock()
	phantom := d.matchLocked(iron.PhantomWrite, bt, n)
	d.mu.Unlock()
	if phantom != nil {
		noteFired(iron.PhantomWrite, bt)
		d.tr.FaultFired(iron.PhantomWrite, n, bt, phantom.Sticky)
		d.record(disk.OpWrite, n, bt, true, nil, at, 0)
		return nil // "completed" — the media never sees it
	}

	d.mu.Lock()
	misdir := d.matchLocked(iron.MisdirectedWrite, bt, n)
	d.mu.Unlock()
	if misdir != nil {
		target := n + 1
		if target >= d.inner.NumBlocks() {
			target = n - 1
		}
		noteFired(iron.MisdirectedWrite, bt)
		d.tr.FaultFired(iron.MisdirectedWrite, n, bt, misdir.Sticky)
		err := d.inner.WriteBlock(target, buf)
		d.record(disk.OpWrite, n, bt, true, err, at, d.tr.Now()-at)
		return err // correct data, wrong location, success reported
	}

	err := d.inner.WriteBlock(n, buf)
	d.record(disk.OpWrite, n, bt, false, err, at, d.tr.Now()-at)
	return err
}

// WriteBatch implements disk.Device. The batch is issued in elevator
// (sorted) order like the underlying disk would, but one request at a time
// so that the gray-box type resolver observes each write as soon as it
// lands (a new inode committed early in the batch lets the resolver
// classify the directory block that follows it). Each write is checked
// against the armed faults; a failed write is dropped while the rest of
// the batch still completes — as a queued drive would — and the first
// error is reported.
func (d *Device) WriteBatch(reqs []disk.Request) error {
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return reqs[order[a]].Block < reqs[order[b]].Block })
	var firstErr error
	for _, i := range order {
		r := reqs[i]
		if err := d.writeOne(r.Block, r.Data); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Barrier implements disk.Device.
func (d *Device) Barrier() error { return d.inner.Barrier() }

// BlockSize implements disk.Device.
func (d *Device) BlockSize() int { return d.inner.BlockSize() }

// NumBlocks implements disk.Device.
func (d *Device) NumBlocks() int64 { return d.inner.NumBlocks() }

// Close implements disk.Device.
func (d *Device) Close() error { return d.inner.Close() }

// Clock forwards the simulated clock of the wrapped device, keeping
// disk.ClockOf discovery working through the fault layer.
func (d *Device) Clock() *disk.Clock { return disk.ClockOf(d.inner) }
