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
	// counts is the per-(type, op) tally of every I/O seen; the I/O
	// itself is in the tracer's fault-layer events.
	counts map[iron.BlockType][2]int
	seed   int64
	rng    *rand.Rand
	fires  int
	// fired holds the fault_fired_total{class,type} handles, each resolved
	// at the first firing of its class on its block type.
	fired stat.Counters[firing]
}

// firing is the label pair of a fault_fired_total counter.
type firing struct {
	class iron.FaultClass
	bt    iron.BlockType
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

// ResetCounts zeroes the access counts.
func (d *Device) ResetCounts() {
	d.mu.Lock()
	clear(d.counts)
	d.mu.Unlock()
}

// AccessCounts returns the per-(type, op) access counts since the last
// ResetCounts, which the fingerprinter uses to decide which scenarios are
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
	return classifyWith(r, block)
}

// classifyWith classifies block with r; a nil resolver classifies nothing.
func classifyWith(r TypeResolver, block int64) iron.BlockType {
	if r == nil {
		return iron.Unclassified
	}
	return r.Classify(block)
}

// limit is how many times a transient fault fires.
func (f *Fault) limit() int {
	if f.Count <= 0 {
		return 1
	}
	return f.Count
}

// fires reports whether the fault would fire on an I/O of its class to
// block, of type bt, without consuming a firing.
func (f *Fault) fires(bt iron.BlockType, block int64) bool {
	if f.Target != "" && f.Target != bt {
		return false
	}
	if !f.Range.contains(block) {
		return false
	}
	if f.Sticky {
		return f.Target == "" || !f.latched || f.latchedAt == block
	}
	return f.fired < f.limit()
}

// fire finds the first armed fault matching (class, type, block), consumes
// one firing and records it in each of its sinks: the device's firing
// count, fault_fired_total{class,type} in the registry and the trace. It
// returns nil when no fault fires.
func (d *Device) fire(class iron.FaultClass, bt iron.BlockType, block int64) *Fault {
	d.mu.Lock()
	for i, f := range d.faults {
		if f.Class != class || !f.fires(bt, block) {
			continue
		}
		if f.Sticky && f.Target != "" {
			f.latched = true
			f.latchedAt = block
		}
		f.fired++
		if !f.Sticky && f.fired >= f.limit() {
			// Retire the exhausted transient fault.
			d.faults = append(d.faults[:i:i], d.faults[i+1:]...)
		}
		d.fires++
		c := d.fired.Get(firing{class, bt}, stat.Default(), "fault_fired_total", "class", class.String(), "type", string(bt))
		d.mu.Unlock()
		c.Inc()
		d.tr.FaultFired(class, block, bt, f.Sticky)
		return f
	}
	d.mu.Unlock()
	return nil
}

// writeArmed reports whether any armed write fault — failure, phantom or
// misdirected — would fire on a write to block, of type bt.
func (d *Device) writeArmed(bt iron.BlockType, block int64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, f := range d.faults {
		switch f.Class {
		case iron.WriteFailure, iron.PhantomWrite, iron.MisdirectedWrite:
			if f.fires(bt, block) {
				return true
			}
		}
	}
	return false
}

// record counts one I/O for the applicability (gray-cell) computation and
// traces the type-classified event, of kind op.String(): at is the
// simulated start time, svc the service duration (both 0 when the I/O
// never reached the media).
func (d *Device) record(op disk.Op, block int64, bt iron.BlockType, err error, at, svc int64) {
	d.mu.Lock()
	c := d.counts[bt]
	c[op]++
	d.counts[bt] = c
	d.mu.Unlock()
	d.tr.IO(trace.LayerFault, op.String(), block, bt, at, svc, err)
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

// ReadBlock implements disk.Device: applies read-failure and corruption
// faults. A read failure returns disk.ErrIO without touching the media; a
// corruption reads the real data and then mutates the returned buffer.
func (d *Device) ReadBlock(n int64, buf []byte) error {
	bt := d.classify(n)
	at := d.tr.Now()

	if d.fire(iron.ReadFailure, bt, n) != nil {
		d.record(disk.OpRead, n, bt, disk.ErrIO, at, 0)
		return disk.ErrIO
	}

	if err := d.inner.ReadBlock(n, buf); err != nil {
		d.record(disk.OpRead, n, bt, err, at, d.tr.Now()-at)
		return err
	}

	if corrupt := d.fire(iron.Corruption, bt, n); corrupt != nil {
		if corrupt.Corrupt != nil {
			corrupt.Corrupt(n, buf)
		} else {
			d.defaultCorrupt(buf)
		}
		d.record(disk.OpRead, n, bt, nil, at, d.tr.Now()-at)
		return nil
	}
	d.record(disk.OpRead, n, bt, nil, at, d.tr.Now()-at)
	return nil
}

// WriteBlock implements disk.Device: applies write-failure, phantom-write
// and misdirected-write faults. A write failure returns disk.ErrIO and
// drops the write; a phantom write reports success while dropping the
// write; a misdirected write reports success but lands the data on the
// following block — both exactly the firmware bugs of §2.2, and both
// invisible to any detection short of end-to-end checksums.
func (d *Device) WriteBlock(n int64, buf []byte) error {
	return d.writeOne(n, d.classify(n), buf)
}

// writeOne applies the full write-fault pipeline (failure, phantom,
// misdirected) to a single block write of type bt.
func (d *Device) writeOne(n int64, bt iron.BlockType, buf []byte) error {
	at := d.tr.Now()

	if d.fire(iron.WriteFailure, bt, n) != nil {
		d.record(disk.OpWrite, n, bt, disk.ErrIO, at, 0)
		return disk.ErrIO
	}

	if d.fire(iron.PhantomWrite, bt, n) != nil {
		d.record(disk.OpWrite, n, bt, nil, at, 0)
		return nil // "completed" — the media never sees it
	}

	if d.fire(iron.MisdirectedWrite, bt, n) != nil {
		target := n + 1
		if target >= d.inner.NumBlocks() {
			target = n - 1
		}
		err := d.inner.WriteBlock(target, buf)
		d.record(disk.OpWrite, n, bt, err, at, d.tr.Now()-at)
		return err // correct data, wrong location, success reported
	}

	err := d.inner.WriteBlock(n, buf)
	d.record(disk.OpWrite, n, bt, err, at, d.tr.Now()-at)
	return err
}

// WriteBatch implements disk.Device. The batch is written in elevator
// (sorted) order like the underlying disk would, and every block meets the
// resolver and the armed faults exactly as a write of its own would: the
// gray-box resolver classifies it with every earlier block of the batch on
// the media (a new inode committed early in the batch lets the resolver
// classify the directory block that follows it), and a failed write is
// dropped while the rest of the batch still completes — as a queued drive
// would — with the first error reported.
//
// What reaches the inner device is one command per run, not per block: a
// maximal run of consecutive blocks that no armed write fault can match
// goes down as one WriteBatch, so the layer above keeps the coalescing it
// did. A run ends early wherever holding a block back could change the
// next block's class: after a block the resolver's last walk read, and
// after every block when the resolver is not a TypeMap, whose read set is
// unknown. A block an armed write fault could match flushes the run and
// takes writeOne on its own.
func (d *Device) WriteBatch(reqs []disk.Request) error {
	reqs = disk.ElevatorOrder(reqs)
	d.mu.Lock()
	r := d.resolver
	d.mu.Unlock()
	tm, _ := r.(*TypeMap)
	var walks int64
	if tm != nil {
		walks = tm.Rebuilds()
	}
	nblocks, bs := d.inner.NumBlocks(), d.inner.BlockSize()

	// The pending run is reqs[start:start+len(types)], not yet written;
	// types[k] is the class of its k-th block. dep marks a run whose last
	// block the next block's class may depend on.
	var firstErr error
	var typeBuf [64]iron.BlockType
	types := typeBuf[:0]
	start, dep := 0, false
	flush := func() {
		if len(types) > 0 {
			firstErr = first(firstErr, d.writeRun(reqs[start:start+len(types)], types))
			types = types[:0]
		}
	}
	for i := range reqs {
		req := &reqs[i]
		if len(types) > 0 && (dep || req.Block != reqs[i-1].Block+1) {
			flush()
		}
		bt := classifyWith(r, req.Block)
		if tm != nil {
			// A write landing from outside the batch can make this
			// Classify walk again, and the walk may have read a block
			// still pending: it classified from stale contents.
			if w := tm.Rebuilds(); w != walks {
				if tm.readsAny(reqs[start : start+len(types)]) {
					flush()
					bt = classifyWith(r, req.Block)
					w = tm.Rebuilds()
				}
				walks = w
			}
		}
		if req.Block < 0 || req.Block >= nblocks || len(req.Data) != bs || d.writeArmed(bt, req.Block) {
			flush()
			firstErr = first(firstErr, d.writeOne(req.Block, bt, req.Data))
			continue
		}
		if len(types) == 0 {
			start = i
		}
		types = append(types, bt)
		dep = r != nil && (tm == nil || tm.Reads(req.Block))
	}
	flush()
	return firstErr
}

// writeRun hands a run of consecutive blocks, already classified as types,
// to the inner device as one command, and records each block. The
// command's service time goes to the run's first block and 0 to the rest,
// so the fault layer's Svc still sums to the disk's busy time. A lone
// block goes down as the plain write it is. Blocks join a run only in
// range and whole, so the disk fails a run only as a whole (closed), and
// its error is every block's.
func (d *Device) writeRun(run []disk.Request, types []iron.BlockType) error {
	at := d.tr.Now()
	var err error
	if len(run) == 1 {
		err = d.inner.WriteBlock(run[0].Block, run[0].Data)
	} else {
		err = d.inner.WriteBatch(run)
	}
	svc := d.tr.Now() - at
	for i := range run {
		d.record(disk.OpWrite, run[i].Block, types[i], err, at, svc)
		svc = 0
	}
	return err
}

// first returns err unless an earlier error is already held.
func first(held, err error) error {
	if held != nil {
		return held
	}
	return err
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
