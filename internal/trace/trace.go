// Package trace is the observability backbone of the IRON reproduction: a
// stdlib-only, allocation-light semantic block-level tracing subsystem in
// the spirit of the Arpaci-Dusseau group's semantic block-level analysis.
//
// A Tracer collects structured Events from every layer of the storage
// stack — mechanical I/O at the simulated disk, type-classified I/O and
// fault firings at the injection layer, epoch-stamped writes at the
// volatile write cache, hits/misses/evictions at the buffer cache, and
// semantic annotations (journal phases, detection/recovery actions bridged
// from iron.Recorder) from the file systems themselves. Harnesses attach
// the resulting event stream to each fingerprint cell and crash-state
// verdict as an *evidence trace*: the I/O sequence that led to the grade.
//
// Like iron.Recorder, a nil *Tracer is valid and discards everything, so
// production mounts and the Table 6 benchmark path pay nothing. All
// timestamps come from the deterministic simulated clock; identical runs
// therefore yield byte-identical traces (pinned by a golden test).
package trace

import (
	"strconv"
	"sync"

	"ironfs/internal/iron"
)

// Layer names used in Event.Layer, bottom of the stack first.
const (
	// LayerDisk is the simulated disk: mechanical service events.
	LayerDisk = "disk"
	// LayerFault is the fault-injection layer: type-classified I/O and
	// fault firings.
	LayerFault = "fault"
	// LayerCache is the modelled volatile write cache
	// (faultinject.CrashDevice): epoch-stamped logged writes and barrier
	// seals, 1:1 with the device's write log.
	LayerCache = "cache"
	// LayerSched is the I/O scheduler (sched.Scheduler): enqueued writes,
	// coalesced runs, elevator dispatches, and queue drains.
	LayerSched = "sched"
	// LayerBuf is the in-memory buffer cache (bcache): hits, misses,
	// evictions.
	LayerBuf = "bcache"
	// LayerFS is the file system: journal phases and the detection and
	// recovery actions bridged from iron.Recorder.
	LayerFS = "fs"
	// LayerHarness marks harness context: scenario and crash-state
	// boundaries in a dumped trace.
	LayerHarness = "harness"
)

// Event kinds used in Event.Kind.
const (
	KindRead    = "read"
	KindWrite   = "write"
	KindBatch   = "batch"
	KindBarrier = "barrier"
	KindFault   = "fault"
	KindHit     = "hit"
	KindMiss    = "miss"
	KindEvict   = "evict"
	KindPhase   = "phase"
	// Scheduler kinds: a write accepted into the queue, a run of adjacent
	// blocks coalesced into one batch, that batch dispatched to the disk,
	// and a full drain of the queue (barrier or close).
	KindEnqueue  = "enqueue"
	KindCoalesce = "coalesce"
	KindDispatch = "dispatch"
	KindDrain    = "drain"
	KindDetect   = "detect"
	KindRecover  = "recover"
	KindMark     = "mark"
)

// NoBlock is the Event.Block value for events that are not addressed to a
// single block (barriers, phases, marks).
const NoBlock int64 = -1

// Event is one structured trace record. Field order is the NDJSON field
// order; all values are integers, booleans, or strings, so serialization
// is byte-deterministic. Zero-valued optional fields are omitted to keep
// NDJSON lines compact.
type Event struct {
	// Seq is the event's position in its tracer's stream, from 0.
	Seq int `json:"seq"`
	// T is the simulated-clock timestamp in nanoseconds at which the
	// event began (for serviced I/O) or was emitted.
	T int64 `json:"t"`
	// Layer is the emitting layer (Layer* constants).
	Layer string `json:"layer"`
	// Kind is the event kind (Kind* constants).
	Kind string `json:"kind"`
	// Block is the target block number, or NoBlock.
	Block int64 `json:"block"`
	// Type is the iron.BlockType the block classified as, when known.
	Type string `json:"type,omitempty"`
	// Svc is the simulated service time of the operation in nanoseconds.
	Svc int64 `json:"svc,omitempty"`
	// Fault names the iron.FaultClass for fault firings.
	Fault string `json:"fault,omitempty"`
	// Sticky marks a permanent (vs transient) fault firing.
	Sticky bool `json:"sticky,omitempty"`
	// Epoch is the write-cache epoch (cache layer).
	Epoch int `json:"epoch,omitempty"`
	// Depth is a queue depth: open-epoch writes at the cache layer,
	// request count for a disk batch.
	Depth int `json:"depth,omitempty"`
	// Level is the IRON taxonomy level for detect/recover events.
	Level string `json:"level,omitempty"`
	// Err is the error the operation surfaced, if any.
	Err string `json:"err,omitempty"`
	// Detail is free-form context ("journal-commit", a mark label, ...).
	Detail string `json:"detail,omitempty"`
}

// Tracer accumulates events. It is safe for concurrent use; the sequence
// number orders concurrent emissions. A nil *Tracer discards everything.
type Tracer struct {
	mu     sync.Mutex
	now    func() int64
	events []Event
}

// New returns an empty tracer stamping events with the supplied simulated
// clock function (nanoseconds). A nil now function stamps zero; layers
// that know their own clock (the disk) pass explicit timestamps instead.
func New(now func() int64) *Tracer { return &Tracer{now: now} }

// Enabled reports whether the tracer collects events, so hot paths can
// skip argument preparation entirely when tracing is off.
func (t *Tracer) Enabled() bool { return t != nil }

// Now returns the current simulated time per the tracer's clock function,
// or 0 for a nil tracer or clock.
func (t *Tracer) Now() int64 {
	if t == nil || t.now == nil {
		return 0
	}
	return t.now()
}

// emit appends e, assigning its sequence number. The timestamp must
// already be set by the caller (emitNow stamps it from the clock).
func (t *Tracer) emit(e Event) {
	t.mu.Lock()
	e.Seq = len(t.events)
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// emitNow stamps e with the tracer clock and appends it.
func (t *Tracer) emitNow(e Event) {
	if t.now != nil {
		e.T = t.now()
	}
	t.emit(e)
}

// emitAt appends e at its own timestamp, or stamps it with the tracer
// clock when that is negative.
func (t *Tracer) emitAt(e Event) {
	if e.T < 0 {
		t.emitNow(e)
		return
	}
	t.emit(e)
}

// Events returns a copy of the collected events in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Len returns the number of collected events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Reset discards all collected events.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = t.events[:0]
	t.mu.Unlock()
}

// IO records a serviced block operation: layer and kind per the constants
// above, at/svc in simulated nanoseconds (at < 0 stamps the tracer clock),
// typ empty when the layer cannot classify the block.
func (t *Tracer) IO(layer, kind string, block int64, typ iron.BlockType, at, svc int64, err error) {
	if t == nil {
		return
	}
	t.emitAt(Event{T: at, Layer: layer, Kind: kind, Block: block, Type: string(typ), Svc: svc, Err: errString(err)})
}

// Batch records a disk write batch of depth requests beginning at time at.
func (t *Tracer) Batch(at int64, depth int) {
	if t == nil {
		return
	}
	t.emit(Event{T: at, Layer: LayerDisk, Kind: KindBatch, Block: NoBlock, Depth: depth})
}

// Barrier records an ordering point at the given layer. At the cache
// layer, epoch is the epoch the barrier sealed and depth how many writes
// it contained; the disk layer passes its own timestamp via at (at < 0
// stamps the tracer clock).
func (t *Tracer) Barrier(layer string, at int64, epoch, depth int) {
	if t == nil {
		return
	}
	t.emitAt(Event{T: at, Layer: layer, Kind: KindBarrier, Block: NoBlock, Epoch: epoch, Depth: depth})
}

// FaultFired records that an armed fault fired on block.
func (t *Tracer) FaultFired(class iron.FaultClass, block int64, typ iron.BlockType, sticky bool) {
	if t == nil {
		return
	}
	t.emitNow(Event{Layer: LayerFault, Kind: KindFault, Block: block, Type: string(typ),
		Fault: class.String(), Sticky: sticky})
}

// CacheWrite records a write logged into the open epoch of the modelled
// volatile write cache, with depth writes now pending in it.
func (t *Tracer) CacheWrite(block int64, epoch, depth int) {
	if t == nil {
		return
	}
	t.emitNow(Event{Layer: LayerCache, Kind: KindWrite, Block: block, Epoch: epoch, Depth: depth})
}

// Sched records a scheduler event: KindEnqueue for a write accepted into
// the queue (depth = queued writes after it), KindCoalesce for a run of
// adjacent blocks folded into one batch (block = run start, depth = run
// length), KindDispatch for a batch handed to the disk (depth = batch
// size), and KindDrain for a full queue flush (depth = writes drained,
// detail = the reason: "barrier", "depth", "close", "read").
func (t *Tracer) Sched(kind string, block int64, depth int, detail string) {
	if t == nil {
		return
	}
	t.emitNow(Event{Layer: LayerSched, Kind: kind, Block: block, Depth: depth, Detail: detail})
}

// Buffer records a buffer-cache event: KindHit, KindMiss, or KindEvict.
func (t *Tracer) Buffer(kind string, block int64) {
	if t == nil {
		return
	}
	t.emitNow(Event{Layer: LayerBuf, Kind: kind, Block: block})
}

// Phase records a file-system semantic annotation, e.g. a journal phase
// ("journal-commit", "journal-replay", "checkpoint") with optional detail.
func (t *Tracer) Phase(phase, detail string) {
	if t == nil {
		return
	}
	t.emitNow(Event{Layer: LayerFS, Kind: KindPhase, Block: NoBlock, Level: phase, Detail: detail})
}

// Field is one name=value pair of an integer phase detail (PhaseN).
type Field struct {
	Name  string
	Value int64
}

// F returns the field name=v.
func F(name string, v int) Field { return Field{Name: name, Value: int64(v)} }

// PhaseN is Phase with an integer detail: the fields render as
// space-separated name=value pairs, and only when t collects events, so a
// disabled tracer costs the caller no formatting.
func (t *Tracer) PhaseN(phase string, fields ...Field) {
	if t == nil {
		return
	}
	var buf [64]byte
	b := buf[:0]
	for i, f := range fields {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, f.Name...)
		b = append(b, '=')
		b = strconv.AppendInt(b, f.Value, 10)
	}
	t.Phase(phase, string(b))
}

// Mark records a harness boundary: scenario or crash-state context in a
// dumped trace, so tools can segment a run into its experiments.
func (t *Tracer) Mark(detail string) {
	if t == nil {
		return
	}
	t.emitNow(Event{Layer: LayerHarness, Kind: KindMark, Block: NoBlock, Detail: detail})
}

// BridgeRecorder subscribes the tracer to rec: every detection or recovery
// action the file system reports becomes an LayerFS event, so evidence
// traces carry the policy actions inline with the I/O that provoked them.
func (t *Tracer) BridgeRecorder(rec *iron.Recorder) {
	if t == nil || rec == nil {
		return
	}
	rec.SetObserver(func(e iron.Event) {
		switch {
		case e.Detection != iron.DZero:
			t.emitNow(Event{Layer: LayerFS, Kind: KindDetect, Block: NoBlock,
				Type: string(e.Block), Level: e.Detection.String(), Detail: e.Detail})
		case e.Recovery != iron.RZero:
			t.emitNow(Event{Layer: LayerFS, Kind: KindRecover, Block: NoBlock,
				Type: string(e.Block), Level: e.Recovery.String(), Detail: e.Detail})
		}
	})
}

// Provider is implemented by devices that carry a tracer; upper layers
// (fault injection, file systems) discover the run's tracer through the
// device they are given, so a single SetTracer at the bottom of the stack
// wires the whole tower.
type Provider interface {
	Tracer() *Tracer
}

// Of returns the tracer dev carries, or nil when dev does not provide one
// — the disabled state, by design indistinguishable from "no tracing".
func Of(dev any) *Tracer {
	if p, ok := dev.(Provider); ok {
		return p.Tracer()
	}
	return nil
}

// errString renders an error for an Event, empty for nil.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
