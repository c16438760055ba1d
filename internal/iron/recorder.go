package iron

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ironfs/internal/stat"
)

// Event is one detection or recovery action taken by a file system while
// servicing an operation, attributed to the block type involved.
type Event struct {
	// Block is the type of on-disk structure the action concerned.
	Block BlockType
	// Detection is set (non-DZero) if this event records a detection.
	Detection DetectionLevel
	// Recovery is set (non-RZero) if this event records a recovery.
	Recovery RecoveryLevel
	// Detail is an optional free-form explanation ("magic mismatch",
	// "replica read", ...), used in reports.
	Detail string
}

// Recorder accumulates the detection and recovery events a file system
// performs. Fingerprinting installs a fresh Recorder per experiment; file
// systems report into it from their failure-handling paths.
//
// A nil *Recorder is valid and discards all events, so production mounts
// pay nothing.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	obs    func(Event)
	// detects and recovers hold the iron_detect_total{level} and
	// iron_recover_total{level} handles, each resolved at the first event
	// of its level.
	detects  stat.Counters[DetectionLevel]
	recovers stat.Counters[RecoveryLevel]
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// SetObserver installs a callback invoked (synchronously, outside the
// recorder lock) for every event as it is recorded. The tracing subsystem
// uses it to bridge detection and recovery actions into evidence traces;
// a nil fn removes the observer.
func (r *Recorder) SetObserver(fn func(Event)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.obs = fn
	r.mu.Unlock()
}

// record appends e, counts it in the live-metrics registry keyed by the
// paper's taxonomy level, and notifies the observer (the trace bridge).
func (r *Recorder) record(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	var c *stat.Counter
	if e.Detection != DZero {
		c = r.detects.Get(e.Detection, stat.Default(), "iron_detect_total", "level", e.Detection.String())
	} else if e.Recovery != RZero {
		c = r.recovers.Get(e.Recovery, stat.Default(), "iron_recover_total", "level", e.Recovery.String())
	}
	obs := r.obs
	r.mu.Unlock()
	if c != nil {
		c.Inc()
	}
	if obs != nil {
		obs(e)
	}
}

// Detect records that the file system detected a problem with a block of
// the given type using the given technique.
func (r *Recorder) Detect(level DetectionLevel, block BlockType, detail string) {
	if r == nil {
		return
	}
	r.record(Event{Block: block, Detection: level, Detail: detail})
}

// Recover records that the file system applied the given recovery technique
// for a block of the given type.
func (r *Recorder) Recover(level RecoveryLevel, block BlockType, detail string) {
	if r == nil {
		return
	}
	r.record(Event{Block: block, Recovery: level, Detail: detail})
}

// Events returns a copy of all recorded events in order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Reset discards all recorded events.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = r.events[:0]
	r.mu.Unlock()
}

// Detections aggregates the recorded detection events into a set,
// regardless of block type.
func (r *Recorder) Detections() DetectionSet {
	var s DetectionSet
	for _, e := range r.Events() {
		if e.Detection != DZero {
			s.Add(e.Detection)
		}
	}
	return s
}

// Recoveries aggregates the recorded recovery events into a set,
// regardless of block type.
func (r *Recorder) Recoveries() RecoverySet {
	var s RecoverySet
	for _, e := range r.Events() {
		if e.Recovery != RZero {
			s.Add(e.Recovery)
		}
	}
	return s
}

// DetectCounts counts the recorded detection events per taxonomy level
// (DZero excluded): the per-scenario numbers the registry's
// iron_detect_total counters must reconcile with.
func (r *Recorder) DetectCounts() map[DetectionLevel]int {
	out := map[DetectionLevel]int{}
	for _, e := range r.Events() {
		if e.Detection != DZero {
			out[e.Detection]++
		}
	}
	return out
}

// RecoverCounts counts the recorded recovery events per taxonomy level
// (RZero excluded).
func (r *Recorder) RecoverCounts() map[RecoveryLevel]int {
	out := map[RecoveryLevel]int{}
	for _, e := range r.Events() {
		if e.Recovery != RZero {
			out[e.Recovery]++
		}
	}
	return out
}

// Summary returns a human-readable, deterministic digest of the recorded
// events grouped by block type, useful in test failures and reports.
func (r *Recorder) Summary() string {
	type key struct {
		block BlockType
		what  string
	}
	counts := map[key]int{}
	for _, e := range r.Events() {
		var what string
		if e.Detection != DZero {
			what = e.Detection.String()
		} else if e.Recovery != RZero {
			what = e.Recovery.String()
		} else {
			continue
		}
		counts[key{e.Block, what}]++
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].block != keys[j].block {
			return keys[i].block < keys[j].block
		}
		return keys[i].what < keys[j].what
	})
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s x%d\n", k.block, k.what, counts[k])
	}
	return b.String()
}
