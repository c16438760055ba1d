package vfs

import (
	"sync"

	"ironfs/internal/stat"
)

// HealthState is the RStop state machine a file system moves through as it
// reacts to faults: Healthy → ReadOnly (journal abort / remount read-only)
// or Panicked (simulated kernel panic, as ReiserFS does on write failure).
type HealthState int

const (
	// Healthy: normal read-write operation.
	Healthy HealthState = iota
	// ReadOnly: updates are refused with ErrReadOnly; reads continue.
	ReadOnly
	// Panicked: all operations are refused with ErrPanicked. In the
	// paper this is a machine crash; we model it as a terminal state so
	// the fingerprinting harness can observe it without dying.
	Panicked
)

// String names the state.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case ReadOnly:
		return "read-only"
	case Panicked:
		return "panicked"
	}
	return "unknown"
}

// Transition records one downward move of the health state machine and,
// crucially, *why* it happened: the subsystem that pulled the trigger
// and the fault that made it. A ReadOnly mount is explainable after the
// fact by reading the log.
type Transition struct {
	From      HealthState
	To        HealthState
	Subsystem string // "journal", "alloc-map", "tree", ...
	Cause     string // the error that forced the transition
}

// maxTransitions bounds the log: a file system that degrades is already
// in a terminal-ish state, so a handful of entries is plenty, and a
// bound keeps a pathological caller from growing memory.
const maxTransitions = 32

// Health tracks a file system's RStop state plus a bounded log of how
// it got there. The zero value is Healthy with an empty log. It is safe
// for concurrent use.
type Health struct {
	mu    sync.Mutex
	state HealthState
	log   []Transition
	// degrades holds the health_degrade_total{subsystem,to} handles,
	// keyed by a Transition with only those two fields set, each resolved
	// at the first transition it counts.
	degrades stat.Counters[Transition]
}

// State returns the current state.
func (h *Health) State() HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Degrade moves to a strictly worse state, recording the subsystem and
// cause in the transition log; moving "up" is ignored (a panicked file
// system cannot become merely read-only). Repeated degrades to the same
// or a better state leave both state and log untouched, so the log
// holds only real transitions.
func (h *Health) Degrade(to HealthState, subsystem string, cause error) {
	h.mu.Lock()
	if to > h.state {
		if len(h.log) < maxTransitions {
			why := ""
			if cause != nil {
				why = cause.Error()
			}
			h.log = append(h.log, Transition{
				From:      h.state,
				To:        to,
				Subsystem: subsystem,
				Cause:     why,
			})
		}
		h.state = to
		c := h.degrades.Get(Transition{To: to, Subsystem: subsystem}, stat.Default(), "health_degrade_total", "subsystem", subsystem, "to", to.String())
		h.mu.Unlock()
		c.Inc()
		return
	}
	h.mu.Unlock()
}

// Transitions returns a copy of the transition log, oldest first.
func (h *Health) Transitions() []Transition {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Transition(nil), h.log...)
}

// Cause summarizes the most recent transition as "subsystem: cause",
// or "" while Healthy. This is what tools print next to a non-healthy
// state.
func (h *Health) Cause() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.log) == 0 {
		return ""
	}
	last := h.log[len(h.log)-1]
	if last.Cause == "" {
		return last.Subsystem
	}
	return last.Subsystem + ": " + last.Cause
}

// Reset returns the state to Healthy and clears the log (used on fresh
// mounts).
func (h *Health) Reset() {
	h.mu.Lock()
	h.state = Healthy
	h.log = nil
	h.mu.Unlock()
}

// CheckWrite returns the error that should abort an update operation in
// the current state, or nil when writes are allowed.
func (h *Health) CheckWrite() error {
	switch h.State() {
	case ReadOnly:
		return ErrReadOnly
	case Panicked:
		return ErrPanicked
	}
	return nil
}

// CheckRead returns the error that should abort a read operation in the
// current state, or nil when reads are allowed.
func (h *Health) CheckRead() error {
	if h.State() == Panicked {
		return ErrPanicked
	}
	return nil
}
