package disk

import (
	"fmt"
	"sync/atomic"
)

// Duration is a span of simulated time in nanoseconds. A dedicated type
// (rather than time.Duration) keeps simulated and wall-clock time from
// being mixed accidentally.
type Duration int64

// Convenient units of simulated time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String renders the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(d)/float64(Microsecond))
	}
	return fmt.Sprintf("%dns", int64(d))
}

// Clock is a deterministic simulated clock. The disk advances it for every
// I/O it services; workloads advance it to model CPU time. Benchmarks read
// elapsed simulated time from it, so results are exactly reproducible.
type Clock struct {
	now atomic.Int64
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current simulated time.
func (c *Clock) Now() Duration { return Duration(c.now.Load()) }

// Advance moves simulated time forward by d (negative d is ignored).
func (c *Clock) Advance(d Duration) {
	if d <= 0 {
		return
	}
	c.now.Add(int64(d))
}
