// Package disk provides the storage substrate for the IRON reproduction: a
// block-device interface, an in-memory simulated disk with a mechanical
// service-time model (seek, rotation, transfer), and a deterministic
// simulated clock.
//
// The paper's evaluation runs on a real IDE disk; here the disk is
// simulated so that experiments are deterministic and hardware-free. The
// service-time model prices the *relative* cost of I/O patterns — extra
// writes, remote replica placement, ordering barriers — which is what the
// paper's Table 6 measures (all results there are normalized to ext3).
package disk

import (
	"errors"
	"fmt"
)

// Common device errors. The fault-injection layer returns ErrIO for
// injected latent sector errors, mirroring how a driver surfaces EIO.
var (
	// ErrIO is a generic I/O failure for a block operation.
	ErrIO = errors.New("disk: I/O error")
	// ErrOutOfRange is returned for accesses beyond the device.
	ErrOutOfRange = errors.New("disk: block out of range")
	// ErrBadSize is returned when the buffer is not exactly one block.
	ErrBadSize = errors.New("disk: buffer size != block size")
	// ErrClosed is returned for operations on a closed device.
	ErrClosed = errors.New("disk: device closed")
)

// Op distinguishes reads from writes in traces and fault specifications.
type Op int

const (
	// OpRead is a block read.
	OpRead Op = iota
	// OpWrite is a block write.
	OpWrite
)

// String returns "read" or "write".
func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Request is one block write in a batch submitted via WriteBatch.
type Request struct {
	// Block is the target block number.
	Block int64
	// Data is exactly one block of data.
	Data []byte
}

// Device is the block-device interface all file systems in this repository
// are written against. Block numbers are zero-based. All operations are
// synchronous: when they return, the simulated I/O has completed (and the
// simulated clock has advanced). A device must not keep buf, a batch's
// reqs or any Request.Data after the call returns, because the caller may
// reuse them at once (the scheduler and the journals hand their buffers to
// bcache's frame pool): Disk copies into its media and CrashDevice clones
// what it logs.
type Device interface {
	// ReadBlock reads block n into buf (len(buf) must equal BlockSize).
	ReadBlock(n int64, buf []byte) error
	// WriteBlock writes buf (one block) to block n.
	WriteBlock(n int64, buf []byte) error
	// WriteBatch submits several writes at once. The device may schedule
	// them in any order; the whole batch completes before return. A batch
	// models command queueing: contiguous blocks stream at media rate
	// with no inter-request rotational penalty.
	WriteBatch(reqs []Request) error
	// Barrier orders all preceding writes before any subsequent ones.
	// On the simulated disk a barrier drains the (conceptual) queue and
	// costs nothing by itself, but it forfeits the streaming benefit of
	// batching across it.
	Barrier() error
	// BlockSize returns the device block size in bytes.
	BlockSize() int
	// NumBlocks returns the device capacity in blocks.
	NumBlocks() int64
	// Close releases the device. Further operations return ErrClosed.
	Close() error
}

// Stats counts the traffic a device has serviced.
type Stats struct {
	// Reads and Writes are operation counts.
	Reads, Writes int64
	// Barriers counts ordering points issued via Barrier. Crash-state
	// exploration uses it to verify that a file system actually emitted
	// the ordering it is credited with (a barrier seals a cache epoch).
	Barriers int64
	// BytesRead and BytesWritten are byte counts.
	BytesRead, BytesWritten int64
	// BusyTime is total simulated time spent servicing I/O.
	BusyTime Duration
}

// String summarizes the stats on one line, all six fields included.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d barriers=%d bytesRead=%d bytesWritten=%d busy=%v",
		s.Reads, s.Writes, s.Barriers, s.BytesRead, s.BytesWritten, s.BusyTime)
}

// Sub returns the field-wise difference s - prev: the traffic serviced
// between two snapshots. Harnesses use it instead of hand-subtracting
// individual counters.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Reads:        s.Reads - prev.Reads,
		Writes:       s.Writes - prev.Writes,
		Barriers:     s.Barriers - prev.Barriers,
		BytesRead:    s.BytesRead - prev.BytesRead,
		BytesWritten: s.BytesWritten - prev.BytesWritten,
		BusyTime:     s.BusyTime - prev.BusyTime,
	}
}

// ClockOf returns the simulated clock behind a device stack: the raw
// Disk exposes it directly and every wrapper layer forwards it. It
// returns nil when no layer in the stack carries a clock (a test
// double, say); callers recording wait-time metrics skip them then.
func ClockOf(dev Device) *Clock {
	if p, ok := dev.(interface{ Clock() *Clock }); ok {
		return p.Clock()
	}
	return nil
}
