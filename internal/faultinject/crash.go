package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"ironfs/internal/disk"
	"ironfs/internal/trace"
)

// ErrCrashed is the sentinel for all simulated-crash failures. Devices
// return a *CrashError carrying the crash write index; match with
// errors.Is(err, ErrCrashed), never with ==.
var ErrCrashed = errors.New("faultinject: simulated crash")

// CrashError is the concrete error a crashed device returns. Write is the
// index of the write at which the crash landed (the count of writes that
// reached the media before the cut), so post-crash failures in logs point
// straight at the crash point instead of a bare "simulated crash".
type CrashError struct {
	// Write is the number of block writes that reached the media before
	// the crash.
	Write int64
}

// Error implements error.
func (e *CrashError) Error() string {
	return fmt.Sprintf("faultinject: simulated crash (after write %d)", e.Write)
}

// Is makes errors.Is(err, ErrCrashed) match any CrashError.
func (e *CrashError) Is(target error) bool { return target == ErrCrashed }

// CrashDevice wraps a device, records every block write the device below
// accepts, and can simulate a whole-system crash after a given number of
// them: the Nth and all later writes are dropped and every subsequent
// operation fails with ErrCrashed.
//
// Every write is written through, so a file system mounted on a
// CrashDevice behaves exactly as on the device below, and is appended to a
// log of WriteRecords stamped with its barrier epoch; Barrier seals the
// open epoch. The log is the §6.2 write-cache model: writes in sealed
// epochs are durable at a crash, while any subset of the open epoch may or
// may not have reached the media, in any order, possibly torn.
// EnumerateCrashStates and ApplyCrashState build crash images from the log
// and the image the device below held before the workload, so one
// recorded run yields every crash state; a prefix cut at k (PrefixCut) is
// the image a CrashDevice with limit k leaves. Each logged write and each
// sealing barrier is traced as a cache-layer event, 1:1 with the log.
type CrashDevice struct {
	inner disk.Device

	mu      sync.Mutex
	limit   int64 // writes allowed before the crash; <0 = never crash
	crashed bool
	// inflight counts admitted writes the device below has not yet
	// answered: they count toward the limit until they land or fail.
	inflight int64
	log      []WriteRecord
	epoch    int
	// open counts the logged writes of the open epoch (trace depth).
	open int
}

// WriteRecord is one logged write: the Seq-th write overall, targeting
// Block, issued during Epoch. Data is a private copy.
type WriteRecord struct {
	Seq   int
	Block int64
	Epoch int
	Data  []byte
}

// NewCrashDevice wraps dev with a crash after limit successful block
// writes. A negative limit never crashes.
func NewCrashDevice(dev disk.Device, limit int64) *CrashDevice {
	return &CrashDevice{inner: dev, limit: limit}
}

// Tracer implements trace.Provider by passing the inner device's tracer
// through, so file systems above a crash device stay wired.
func (c *CrashDevice) Tracer() *trace.Tracer { return trace.Of(c.inner) }

// SetLimit re-arms the crash point relative to now: the device will crash
// after n more successful block writes (n >= 0), or never when n < 0. It
// lets a harness run setup traffic uncrashed, then arm the crash so it
// lands inside a specific window — e.g. an fsck repair transaction. A
// device that has already crashed stays crashed.
func (c *CrashDevice) SetLimit(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return
	}
	if n < 0 {
		c.limit = -1
		return
	}
	c.limit = int64(len(c.log)) + n
}

// Crashed reports whether the crash point has been reached.
func (c *CrashDevice) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// Written returns the number of block writes that reached the media: the
// length of the log.
func (c *CrashDevice) Written() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(len(c.log))
}

// Log returns a copy of the write log (records share data slices; callers
// must not mutate them).
func (c *CrashDevice) Log() []WriteRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]WriteRecord(nil), c.log...)
}

// Epochs returns the number of sealed epochs (barriers that reached the
// device below).
func (c *CrashDevice) Epochs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// crashErr returns the post-crash error with the recorded write index, or
// nil while the device is whole.
func (c *CrashDevice) crashErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.crashed {
		return nil
	}
	return &CrashError{Write: int64(len(c.log))}
}

// admit decides the crash before a write goes to the device below.
func (c *CrashDevice) admit() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed || c.limit >= 0 && int64(len(c.log))+c.inflight >= c.limit {
		c.crashed = true
		return &CrashError{Write: int64(len(c.log))}
	}
	c.inflight++
	return nil
}

// land counts and logs an admitted write once the device below has
// answered it, and only if it accepted it: a refused write never reached
// the media.
func (c *CrashDevice) land(n int64, buf []byte, err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight--
	if err == nil {
		c.log = append(c.log, WriteRecord{Seq: len(c.log), Block: n, Epoch: c.epoch, Data: bytes.Clone(buf)})
		c.open++
		c.Tracer().CacheWrite(n, c.epoch, c.open)
	}
	return err
}

// ReadBlock implements disk.Device.
func (c *CrashDevice) ReadBlock(n int64, buf []byte) error {
	if err := c.crashErr(); err != nil {
		return err
	}
	return c.inner.ReadBlock(n, buf)
}

// WriteBlock implements disk.Device.
func (c *CrashDevice) WriteBlock(n int64, buf []byte) error {
	if err := c.admit(); err != nil {
		return err
	}
	return c.land(n, buf, c.inner.WriteBlock(n, buf))
}

// WriteBatch implements disk.Device. The crash can land mid-batch: writes
// admitted before the crash point reach the media, the rest do not.
// Batched writes stay in issue order in the log; the crash-state
// enumeration supplies the reordering.
func (c *CrashDevice) WriteBatch(reqs []disk.Request) error {
	for _, r := range reqs {
		if err := c.WriteBlock(r.Block, r.Data); err != nil {
			return err
		}
	}
	return nil
}

// Barrier implements disk.Device. A barrier the device below accepts seals
// the open epoch: everything written before it is durable with respect to
// any crash that happens after it.
func (c *CrashDevice) Barrier() error {
	if err := c.crashErr(); err != nil {
		return err
	}
	if err := c.inner.Barrier(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Tracer().Barrier(trace.LayerCache, -1, c.epoch, c.open)
	c.epoch++
	c.open = 0
	return nil
}

// BlockSize implements disk.Device.
func (c *CrashDevice) BlockSize() int { return c.inner.BlockSize() }

// NumBlocks implements disk.Device.
func (c *CrashDevice) NumBlocks() int64 { return c.inner.NumBlocks() }

// Close implements disk.Device.
func (c *CrashDevice) Close() error { return c.inner.Close() }

// Clock forwards the simulated clock of the wrapped device, keeping
// disk.ClockOf discovery working through the crash device.
func (c *CrashDevice) Clock() *disk.Clock { return disk.ClockOf(c.inner) }
