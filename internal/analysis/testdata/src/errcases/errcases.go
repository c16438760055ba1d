// Package errcases is the errprop/policy analyzer corpus: each function
// below is a positive or negative case, and the expected diagnostics live
// in the sibling golden files.
//
//iron:frobnicate no such directive exists
package errcases

import (
	"errors"

	"devkit"
)

// store wraps a device the way the module's file systems do; its
// error-returning methods become tainted transitively.
type store struct {
	d devkit.Device
}

// readCount is tainted via the body rule (calls Device.ReadBlock).
func (s *store) readCount() (int, error) {
	var buf [8]byte
	if err := s.d.ReadBlock(0, buf[:]); err != nil {
		return 0, err
	}
	return int(buf[0]), nil
}

// flush is tainted via the body rule (calls Device.Barrier).
func (s *store) flush() error {
	return s.d.Barrier()
}

// bareCall discards a device error by using the call as a statement.
func bareCall(s *store) {
	s.flush()
}

// blankDiscard discards a device error via the blank identifier.
func blankDiscard(s *store, data []byte) {
	_ = s.d.WriteBlock(1, data)
}

// specDiscard discards a device error via a blank var declaration.
func specDiscard(s *store) {
	var _ = s.d.Barrier()
}

// tupleDiscard keeps the value but blanks the error of a tainted call.
func tupleDiscard(s *store) int {
	n, _ := s.readCount()
	return n
}

// spawn makes the error unobservable with a go statement.
func spawn(s *store) {
	go s.flush()
}

// deferredFlush discards the error with a defer statement.
func deferredFlush(s *store) {
	defer s.flush()
}

// overwrite clobbers an unexamined device error with a second one.
func overwrite(s *store, buf []byte) error {
	err := s.d.ReadBlock(2, buf)
	err = s.d.Barrier()
	return err
}

// viaInterface proves taint flows through module interfaces: Flusher.Flush
// is tainted because diskFlusher implements it with a tainted method.
type Flusher interface {
	Flush() error
}

type diskFlusher struct {
	d devkit.Device
}

func (f *diskFlusher) Flush() error { return f.d.Barrier() }

func viaInterface(fl Flusher) {
	_ = fl.Flush()
}

// devWriteAll is a deliberate drop in the style of the module's reproduced
// paper bugs; the directive whitelists it and lands in the policy table.
func devWriteAll(s *store, reqs []devkit.Request) {
	//iron:policy ext3 §5.1:RZero data write errors vanish with the rest of the write path
	_ = s.d.WriteBatch(reqs)
}

// census is a whitelisted harness drop with a plain section reference.
func census(s *store) {
	//iron:policy harness §6.2 the census sweep is best-effort instrumentation
	_ = s.d.Barrier()
}

// fixedNow carries a directive that no longer covers a drop: stale.
func fixedNow(s *store, buf []byte) error {
	//iron:policy ext3 §5.1 this drop was fixed; the directive is now stale
	return s.d.ReadBlock(9, buf)
}

// brokenWaivers demonstrates that malformed directives never suppress: both
// drops below are still findings, and each directive is one too.
func brokenWaivers(s *store, reqs []devkit.Request) {
	//iron:policy zfs §5.1 zfs is not a file system this repository builds
	_ = s.d.WriteBatch(reqs)
	//iron:policy ext3 sec5.1 the reference must use the § form
	_ = s.d.Barrier()
}

// checked is the happy path: the error is examined, nothing to flag.
func checked(s *store, buf []byte) error {
	if err := s.d.ReadBlock(3, buf); err != nil {
		return err
	}
	return nil
}

// retry reassigns err only after examining it: not an overwrite.
func retry(s *store, buf []byte) error {
	err := s.d.ReadBlock(4, buf)
	if err != nil {
		err = s.d.ReadBlock(4, buf)
	}
	return err
}

// pure returns an error with no device origin; discarding it is rude but
// outside this tool's charter.
func pure() error { return errors.New("no device involved") }

func callPure() {
	_ = pure()
}

// closeQuietly: Close is excluded from the seeds, so the conventional
// deferred close is fine.
func closeQuietly(d devkit.Device) {
	defer d.Close()
}

// withLoad hands back its callback's error, as a cache's miss path hands
// back its file system's read policy's.
func withLoad(buf []byte, load func([]byte) error) error { return load(buf) }

// callbackDiscard blanks the error of a call handed a function literal
// that reads the device: the callback's error is the call's.
func callbackDiscard(s *store, buf []byte) {
	_ = withLoad(buf, func(b []byte) error { return s.d.ReadBlock(5, b) })
}

// namedCallbackDiscard binds the literal to a variable first.
func namedCallbackDiscard(s *store, buf []byte) {
	load := func(b []byte) error { return s.d.ReadBlock(7, b) }
	_ = withLoad(buf, load)
}

// pureCallback's literal touches no device: nothing to flag.
func pureCallback(buf []byte) {
	_ = withLoad(buf, func([]byte) error { return pure() })
}
