package journal

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"ironfs/internal/vfs"
)

// fakeFS is a Committer with no disk: plans are bare sequence numbers, and
// WritePlan parks on the gate its test installed for that sequence.
type fakeFS struct {
	mu     sync.Mutex
	health vfs.Health
	jn     *Engine

	dirty   bool            // running transaction non-empty
	touched map[uint64]bool // keys the running transaction holds
	noPlan  error           // when set, FreezeLocked returns (nil, noPlan); errNothing = (nil, nil)

	// gates[seq], when present, holds WritePlan(seq) until closed;
	// writeErr[seq] is what it then returns (after degrading health).
	gates    map[uint64]chan struct{}
	writeErr map[uint64]error
	writing  chan uint64   // receives seq as WritePlan(seq) starts
	probed   chan struct{} // receives as TouchedLocked/DirtyLocked run, when non-nil

	evMu   sync.Mutex
	events []string
}

var errNothing = errors.New("nothing to freeze")

func newFake() *fakeFS {
	f := &fakeFS{touched: map[uint64]bool{}, gates: map[uint64]chan struct{}{},
		writeErr: map[uint64]error{}, writing: make(chan uint64, 16)}
	f.jn = New(&f.mu, &f.health, nil, nil)
	return f
}

func (f *fakeFS) log(ev string, seq uint64) {
	f.evMu.Lock()
	f.events = append(f.events, ev+string(rune('0'+seq)))
	f.evMu.Unlock()
}

func (f *fakeFS) probe() {
	if f.probed != nil {
		f.probed <- struct{}{}
	}
}

func (f *fakeFS) DirtyLocked() bool { f.probe(); return f.dirty }

func (f *fakeFS) TouchedLocked(key uint64) bool { f.probe(); return f.touched[key] }

func (f *fakeFS) FreezeLocked(seq uint64) (Plan, error) {
	if f.noPlan == errNothing {
		return nil, nil
	}
	if f.noPlan != nil {
		return nil, f.noPlan
	}
	f.log("freeze", seq)
	f.dirty = false
	clear(f.touched)
	return seq, nil
}

func (f *fakeFS) WritePlan(p Plan) error {
	seq := p.(uint64)
	f.writing <- seq
	if g := f.gates[seq]; g != nil {
		<-g
	}
	err := f.writeErr[seq]
	if err != nil {
		f.health.Degrade(vfs.ReadOnly, "journal", err)
	}
	f.log("written", seq)
	return err
}

func (f *fakeFS) FinishLocked(p Plan) error { f.log("finish", p.(uint64)); return nil }

// commit dirties the running transaction and commits it, as an operation
// ending in MaybeCommitLocked would.
func (f *fakeFS) commit() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dirty = true
	return f.jn.Commit(f)
}

func (f *fakeFS) fsync(key uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.jn.Fsync(f, key)
}

// async runs fn on its own goroutine; the result arrives on the channel.
func async(fn func() error) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- fn() }()
	return ch
}

func await(t *testing.T, what string, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
		return nil
	}
}

// parked blocks until the goroutine that just sent on f.probed has parked
// in a cond wait: it held f.mu from the probe until the wait released it.
func (f *fakeFS) parked() {
	<-f.probed
	f.mu.Lock()
	f.mu.Unlock()
}

// TestWaiterReleasedByItsCommit: an fsync waiter for sequence n is released
// by commit n, not by the committer going idle — a busy client's commit
// n+1, frozen the moment n finishes and still writing, must not hold it.
func TestWaiterReleasedByItsCommit(t *testing.T) {
	f := newFake()
	f.gates[1], f.gates[2] = make(chan struct{}), make(chan struct{})
	first := async(f.commit)
	<-f.writing // commit 1 in flight

	f.probed = make(chan struct{})
	waiter := async(func() error { return f.fsync(42) })
	f.parked() // need = 1 computed, waiting on durable
	f.probed = nil

	busy := async(f.commit) // waits out commit 1, then freezes 2 at once
	close(f.gates[1])
	if err := await(t, "commit 1", first); err != nil {
		t.Fatal(err)
	}
	if seq := <-f.writing; seq != 2 {
		t.Fatalf("busy client's commit wrote seq %d, want 2", seq)
	}
	// Commit 2 is parked in WritePlan; the waiter needs only commit 1.
	if err := await(t, "fsync waiter for seq 1", waiter); err != nil {
		t.Fatal(err)
	}
	close(f.gates[2])
	if err := await(t, "commit 2", busy); err != nil {
		t.Fatal(err)
	}
}

// TestFailedWriteWakesWaiters: a failed WritePlan still advances the
// durable sequence and wakes every waiter — they must not hang — and the
// failure reaches them through the health gate, never as success.
func TestFailedWriteWakesWaiters(t *testing.T) {
	f := newFake()
	f.gates[1] = make(chan struct{})
	boom := errors.New("journal write failed")
	f.writeErr[1] = boom
	committer := async(f.commit)
	<-f.writing

	f.probed = make(chan struct{})
	var waiters []<-chan error
	for key := uint64(1); key <= 3; key++ {
		waiters = append(waiters, async(func() error { return f.fsync(key) }))
		f.parked()
	}
	f.probed = nil

	close(f.gates[1])
	if err := await(t, "failed commit", committer); !errors.Is(err, boom) {
		t.Fatalf("Commit = %v, want the write error", err)
	}
	for i, w := range waiters {
		if err := await(t, "fsync waiter", w); !errors.Is(err, vfs.ErrReadOnly) {
			t.Fatalf("waiter %d = %v, want ErrReadOnly from the health gate", i, err)
		}
	}
	if f.jn.seq != 1 || f.jn.durable != 1 {
		t.Fatalf("seq, durable = %d, %d after failed commit 1; want 1, 1", f.jn.seq, f.jn.durable)
	}
	if slices.Contains(f.events, "finish1") {
		t.Fatalf("FinishLocked ran for a failed commit: %v", f.events)
	}
}

// TestSecondCommitterWaitsOutFirst: freezes are serialized — a second
// committer neither probes nor freezes until the first commit's writes
// have finished.
func TestSecondCommitterWaitsOutFirst(t *testing.T) {
	f := newFake()
	f.gates[1] = make(chan struct{})
	first := async(f.commit)
	<-f.writing

	f.probed = make(chan struct{}, 1)
	second := async(f.commit)
	select {
	case <-f.probed:
		t.Fatal("second committer went past a commit in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(f.gates[1])
	for _, c := range []<-chan error{first, second} {
		if err := await(t, "commit", c); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"freeze1", "written1", "finish1", "freeze2", "written2", "finish2"}
	if !slices.Equal(f.events, want) {
		t.Fatalf("events = %v, want %v", f.events, want)
	}
}

// TestNilPlanLeavesSequenceAlone: a freeze that yields no plan — nothing
// to commit, or an encoding failure — consumes no sequence number.
func TestNilPlanLeavesSequenceAlone(t *testing.T) {
	for _, noPlan := range []error{errNothing, vfs.ErrIO} {
		f := newFake()
		f.jn.Recovered(5)
		f.noPlan = noPlan
		want := noPlan
		if noPlan == errNothing {
			want = nil
		}
		if err := f.commit(); err != want {
			t.Fatalf("Commit with nil plan = %v, want %v", err, want)
		}
		if f.jn.seq != 5 || f.jn.durable != 5 || f.jn.committing {
			t.Fatalf("seq, durable, committing = %d, %d, %v; want 5, 5, false", f.jn.seq, f.jn.durable, f.jn.committing)
		}
		if len(f.writing) != 0 || len(f.events) != 0 {
			t.Fatalf("nil plan was written or finished: %v", f.events)
		}
	}
}

// TestRecoveredFsyncReturnsAtOnce: after Recovered(s) an untouched-object
// fsync has nothing to wait for. With seq restored and durable left at
// zero it parked forever (the remount deadlock, fixed per file system
// three times); Recovered sets both, so that state cannot be written.
func TestRecoveredFsyncReturnsAtOnce(t *testing.T) {
	f := newFake()
	f.jn.Recovered(7)
	if f.jn.Seq() != 7 {
		t.Fatalf("Seq() = %d after Recovered(7)", f.jn.Seq())
	}
	if err := await(t, "untouched fsync after Recovered", async(func() error { return f.fsync(1) })); err != nil {
		t.Fatal(err)
	}
	// The next commit continues the recovered sequence space.
	if err := f.commit(); err != nil || f.jn.Seq() != 8 {
		t.Fatalf("commit after Recovered(7): err %v, seq %d; want nil, 8", err, f.jn.Seq())
	}
}
