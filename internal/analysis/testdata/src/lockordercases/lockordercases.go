// Package lockordercases is the lockorder analyzer corpus: an intra-
// function ABBA cycle with a rank inversion, an interprocedural cycle, a
// direct recursive acquisition, the sanctioned unlock/relock helper shape,
// a waived reversal, and a lock held through a sync.Locker field.
package lockordercases

import (
	"sync"
)

type shared struct {
	//iron:lockorder 10 outer lock: acquired first by convention
	muA sync.Mutex
	//iron:lockorder 20 inner lock: nests under muA
	muB sync.Mutex
	muC sync.Mutex
	muD sync.Mutex
	muE sync.Mutex
	muF sync.Mutex
}

// lockAB nests B under A — the sanctioned order.
func (s *shared) lockAB() {
	s.muA.Lock()
	s.muB.Lock()
	s.muB.Unlock()
	s.muA.Unlock()
}

// badBA nests A under B: with lockAB this is an ABBA cycle, and it also
// inverts the declared ranks (20 held while acquiring 10).
func (s *shared) badBA() {
	s.muB.Lock()
	s.muA.Lock() // want lockorder: cycle + rank inversion
	s.muA.Unlock()
	s.muB.Unlock()
}

// lockCthenD acquires C and then D through a helper — half of an
// interprocedural cycle.
func (s *shared) lockCthenD() {
	s.muC.Lock()
	defer s.muC.Unlock()
	s.lockD()
}

func (s *shared) lockD() {
	s.muD.Lock()
	s.muD.Unlock()
}

// badDthenC closes the C/D cycle through a call while D is held.
func (s *shared) badDthenC() {
	s.muD.Lock()
	defer s.muD.Unlock()
	s.lockC() // want lockorder: cycle via callee acquisition
}

func (s *shared) lockC() {
	s.muC.Lock()
	s.muC.Unlock()
}

// caller holds A and calls a helper that releases and retakes it — the
// fooLocked shape; the call-rule self-edge is deliberately not an error.
func (s *shared) caller() {
	s.muA.Lock()
	defer s.muA.Unlock()
	s.relock()
}

func (s *shared) relock() {
	s.muA.Unlock()
	s.muA.Lock()
}

// badRecursive re-acquires a lock it already holds: a self-deadlock.
func (s *shared) badRecursive() {
	s.muA.Lock()
	s.muA.Lock() // want lockorder: direct recursive acquisition
	s.muA.Unlock()
	s.muA.Unlock()
}

// lockEF and waivedFE reverse each other, but the reversal carries a
// waiver, so no cycle is reported for E/F.
func (s *shared) lockEF() {
	s.muE.Lock()
	s.muF.Lock()
	s.muF.Unlock()
	s.muE.Unlock()
}

func (s *shared) waivedFE() {
	s.muF.Lock()
	//iron:lockorderok corpus: this path runs only under the harness's global stop-the-world token
	s.muE.Lock()
	s.muE.Unlock()
	s.muF.Unlock()
}

// engine is the journal-engine shape: it holds its owner's lock as a
// sync.Locker. Operations through the Locker field are lock events under
// the field's identity, and the field can carry a rank.
type engine struct {
	//iron:lockorder 10 corpus: the owner's outer lock under its engine-side name
	lk sync.Locker
	//iron:lockorder 20 corpus: nests under lk
	inner sync.Mutex
}

// window releases and retakes the owner's lock, as a commit does around
// its device writes; callers hold it on entry.
func (e *engine) window() {
	e.lk.Unlock()
	e.lk.Lock()
}

// lockerThenInner nests inner under the Locker — the sanctioned order.
func (e *engine) lockerThenInner() {
	e.lk.Lock()
	e.inner.Lock()
	e.inner.Unlock()
	e.lk.Unlock()
}

// badLockerUnderInner acquires the Locker while inner is held.
func (e *engine) badLockerUnderInner() {
	e.inner.Lock()
	e.lk.Lock() // want lockorder: cycle + rank inversion through a sync.Locker
	e.lk.Unlock()
	e.inner.Unlock()
}
