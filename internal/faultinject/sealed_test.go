package faultinject

import (
	"reflect"
	"testing"
)

// The sealed-aware enumeration entry points the hunter drives: EpochSeals
// (where barriers landed) and EnumerateCrashStatesSealed (crash states at
// a point whose sealed-epoch count the caller pins, e.g. "just after
// fsync returned").

func TestEpochSeals(t *testing.T) {
	d, c := newRecorderUnderTest(t, 16)
	// Epoch 0: writes 0,1. Epoch 1: write 2. Epoch 2: writes 3,4 (open).
	writeSeq(t, d, c, []int64{0, 1, 2, 3, 4}, map[int]bool{1: true, 2: true})
	got := EpochSeals(c.Log())
	want := []int{1, 2, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("EpochSeals = %v, want %v", got, want)
	}
}

func TestSealedEnumerationEmptyPending(t *testing.T) {
	d, c := newRecorderUnderTest(t, 16)
	writeSeq(t, d, c, []int64{0, 1, 2}, map[int]bool{2: true})
	log := c.Log()
	// Everything at or before the point is sealed: the post-return crash
	// of a correct fsync. Exactly one state — the fully durable image.
	states := EnumerateCrashStatesSealed(log, 2, log[2].Epoch+1, EnumPolicy{Torn: true})
	if len(states) != 1 {
		t.Fatalf("fully-sealed point: %d states, want 1: %v", len(states), states)
	}
	s := states[0]
	if s.Mask != 0 || s.Torn || !s.SealedKnown || s.Sealed != log[2].Epoch+1 {
		t.Fatalf("fully-sealed state = %+v, want empty untorn mask with sealed stamped", s)
	}
}

func TestSealedEnumerationPendingSubsets(t *testing.T) {
	d, c := newRecorderUnderTest(t, 16)
	// Barrier after write 0; writes 1 and 2 are epoch 1, unsealed.
	writeSeq(t, d, c, []int64{0, 1, 2}, map[int]bool{0: true})
	log := c.Log()
	// Sealed count 1 pins writes 1,2 as pending: the claimed-durable-but-
	// volatile case enumerates their subsets like an open-epoch tail.
	states := EnumerateCrashStatesSealed(log, 2, 1, EnumPolicy{})
	var masks []uint64
	for _, s := range states {
		if !s.SealedKnown || s.Sealed != 1 {
			t.Fatalf("state %+v: sealed count not stamped", s)
		}
		masks = append(masks, s.Mask)
	}
	if want := []uint64{0, 1, 2, 3}; !reflect.DeepEqual(masks, want) {
		t.Fatalf("masks = %v, want %v", masks, want)
	}
}

func TestSealedApplyKeepsSealedWritesDespiteMask(t *testing.T) {
	d, c := newRecorderUnderTest(t, 16)
	writeSeq(t, d, c, []int64{0, 1}, map[int]bool{0: true})
	log := c.Log()
	// Mask 0 drops every pending write — but write 0 is sealed, so it must
	// land regardless.
	img := crashImage(t, d, log,
		CrashState{Point: 1, Mask: 0, Sealed: 1, SealedKnown: true}, EnumPolicy{})
	if img[0*int(d.BlockSize())] != 1 {
		t.Fatal("sealed write 0 dropped by mask")
	}
	if img[1*int(d.BlockSize())] != 0 {
		t.Fatal("unsealed write 1 survived an empty mask")
	}
}
