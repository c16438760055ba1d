package fstest

import "testing"

// RequiredSnap must only claim a guarantee once the persistence op has
// provably returned (a strictly later write exists), and the baseline
// snapshot must be claimable everywhere.
func TestRequiredSnapClaimsOnlyReturnedGuarantees(t *testing.T) {
	seq := Sequence{
		{Kind: OpCreate, Path: "/a"},
		{Kind: OpWrite, Path: "/a", Data: 0},
		{Kind: OpFsync, Path: "/a"},
	}
	o := NewOracle(seq)
	// Simulated spans: create writes [0,2), write [2,4), fsync [4,7).
	o.setLogSpan(0, 0, 2, 0)
	o.setLogSpan(1, 2, 4, 0)
	o.setLogSpan(2, 4, 7, 1)
	if got := o.RequiredSnap(3); got != 0 {
		t.Errorf("point 3 (before fsync issued): snap %d, want 0 (baseline)", got)
	}
	if got := o.RequiredSnap(5); got != 0 {
		t.Errorf("point 5 (mid-fsync): snap %d, want 0 (baseline)", got)
	}
	if got := o.RequiredSnap(7); got != 1 {
		t.Errorf("point 7 (fsync returned): snap %d, want 1", got)
	}
	if got := o.LastStarted(3); got != 1 {
		t.Errorf("LastStarted(3) = %d, want 1", got)
	}
}
