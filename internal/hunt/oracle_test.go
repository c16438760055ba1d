package hunt

import (
	"bytes"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/fingerprint"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// The no-fault agreement invariant, run on every file system: replay each
// -quick sequence plus a trailing sync, take the one crash state where the
// whole log is durable (no fault at all), and the recovered tree must (a)
// grade clean against the oracle's final snapshot and (b) contain exactly
// the oracle's volatile end-state, byte for byte. Any disagreement here is
// an oracle bug, not a file-system bug — this is the calibration that
// makes loss verdicts on real crash states trustworthy.
func TestNoFaultAgreement(t *testing.T) {
	seqs := Sequences(Bounds{MaxOps: 2, MaxSeqs: -1})
	for _, ht := range fingerprint.HuntTargets() {
		ht := ht
		t.Run(ht.Target.Name, func(t *testing.T) {
			t.Parallel()
			policy := faultinject.EnumPolicy{Seed: faultinject.DefaultSeed}
			blocks := int64(1024)
			if ht.Target.DiskBlocks != 0 {
				blocks = ht.Target.DiskBlocks
			}
			for _, seq := range seqs {
				s2 := make(Sequence, len(seq), len(seq)+1)
				copy(s2, seq)
				s2 = append(s2, Op{Kind: OpSync})
				run, err := replaySeq(ht.Target, blocks, s2)
				if err != nil {
					t.Fatalf("[%s]: %v", s2, err)
				}
				if run == nil {
					continue
				}
				pt := len(run.rec.Log) - 1
				sts := faultinject.EnumerateCrashStatesSealed(run.rec.Log, pt, run.rec.Log[pt].Epoch+1, policy)
				if len(sts) != 1 {
					t.Fatalf("[%s]: fully-sealed tail produced %d states, want 1", s2, len(sts))
				}

				ps := plannedState{st: sts[0], class: ClassTail, snap: len(run.oracle.snaps) - 1, lastOp: len(s2) - 1}
				g, err := gradeState(run, ps, policy, make([]byte, len(run.rec.Base)))
				if err != nil {
					t.Fatalf("[%s]: %v", s2, err)
				}
				if g.verdict != VerdictOK && g.verdict != VerdictDetected {
					t.Errorf("[%s]: no-fault tail graded %s (violation: %+v)", s2, g.verdict, g.viol)
					continue
				}

				// Cross-check FinalTree against an independent remount.
				full := faultinject.ApplyCrashState(run.rec.Base, int(disk.DefaultGeometry().BlockSize), run.rec.Log, sts[0], policy)
				d, err := disk.New(blocks, disk.DefaultGeometry(), nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := d.Restore(full); err != nil {
					t.Fatal(err)
				}
				mfs := ht.Target.New(d, iron.NewRecorder())
				if err := mfs.Mount(); err != nil {
					t.Fatalf("[%s]: no-fault remount: %v", s2, err)
				}
				dirs, files := run.oracle.FinalTree()
				for _, dp := range dirs {
					st, err := mfs.Lstat(dp)
					if err != nil || st.Type != vfs.TypeDirectory {
						t.Errorf("[%s]: final dir %s missing (err=%v)", s2, dp, err)
					}
				}
				for p, want := range files {
					st, err := mfs.Lstat(p)
					if err != nil {
						t.Errorf("[%s]: final file %s missing: %v", s2, p, err)
						continue
					}
					got, err := readAll(mfs, p, st.Size)
					if err != nil || !bytes.Equal(got, want) {
						t.Errorf("[%s]: final file %s content mismatch (got %d bytes, want %d, err=%v)",
							s2, p, len(got), len(want), err)
					}
				}
				//iron:policy test teardown unmount is best-effort
				_ = mfs.Unmount()
			}
		})
	}
}

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
