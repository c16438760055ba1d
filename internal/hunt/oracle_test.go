package hunt

import (
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/fingerprint"
	"ironfs/internal/fstest"
	"ironfs/internal/iron"
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
				s2 := make(fstest.Sequence, len(seq), len(seq)+1)
				copy(s2, seq)
				s2 = append(s2, fstest.Op{Kind: fstest.OpSync})
				run, err := fstest.RecordSeq(ht.Target, blocks, s2)
				if err != nil {
					t.Fatalf("[%s]: %v", s2, err)
				}
				if run == nil {
					continue
				}
				pt := len(run.Log) - 1
				sts := faultinject.EnumerateCrashStatesSealed(run.Log, pt, run.Log[pt].Epoch+1, policy)
				if len(sts) != 1 {
					t.Fatalf("[%s]: fully-sealed tail produced %d states, want 1", s2, len(sts))
				}

				ps := plannedState{st: sts[0], class: ClassTail, snap: len(run.Oracle.Snapshots()) - 1, lastOp: len(s2) - 1}
				g, err := gradeState(run, ps, policy)
				if err != nil {
					t.Fatalf("[%s]: %v", s2, err)
				}
				if g.verdict != VerdictOK && g.verdict != VerdictDetected {
					t.Errorf("[%s]: no-fault tail graded %s (violation: %+v)", s2, g.verdict, g.viol)
					continue
				}

				// Cross-check the model's end-state against an independent remount.
				d, err := disk.New(blocks, disk.DefaultGeometry(), nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := d.RestoreImage(run.Base); err != nil {
					t.Fatal(err)
				}
				if err := faultinject.ApplyCrashState(d, run.Log, sts[0], policy); err != nil {
					t.Fatal(err)
				}
				mfs := ht.Target.New(d, iron.NewRecorder())
				if err := mfs.Mount(); err != nil {
					t.Fatalf("[%s]: no-fault remount: %v", s2, err)
				}
				if err := fstest.Walk(mfs, run.Oracle.Final()); err != nil {
					t.Errorf("[%s]: the no-fault remount differs from the model: %v", s2, err)
				}
				//iron:policy test teardown unmount is best-effort
				_ = mfs.Unmount()
			}
		})
	}
}

// TestOracleTruncateAndRmdir grades every prefix cut of sequences that
// truncate, remove or rename a directory after an earlier guarantee
// covered it, on ext3, as the fsync sweep does: a correct file system
// must pass. A truncate after the covering fsync frees the content, like
// a write; an rmdir after a sync may legally have removed the durable
// directory; a renamed directory's old path stops being owed, and what
// lived beneath it may be found under the new name.
func TestOracleTruncateAndRmdir(t *testing.T) {
	ht, err := fingerprint.HuntTargetByName("ext3")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		seq  fstest.Sequence
	}{
		{"truncate after fsync", fstest.Sequence{
			{Kind: fstest.OpCreate, Path: "/a"},
			{Kind: fstest.OpWrite, Path: "/a", Data: 1},
			{Kind: fstest.OpFsync, Path: "/a"},
			{Kind: fstest.OpTruncate, Path: "/a", Off: 10},
			{Kind: fstest.OpSync},
		}},
		{"rmdir after sync", fstest.Sequence{
			{Kind: fstest.OpMkdir, Path: "/d"},
			{Kind: fstest.OpCreate, Path: "/d/f"},
			{Kind: fstest.OpSync},
			{Kind: fstest.OpUnlink, Path: "/d/f"},
			{Kind: fstest.OpRmdir, Path: "/d"},
			{Kind: fstest.OpSync},
		}},
		{"rename dir after sync", fstest.Sequence{
			{Kind: fstest.OpMkdir, Path: "/d"},
			{Kind: fstest.OpMkdir, Path: "/d/s"},
			{Kind: fstest.OpSync},
			{Kind: fstest.OpRename, Path: "/d", Path2: "/e"},
			{Kind: fstest.OpSync},
		}},
		{"rename dir holding a synced file", fstest.Sequence{
			{Kind: fstest.OpMkdir, Path: "/d"},
			{Kind: fstest.OpCreate, Path: "/d/f"},
			{Kind: fstest.OpWrite, Path: "/d/f", Data: 1},
			{Kind: fstest.OpSync},
			{Kind: fstest.OpRename, Path: "/d", Path2: "/e"},
			{Kind: fstest.OpSync},
		}},
		{"rename dir holding an fsync'd file", fstest.Sequence{
			{Kind: fstest.OpMkdir, Path: "/d"},
			{Kind: fstest.OpCreate, Path: "/d/f"},
			{Kind: fstest.OpWrite, Path: "/d/f", Data: 1},
			{Kind: fstest.OpFsync, Path: "/d/f"},
			{Kind: fstest.OpRename, Path: "/d", Path2: "/e"},
			{Kind: fstest.OpSync},
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			points, err := fstest.SweepSeqCrashes(ht.Target, row.seq)
			if err != nil {
				t.Fatalf("after %d crash points: %v", points, err)
			}
			t.Logf("graded %d crash points", points)
		})
	}
}
