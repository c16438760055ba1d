package fstest

import (
	"fmt"
	"testing"

	"ironfs/internal/faultinject"
	"ironfs/internal/vfs"
)

// The fsync sweep: record a fixed workload once over the baseline image,
// then for every prefix cut of its write log — the image a crash after k
// writes leaves — remount (running journal recovery), grade the recovered
// tree with the expected-state oracle, and check that the file system is
// still usable.

// SweepSeq is the sweep's workload: three files created, written past one
// block and individually fsync'd.
var SweepSeq = Sequence{
	{Kind: OpCreate, Path: "/a"}, {Kind: OpWrite, Path: "/a", Data: 1}, {Kind: OpFsync, Path: "/a"},
	{Kind: OpCreate, Path: "/b"}, {Kind: OpWrite, Path: "/b", Data: 1}, {Kind: OpFsync, Path: "/b"},
	{Kind: OpCreate, Path: "/c"}, {Kind: OpWrite, Path: "/c", Data: 1}, {Kind: OpFsync, Path: "/c"},
}

// SweepBlocks sizes the sweep's volume.
const SweepBlocks = 4096

// SweepCrashes sweeps SweepSeq on t (SweepSeqCrashes).
func SweepCrashes(t ExploreTarget) (int, error) { return SweepSeqCrashes(t, SweepSeq) }

// SweepSeqCrashes records seq on t and grades every prefix cut of its
// log, from nothing landed to every write landed. A cut owes what the
// oracle claims for a crash just after its last landed write; the cut
// after the last write is the finished workload, where every op has
// returned. It returns the number of crash points tested.
func SweepSeqCrashes(t ExploreTarget, seq Sequence) (int, error) {
	r, err := RecordSeq(t, SweepBlocks, seq)
	if err != nil {
		return 0, err
	}
	if r == nil {
		return 0, fmt.Errorf("%s: the sweep workload wrote nothing", t.Name)
	}
	n := len(r.Log)
	for k := 0; k <= n; k++ {
		snap, last := r.Oracle.RequiredSnap(k-1), r.Oracle.LastStarted(k-1)
		if k == n {
			snap, last = len(r.Oracle.snaps)-1, len(r.Seq)-1
		}
		var viols []Violation
		var unusable error
		g, err := r.Grade(faultinject.PrefixCut(r.Log, k), faultinject.EnumPolicy{}, "", func(fsys vfs.FileSystem) {
			viols = r.Oracle.GradeAt(fsys, snap, last)
			unusable = usable(fsys)
		})
		switch {
		case err != nil:
			return k, err
		case g.MountErr != nil:
			return k + 1, fmt.Errorf("crash at write %d: recovery mount failed: %v", k, g.MountErr)
		case len(viols) > 0:
			v := viols[0]
			return k + 1, fmt.Errorf("crash at write %d: %s %s, owed by %s: %s", k, v.Kind, v.Path, v.Guar, v.Detail)
		case unusable != nil:
			return k + 1, fmt.Errorf("crash at write %d: %v", k, unusable)
		}
	}
	return n + 1, nil
}

// usable checks that a recovered file system takes a new file and
// unmounts cleanly.
func usable(fsys vfs.FileSystem) error {
	if err := fsys.Create("/after-recovery", 0o644); err != nil {
		return fmt.Errorf("post-recovery create: %v", err)
	}
	if err := fsys.Unmount(); err != nil {
		return fmt.Errorf("post-recovery unmount: %v", err)
	}
	return nil
}

// CheckCrashSweep is the fsync-sweep test every file system package runs
// on its target.
func CheckCrashSweep(t *testing.T, target ExploreTarget) {
	points, err := SweepCrashes(target)
	if err != nil {
		t.Fatalf("after %d crash points: %v", points, err)
	}
	if points < 10 {
		t.Fatalf("sweep covered only %d crash points", points)
	}
	t.Logf("verified %d crash points", points)
}
