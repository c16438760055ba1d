package fs

import (
	"bytes"
	"slices"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/fstest"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// TestPrefixCutMatchesCrashDevice is what lets the fsync sweep
// (fstest.SweepCrashes) run its workload once: it builds the image a crash
// after k writes leaves as the prefix cut of one recorded write log at k,
// and takes the acknowledged fsyncs to be those whose write span the
// oracle saw end by then. Both must be what a rerun on a CrashDevice with
// limit k leaves — the same media, byte for byte, and the same fsyncs
// returned — on every file system, from the cut before the first write to
// the one after the last.
func TestPrefixCutMatchesCrashDevice(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			opts := txnOptions(name)
			target := fstest.ExploreTarget{Name: name,
				Mkfs: func(d disk.Device) error { return Mkfs(name, d, opts) },
				New: func(d disk.Device, rec *iron.Recorder) vfs.FileSystem {
					fsys, err := New(name, d, opts, rec)
					if err != nil {
						t.Fatal(err)
					}
					return fsys
				}}
			rec, err := fstest.RecordSeq(target, fstest.SweepBlocks, fstest.SweepSeq)
			if err != nil {
				t.Fatal(err)
			}
			n := len(rec.Log)
			cuts := slices.Compact([]int{0, n / 4, n / 2, n - 1, n})
			for _, k := range cuts {
				d, err := disk.New(fstest.SweepBlocks, disk.DefaultGeometry(), nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := d.RestoreImage(rec.Base); err != nil {
					t.Fatal(err)
				}
				cd := faultinject.NewCrashDevice(d, int64(k))
				var acked, want []int
				if fsys := target.New(cd, nil); fsys.Mount() == nil {
					for i, op := range rec.Seq {
						// The crash device ends the rerun at write k by design;
						// the media it leaves is what gets compared.
						if op.Issue(fsys, i) != nil {
							break
						}
						if op.Kind == fstest.OpFsync {
							acked = append(acked, i)
						}
					}
				}
				for i, op := range rec.Seq {
					if _, end, _ := rec.Oracle.Span(i); op.Kind == fstest.OpFsync && end <= k {
						want = append(want, i)
					}
				}
				cut, err := disk.New(fstest.SweepBlocks, disk.DefaultGeometry(), nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := cut.RestoreImage(rec.Base); err != nil {
					t.Fatal(err)
				}
				if err := faultinject.ApplyCrashState(cut, rec.Log, faultinject.PrefixCut(rec.Log, k), faultinject.EnumPolicy{}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(d.Snapshot(), cut.Snapshot()) {
					t.Errorf("cut %d of %d: the media a limit-%d rerun leaves differ from the prefix cut", k, n, k)
				}
				if !slices.Equal(acked, want) {
					t.Errorf("cut %d of %d: a limit-%d rerun acknowledges fsync ops %v, the oracle's spans %v", k, n, k, acked, want)
				}
			}
			t.Logf("%d writes; prefix cuts %v each equal a limit-k rerun", n, cuts)
		})
	}
}
