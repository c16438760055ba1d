package fs

import (
	"bytes"
	"slices"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/fstest"
	"ironfs/internal/vfs"
)

// TestPrefixCutMatchesCrashDevice is what lets the fsync sweep
// (fstest.SweepCrashes) run its workload once: it builds the image a crash
// after k writes leaves as the prefix cut of one recorded write log at k,
// and takes the acknowledged files to be those whose Fsync had returned by
// then. Both must be what a rerun on a CrashDevice with limit k leaves —
// the same media, byte for byte, and the same fsynced set — on every file
// system, from the cut before the first write to the one after the last.
func TestPrefixCutMatchesCrashDevice(t *testing.T) {
	const blocks = 4096
	bs := int(disk.DefaultGeometry().BlockSize)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			opts := txnOptions(name)
			mkfs := func(d disk.Device) error { return Mkfs(name, d, opts) }
			newFS := func(d disk.Device) vfs.FileSystem {
				fsys, err := New(name, d, opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				return fsys
			}
			rec, err := fstest.RecordCrashWorkload(blocks, mkfs, newFS)
			if err != nil {
				t.Fatal(err)
			}
			n := len(rec.Log)
			cuts := slices.Compact([]int{0, n / 4, n / 2, n - 1, n})
			for _, k := range cuts {
				d, err := disk.New(blocks, disk.DefaultGeometry(), nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := d.Restore(rec.Base); err != nil {
					t.Fatal(err)
				}
				cd := faultinject.NewCrashDevice(d, int64(k))
				var synced []string
				if fsys := newFS(cd); fsys.Mount() == nil {
					//iron:policy harness §4 the crash device ends the rerun at write k by design; the media it leaves is what gets compared
					_ = fstest.CrashWorkload(fsys, func(p string) { synced = append(synced, p) })
				}
				cut := faultinject.ApplyCrashState(rec.Base, bs, rec.Log, faultinject.PrefixCut(rec.Log, k), faultinject.EnumPolicy{})
				if !bytes.Equal(d.Snapshot(), cut) {
					t.Errorf("cut %d of %d: the media a limit-%d rerun leaves differ from the prefix cut", k, n, k)
				}
				if want := rec.SyncedAt(k); !slices.Equal(synced, want) {
					t.Errorf("cut %d of %d: a limit-%d rerun acknowledges fsyncs of %q, the prefix cut %q", k, n, k, synced, want)
				}
			}
			t.Logf("%d writes; prefix cuts %v each equal a limit-k rerun", n, cuts)
		})
	}
}
