package fstest

import (
	"bytes"
	"fmt"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// Crash-consistency sweep: record a fixed workload once on a CrashDevice,
// then for every prefix cut of its write log — the image a crash after k
// writes leaves — remount (triggering journal recovery) and verify the
// journaling invariant: every file fsync'd before the cut is intact
// afterwards, and the file system itself is usable.

// CrashConfig parameterizes a sweep.
type CrashConfig struct {
	// DiskBlocks sizes the device.
	DiskBlocks int64
	// Stride samples every Nth crash point instead of all (default 1).
	Stride int64
	// MaxPoints caps the number of crash points tried (0 = all).
	MaxPoints int
}

// CrashWorkload is the deterministic workload used by the sweep: three
// files created, written, and individually fsync'd, with fsynced called
// on each path once its Fsync has returned. After recovery, every file
// whose fsync completed before the crash must read back exactly.
func CrashWorkload(fs vfs.FileSystem, fsynced func(path string)) error {
	for i := 0; i < 3; i++ {
		p := fmt.Sprintf("/durable%d", i)
		if err := fs.Create(p, 0o644); err != nil {
			return err
		}
		if _, err := fs.Write(p, 0, crashPayload(i)); err != nil {
			return err
		}
		if err := fs.Fsync(p); err != nil {
			return err
		}
		fsynced(p)
	}
	return nil
}

func crashPayload(i int) []byte {
	return bytes.Repeat([]byte{byte('A' + i)}, 3000+i*1000)
}

// CrashRecording is CrashWorkload recorded once, mount included, on a
// CrashDevice, with the log length at which each Fsync returned.
type CrashRecording struct {
	*Recording
	fsynced []fsyncMark
}

// fsyncMark is one acknowledged Fsync: path was durable once the first
// writes logged writes had landed.
type fsyncMark struct {
	path   string
	writes int
}

// RecordCrashWorkload formats a volume of the given size with mkfs, then
// mounts newFS on a recording CrashDevice over it and runs CrashWorkload.
func RecordCrashWorkload(blocks int64, mkfs func(dev disk.Device) error, newFS func(dev disk.Device) vfs.FileSystem) (*CrashRecording, error) {
	t := ExploreTarget{Name: "sweep", Mkfs: mkfs, New: func(d disk.Device, _ *iron.Recorder) vfs.FileSystem { return newFS(d) }}
	r := &CrashRecording{}
	var err error
	r.Recording, err = Record(t, blocks, nil, func(cd *faultinject.CrashDevice) error {
		fs := newFS(cd)
		if err := fs.Mount(); err != nil {
			return err
		}
		return CrashWorkload(fs, func(p string) {
			r.fsynced = append(r.fsynced, fsyncMark{path: p, writes: int(cd.Written())})
		})
	})
	return r, err
}

// SyncedAt returns the paths whose Fsync had returned by the cut at k: the
// set a rerun crashed after k writes acknowledges.
func (r *CrashRecording) SyncedAt(k int) []string {
	var out []string
	for _, m := range r.fsynced {
		if m.writes <= k {
			out = append(out, m.path)
		}
	}
	return out
}

// SweepCrashes records the workload once and checks every stride-th prefix
// cut of its log, from nothing landed to every write landed, remounting
// with newFS each time. mkfs formats a fresh device; newFS binds an
// instance. It returns the number of crash points tested.
func SweepCrashes(
	cfg CrashConfig,
	mkfs func(dev disk.Device) error,
	newFS func(dev disk.Device) vfs.FileSystem,
) (int, error) {
	if cfg.DiskBlocks == 0 {
		cfg.DiskBlocks = 4096
	}
	if cfg.Stride == 0 {
		cfg.Stride = 1
	}
	r, err := RecordCrashWorkload(cfg.DiskBlocks, mkfs, newFS)
	if err != nil {
		return 0, err
	}
	img := make([]byte, len(r.Base))
	points := 0
	for k := 0; k <= len(r.Log); k += int(cfg.Stride) {
		if cfg.MaxPoints > 0 && points >= cfg.MaxPoints {
			break
		}
		points++
		var lost error
		g, err := r.Grade(faultinject.PrefixCut(r.Log, k), faultinject.EnumPolicy{}, img, "", func(rfs vfs.FileSystem) {
			lost = checkRecovered(rfs, r.SyncedAt(k))
		})
		if err != nil {
			return points, err
		}
		if g.MountErr != nil {
			return points, fmt.Errorf("crash at write %d: recovery mount failed: %v", k, g.MountErr)
		}
		if lost != nil {
			return points, fmt.Errorf("crash at write %d: %v", k, lost)
		}
	}
	return points, nil
}

// checkRecovered verifies a recovered CrashWorkload volume: every synced
// file reads back exactly, and the file system is still usable.
func checkRecovered(fs vfs.FileSystem, synced []string) error {
	for i, p := range synced {
		want := crashPayload(i)
		buf := make([]byte, len(want))
		n, err := fs.Read(p, 0, buf)
		if err != nil || n != len(want) || !bytes.Equal(buf[:n], want) {
			return fmt.Errorf("fsync'd file %s lost or corrupt (n=%d err=%v)", p, n, err)
		}
	}
	if err := fs.Create("/after-recovery", 0o644); err != nil {
		return fmt.Errorf("post-recovery create: %v", err)
	}
	if err := fs.Unmount(); err != nil {
		return fmt.Errorf("post-recovery unmount: %v", err)
	}
	return nil
}
