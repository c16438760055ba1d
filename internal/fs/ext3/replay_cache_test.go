package ext3

import (
	"bytes"
	"fmt"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/sched"
	"ironfs/internal/vfs"
)

// TestReplayLeavesNoStaleCachedBlock: Mount verifies the superblock's
// checksum before it replays the journal, which loads the checksum-table
// block covering it into the cache. Replay writes the journaled copy of
// that block home behind the cache's back, and Mount's own superblock
// update then patched the pre-replay copy and wrote it home, reverting
// every checksum entry replay had brought home: files made durable before
// the crash read back as EIO and the volume went read-only.
//
// A first session lays files down and unmounts cleanly, so the table holds
// their checksums. A second session runs a churn on the production stack
// (disk → crash device → sched(32, adaptive)) with every ixt3 mechanism
// on, cut after every write from the one that makes its mount's superblock
// write durable. A replaying remount must read back every file of the
// first session and every one the churn fsynced before the cut, and stay
// healthy.
func TestReplayLeavesNoStaleCachedBlock(t *testing.T) { replayCutAfterEveryWrite(t, true) }

// TestMountSuperblockIsOneWrite is the same churn with no barrier after its
// mount, cut from write 0, so the mount's superblock write drains in the
// scheduler's order among the churn's first writes. The superblock's
// checksum once lived in the checksum table, written home by a second,
// unordered write: a cut between the two left a superblock that failed its
// checksum and had no replica, and the recovery mount was refused as
// corrupt. The superblock now carries its own checksum.
func TestMountSuperblockIsOneWrite(t *testing.T) { replayCutAfterEveryWrite(t, false) }

// replayCutAfterEveryWrite runs the churn both tests share; barrier says
// whether the churn's mount is made durable before the churn starts, and
// the cuts start after it.
func replayCutAfterEveryWrite(t *testing.T, barrier bool) {
	opts := AllIron()
	d, err := disk.New(8192, disk.DefaultGeometry(), disk.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(d, opts); err != nil {
		t.Fatal(err)
	}
	const laid, churned = 4, 10
	content := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i)}, BlockSize+BlockSize/2)
	}
	path := func(i int) string { return fmt.Sprintf("/f%d", i) }
	mountOn := func(dev disk.Device) (*FS, *sched.Scheduler) {
		s := sched.New(dev, sched.Config{QueueDepth: 32, Policy: sched.PolicyAdaptive})
		return New(s, opts, iron.NewRecorder()), s
	}
	// put creates, writes and fsyncs file i.
	put := func(fs *FS, i int) error {
		if err := fs.Create(path(i), 0o644); err != nil {
			return err
		}
		if _, err := fs.Write(path(i), 0, content(i)); err != nil {
			return err
		}
		return fs.Fsync(path(i))
	}

	fs, _ := mountOn(d)
	if err := fs.Mount(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < laid; i++ {
		if err := put(fs, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	base := d.Snapshot()

	// churn restores the first session's image, mounts it on a device cut
	// after limit writes and runs the churn until the cut stops it. It
	// returns how many files are durable and, with barrier, how many writes
	// the mount's barrier had made durable.
	churn := func(limit int64) (durable int, floor int64) {
		if err := d.Restore(base); err != nil {
			t.Fatal(err)
		}
		cd := faultinject.NewCrashDevice(d, limit)
		fs, s := mountOn(cd)
		if err := fs.Mount(); err != nil {
			t.Fatalf("cut %d: the churn's mount: %v", limit, err)
		}
		if barrier {
			if err := s.Barrier(); err != nil {
				t.Fatalf("cut %d: the churn's mount did not reach the media", limit)
			}
			floor = cd.Written()
		}
		for durable = laid; durable < laid+churned && put(fs, durable) == nil; durable++ {
		}
		return durable, floor
	}
	durable, floor := churn(-1)
	if durable != laid+churned {
		t.Fatalf("uncut churn made %d of %d files durable", durable, laid+churned)
	}
	// The last cut is the first one that lets every fsync finish.
	for cut := floor; ; cut++ {
		durable, _ := churn(cut)
		fs, _ := mountOn(d)
		if err := fs.Mount(); err != nil {
			t.Fatalf("cut %d: recovery mount: %v", cut, err)
		}
		buf := make([]byte, 2*BlockSize)
		for i := 0; i < durable; i++ {
			n, err := fs.Read(path(i), 0, buf)
			if err != nil {
				t.Fatalf("cut %d: %s, durable before the cut, reads back as %v", cut, path(i), err)
			}
			if !bytes.Equal(buf[:n], content(i)) {
				t.Fatalf("cut %d: %s, durable before the cut, reads back wrong", cut, path(i))
			}
		}
		if h := fs.Health(); h != vfs.Healthy {
			t.Fatalf("cut %d: the recovered volume is %v", cut, h)
		}
		if durable == laid+churned {
			break
		}
	}
}
