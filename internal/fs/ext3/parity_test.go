package ext3

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/sched"
	"ironfs/internal/vfs"
)

// writeCounter sits under the scheduler and counts the writes that reach
// each block.
type writeCounter struct {
	disk.Device
	writes map[int64]int
}

func (w *writeCounter) WriteBlock(n int64, buf []byte) error {
	w.writes[n]++
	return w.Device.WriteBlock(n, buf)
}

func (w *writeCounter) WriteBatch(reqs []disk.Request) error {
	for _, r := range reqs {
		w.writes[r.Block]++
	}
	return w.Device.WriteBatch(reqs)
}

func (w *writeCounter) Clock() *disk.Clock { return disk.ClockOf(w.Device) }

// inodeOf returns the inode path names.
func inodeOf(t *testing.T, fs *FS, path string) *inode {
	t.Helper()
	_, in, err := fs.ResolveLocked(path, true)
	if err != nil {
		t.Fatalf("resolve %s: %v", path, err)
	}
	return &in
}

func freeBlocks(t *testing.T, fs *FS) int64 {
	t.Helper()
	st, err := fs.Statfs()
	if err != nil {
		t.Fatal(err)
	}
	return st.FreeBlocks
}

func requireClean(t *testing.T, fs *FS) {
	t.Helper()
	probs, err := fs.CheckConsistency()
	if err != nil || len(probs) != 0 {
		t.Fatalf("check: %v, problems %v", err, probs)
	}
}

// requireNoParity holds the create half of the contract: a file that has
// never been written names no parity block.
func requireNoParity(t *testing.T, fs *FS, path string) {
	t.Helper()
	if p := inodeOf(t, fs, path).Parity; p != 0 {
		t.Fatalf("%s names parity block %d before its first write", path, p)
	}
}

// requireReconstructs remounts cold, fails file block l on the device and
// requires the read to come back as want, rebuilt from parity.
func requireReconstructs(t *testing.T, fs *FS, fdev *faultinject.Device, rec *iron.Recorder, path string, l int64, want []byte) {
	t.Helper()
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	phys, err := fs.bmap(inodeOf(t, fs, path), l, false)
	if err != nil || phys == 0 {
		t.Fatalf("bmap %s block %d: %d, %v", path, l, phys, err)
	}
	fs = remountCold(t, fs)
	fdev.Arm(&faultinject.Fault{Class: iron.ReadFailure, Sticky: true, Range: faultinject.BlockRange{Start: phys, End: phys + 1}})
	defer fdev.Disarm()
	got := make([]byte, BlockSize)
	if _, err := fs.Read(path, l*BlockSize, got); err != nil {
		t.Fatalf("read of failed block %d of %s: %v", l, path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("block %d of %s reconstructed wrong", l, path)
	}
	if !rec.Recoveries().Has(iron.RRedundancy) {
		t.Fatalf("no RRedundancy recorded:\n%s", rec.Summary())
	}
}

func block(fill byte) []byte { return bytes.Repeat([]byte{fill}, BlockSize) }

// TestParityBornWithFirstWrite pins where and when ixt3 (Dp) allocates a
// file's parity block: not at create, but by the write that gives the file
// its first block, just ahead of the blocks that write allocates; a
// truncate to zero gives it back.
func TestParityBornWithFirstWrite(t *testing.T) {
	type mount struct {
		name string
		opts Options
		// churnBatches is the scheduler's WriteBatch count for the
		// interleaved churn row. A drain leaves as one command per
		// ascending sweep: these were 54 and 58 when it left as one
		// command per run of adjacent blocks.
		churnBatches int64
	}
	mounts := []mount{
		{"Dp", Options{DataParity: true, FixBugs: true}, 51},
		// 73 while Mr overwrote each block's one replica slot in place:
		// a commit's replicas scattered over the replica area. The replica
		// log writes them as one contiguous run. 36 while every superblock
		// write was followed by a write of its checksum-table entry.
		{"all", AllIron(), 35},
	}
	rows := []struct {
		name string
		run  func(t *testing.T, m mount)
	}{
		// 16 clients create, then each writes one block and fsyncs, round
		// robin, on disk → sched(32, adaptive). A parity block allocated at
		// create lands among the other clients' creates and is written
		// twice: zeroed by the first group commit, then again by its
		// file's write.
		{"interleaved_churn", func(t *testing.T, m mount) {
			const clients = 16
			opts := m.opts
			d, err := disk.New(8192, disk.DefaultGeometry(), disk.NewClock())
			if err != nil {
				t.Fatal(err)
			}
			if err := Mkfs(d, opts); err != nil {
				t.Fatal(err)
			}
			counter := &writeCounter{Device: d, writes: map[int64]int{}}
			s := sched.New(counter, sched.Config{QueueDepth: 32, Policy: sched.PolicyAdaptive})
			fs := New(s, opts, iron.NewRecorder())
			if err := fs.Mount(); err != nil {
				t.Fatal(err)
			}
			path := func(c int) string { return fmt.Sprintf("/c%02d", c) }
			for c := 0; c < clients; c++ {
				if err := fs.Create(path(c), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for c := 0; c < clients; c++ {
				if _, err := fs.Write(path(c), 0, block(byte(c+1))); err != nil {
					t.Fatal(err)
				}
				if err := fs.Fsync(path(c)); err != nil {
					t.Fatal(err)
				}
			}
			parity := map[string]int64{}
			for c := 0; c < clients; c++ {
				in := inodeOf(t, fs, path(c))
				if in.Parity == 0 || in.Parity != in.Direct[0]-1 {
					t.Errorf("%s: parity block %d, first data block %d: want the block just before it", path(c), in.Parity, in.Direct[0])
				}
				parity[path(c)] = int64(in.Parity)
			}
			if err := fs.Unmount(); err != nil {
				t.Fatal(err)
			}
			if err := s.Barrier(); err != nil {
				t.Fatal(err)
			}
			for p, blk := range parity {
				if n := counter.writes[blk]; n != 1 {
					t.Errorf("%s: parity block %d written %d times, want once", p, blk, n)
				}
			}
			if got := s.Stats().Batches; got != m.churnBatches {
				t.Errorf("the churn left in %d batches, want %d", got, m.churnBatches)
			}
		}},

		// The device is cut after the create's commit: the recovered file
		// has no parity, the volume checks clean, and the first write
		// after the crash allocates the parity that protects it.
		{"crash_between_create_and_first_write", func(t *testing.T, m mount) {
			opts := m.opts
			d, err := disk.New(8192, disk.DefaultGeometry(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := Mkfs(d, opts); err != nil {
				t.Fatal(err)
			}
			cut := faultinject.NewCrashDevice(d, -1)
			fs := New(cut, opts, iron.NewRecorder())
			if err := fs.Mount(); err != nil {
				t.Fatal(err)
			}
			if err := fs.Create("/f", 0o644); err != nil {
				t.Fatal(err)
			}
			if err := fs.Fsync("/f"); err != nil {
				t.Fatal(err)
			}
			cut.SetLimit(0)
			if _, err := fs.Write("/f", 0, block('x')); err == nil {
				if err := fs.Fsync("/f"); err == nil {
					t.Fatal("fsync after the cut succeeded")
				}
			}

			if err := CheckImage(d, opts); err != nil {
				t.Fatalf("after the crash: %v", err)
			}
			fdev := faultinject.New(d, nil)
			fdev.SetResolver(NewResolver(d))
			rec := iron.NewRecorder()
			fs = New(fdev, opts, rec)
			if err := fs.Mount(); err != nil {
				t.Fatal(err)
			}
			requireNoParity(t, fs, "/f")
			if _, err := fs.Write("/f", 0, block('y')); err != nil {
				t.Fatal(err)
			}
			if inodeOf(t, fs, "/f").Parity == 0 {
				t.Fatal("the first write after recovery allocated no parity")
			}
			requireReconstructs(t, fs, fdev, rec, "/f", 0, block('y'))
		}},

		// Parity is born when the file gets its first block, not when it
		// gets its first byte of size: a file grown by truncate and then
		// written in the middle is protected.
		{"sparse_first_write", func(t *testing.T, m mount) {
			_, fdev, rec, fs := ironStack(t, m.opts)
			if err := fs.Create("/f", 0o644); err != nil {
				t.Fatal(err)
			}
			if err := fs.Truncate("/f", 5*BlockSize); err != nil {
				t.Fatal(err)
			}
			requireNoParity(t, fs, "/f")
			if _, err := fs.Write("/f", 3*BlockSize, block('s')); err != nil {
				t.Fatal(err)
			}
			requireReconstructs(t, fs, fdev, rec, "/f", 3, block('s'))
		}},

		// A truncate to zero gives the parity block back with the data;
		// the next write allocates a fresh one.
		{"truncate_to_zero", func(t *testing.T, m mount) {
			_, fdev, rec, fs := ironStack(t, m.opts)
			if err := fs.Create("/f", 0o644); err != nil {
				t.Fatal(err)
			}
			requireNoParity(t, fs, "/f")
			free := freeBlocks(t, fs)
			if _, err := fs.Write("/f", 0, bytes.Repeat([]byte("t"), 3*BlockSize)); err != nil {
				t.Fatal(err)
			}
			if err := fs.Truncate("/f", 0); err != nil {
				t.Fatal(err)
			}
			if got := freeBlocks(t, fs); got != free {
				t.Fatalf("%d free blocks after the truncate to zero, %d before the write", got, free)
			}
			if p := inodeOf(t, fs, "/f").Parity; p != 0 {
				t.Fatalf("an empty file still names parity block %d", p)
			}
			if _, err := fs.Write("/f", 0, block('u')); err != nil {
				t.Fatal(err)
			}
			if inodeOf(t, fs, "/f").Parity == 0 {
				t.Fatal("the write after the truncate allocated no parity")
			}
			if got := freeBlocks(t, fs); got != free-2 {
				t.Fatalf("a one-block write to an empty file took %d blocks, want 2", free-got)
			}
			requireReconstructs(t, fs, fdev, rec, "/f", 0, block('u'))
		}},

		// An empty file that already names a zeroed parity block — every
		// image written while create allocated it — keeps it: the first
		// write folds into that block and allocates no second one.
		{"parent_format_inode", func(t *testing.T, m mount) {
			_, fdev, rec, fs := ironStack(t, m.opts)
			if err := fs.Create("/f", 0o644); err != nil {
				t.Fatal(err)
			}
			fs.mu.Lock()
			ino, in, err := fs.ResolveLocked("/f", true)
			if err != nil {
				t.Fatal(err)
			}
			pblk, err := fs.allocBlock(fs.groupOfInode(ino), BTParity)
			if err != nil {
				t.Fatal(err)
			}
			fs.txDataNew(pblk, BTParity)
			in.Parity = uint64(pblk)
			if err := fs.StoreLocked(ino, in); err != nil {
				t.Fatal(err)
			}
			fs.mu.Unlock()
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			free := freeBlocks(t, fs)
			data := append(block('p'), block('q')...)
			if _, err := fs.Write("/f", 0, data); err != nil {
				t.Fatal(err)
			}
			if p := inodeOf(t, fs, "/f").Parity; p != uint64(pblk) {
				t.Fatalf("/f names parity block %d after its first write, want %d", p, pblk)
			}
			if got := freeBlocks(t, fs); got != free-2 {
				t.Fatalf("a two-block write took %d blocks, want 2", free-got)
			}
			requireClean(t, fs)
			requireReconstructs(t, fs, fdev, rec, "/f", 1, block('q'))
		}},

		// With one free block left, the first write of an empty file cannot
		// have both a parity block and a data block. It fails with a typed
		// ErrNoSpace or succeeds without parity; either way no block leaks.
		{"one_free_block", func(t *testing.T, m mount) {
			_, _, _, fs := ironStack(t, m.opts)
			if err := fs.Create("/f", 0o644); err != nil {
				t.Fatal(err)
			}
			if err := fs.Create("/fill", 0o644); err != nil {
				t.Fatal(err)
			}
			var end int64
			for free := freeBlocks(t, fs); free > 1; free = freeBlocks(t, fs) {
				n := max((free-1)/2, 1)
				if _, err := fs.Write("/fill", end, make([]byte, n*BlockSize)); err != nil {
					t.Fatalf("filling at %d free blocks: %v", free, err)
				}
				end += n * BlockSize
			}
			if free := freeBlocks(t, fs); free != 1 {
				t.Fatalf("the fill left %d free blocks, want 1", free)
			}
			_, err := fs.Write("/f", 0, block('z'))
			switch {
			case errors.Is(err, vfs.ErrNoSpace):
				if got := freeBlocks(t, fs); got != 1 {
					t.Fatalf("the failed write left %d free blocks, want 1", got)
				}
			case err != nil:
				t.Fatalf("write with one free block: %v, want nil or ErrNoSpace", err)
			default:
				if p := inodeOf(t, fs, "/f").Parity; p != 0 {
					t.Fatalf("the write took the last block for parity %d and still succeeded", p)
				}
			}
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			requireClean(t, fs)
		}},
	}
	for _, m := range mounts {
		t.Run(m.name, func(t *testing.T) {
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) { row.run(t, m) })
			}
		})
	}
}
