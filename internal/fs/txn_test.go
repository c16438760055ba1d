package fs

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ironfs/internal/disk"
	"ironfs/internal/journal"
	"ironfs/internal/stat"
	"ironfs/internal/vfs"
)

const txnBlock = 4096

// txnDev sits between a file system and its disk for TestTxnConformance.
// While recording it keeps every write and the position of every barrier,
// so the test can rebuild the image a power cut at each ordering point
// would have left; and the first write after hook is set runs it, from
// inside the commit that issued the write.
type txnDev struct {
	disk.Device
	raw *disk.Disk

	recording bool
	base      []byte         // the image when recording began
	writes    []disk.Request // every write since, in order
	cuts      []int          // len(writes) at each barrier since

	hook atomic.Pointer[func()]
}

func (d *txnDev) record(blk int64, data []byte) {
	if d.recording {
		d.writes = append(d.writes, disk.Request{Block: blk, Data: bytes.Clone(data)})
	}
}

func (d *txnDev) fire() {
	if f := d.hook.Swap(nil); f != nil {
		(*f)()
	}
}

func (d *txnDev) WriteBlock(n int64, buf []byte) error {
	d.fire()
	d.record(n, buf)
	return d.Device.WriteBlock(n, buf)
}

func (d *txnDev) WriteBatch(reqs []disk.Request) error {
	d.fire()
	for _, r := range reqs {
		d.record(r.Block, r.Data)
	}
	return d.Device.WriteBatch(reqs)
}

func (d *txnDev) Barrier() error {
	if d.recording {
		d.cuts = append(d.cuts, len(d.writes))
	}
	return d.Device.Barrier()
}

// startRecording begins a recording at the disk's current image.
func (d *txnDev) startRecording() {
	d.base, d.writes, d.cuts, d.recording = d.raw.Snapshot(), nil, nil, true
}

// imageAt returns a fresh disk holding the recording's base image plus its
// first n writes: what a power cut right after the n'th would have left.
func (d *txnDev) imageAt(t *testing.T, n int) *disk.Disk {
	t.Helper()
	img, err := disk.New(d.raw.NumBlocks(), disk.DefaultGeometry(), disk.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if err := img.Restore(d.base); err != nil {
		t.Fatal(err)
	}
	for _, w := range d.writes[:n] {
		if err := img.WriteBlock(w.Block, w.Data); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// txnOptions mounts ixt3 with the mechanisms the crash benchmark runs it
// with, so its freeze-time folds (checksum entries, replicas, Tc) and the
// Tc-checking replay are under the same table as stock ext3.
func txnOptions(name string) Options {
	if name == "ixt3" {
		return Options{Dc: true, Mr: true, Dp: true, Tc: true}
	}
	return Options{}
}

func mountTxn(t *testing.T, name string) (vfs.FileSystem, *txnDev) {
	t.Helper()
	raw, err := disk.New(8192, disk.DefaultGeometry(), disk.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(name, raw, txnOptions(name)); err != nil {
		t.Fatal(err)
	}
	dev := &txnDev{Device: raw, raw: raw}
	fsys, err := Mount(name, dev, txnOptions(name))
	if err != nil {
		t.Fatal(err)
	}
	return fsys, dev
}

// txnPayload is n blocks of bytes that identify the file and the offset.
func txnPayload(tag byte, blocks int) []byte {
	b := make([]byte, blocks*txnBlock)
	for i := range b {
		b[i] = tag ^ byte(i) ^ byte(i>>8)
	}
	return b
}

func writeFile(t *testing.T, fsys vfs.FileSystem, path string, data []byte) {
	t.Helper()
	if err := fsys.Create(path, 0o644); err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	if n, err := fsys.Write(path, 0, data); err != nil || n != len(data) {
		t.Fatalf("write %s: %d, %v", path, n, err)
	}
}

// checkFiles reads every file back. With whole set each must be there in
// full; without it — an image cut before the final sync returned — a file
// may be missing or short, but never wrong: ordered data is home before
// the metadata naming it commits.
func checkFiles(t *testing.T, when string, fsys vfs.FileSystem, files map[string][]byte, whole bool) {
	t.Helper()
	for path, want := range files {
		got := make([]byte, len(want))
		n, err := fsys.Read(path, 0, got)
		if errors.Is(err, vfs.ErrNotExist) && !whole {
			continue
		}
		if err != nil {
			t.Errorf("%s: read %s: %v", when, path, err)
			continue
		}
		if whole && n != len(want) {
			t.Errorf("%s: %s is %d bytes, want %d", when, path, n, len(want))
		}
		if !bytes.Equal(got[:n], want[:n]) {
			i := 0
			for got[i] == want[i] {
				i++
			}
			t.Errorf("%s: %s block %d holds % x…, want % x…", when, path, i/txnBlock, got[i:i+4], want[i:i+4])
		}
	}
}

// TestTxnConformance is the black-box contract of the shared running
// transaction (journal.Txn) and log ring (journal.Ring), run over every
// registered file system with one required outcome per row: what staging,
// dropping, freezing and the cap promise is stated once and checked
// everywhere.
func TestTxnConformance(t *testing.T) {
	// A block the transaction staged as metadata, then freed, then handed
	// out again as file data must come back as that data: the stale
	// metadata image may reach neither the block's home nor the log. Each
	// variant ends in one Sync, recorded, and is read back after a clean
	// remount, after a cut at each of that Sync's barriers (recovery
	// replays what the log holds by then), and after a cut at its end.
	reuse := map[string]func(t *testing.T, fsys vfs.FileSystem){
		// The freed metadata is the pointer block of a file too large
		// for its inode's direct extents.
		"file": func(t *testing.T, fsys vfs.FileSystem) {
			writeFile(t, fsys, "/big", txnPayload(0xB1, 14))
			if err := fsys.Unlink("/big"); err != nil {
				t.Fatal(err)
			}
		},
		// The freed metadata is the blocks of a directory that grew,
		// emptied and was removed.
		"directory": func(t *testing.T, fsys vfs.FileSystem) {
			if err := fsys.Mkdir("/d", 0o755); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				if err := fsys.Create(fmt.Sprintf("/d/entry-with-a-long-name-%02d", i), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 40; i++ {
				if err := fsys.Unlink(fmt.Sprintf("/d/entry-with-a-long-name-%02d", i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := fsys.Rmdir("/d"); err != nil {
				t.Fatal(err)
			}
		},
	}

	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			for variant, free := range reuse {
				t.Run("freed_metadata_reused_as_data/"+variant, func(t *testing.T) {
					fsys, dev := mountTxn(t, name)
					files := map[string][]byte{"/keep": txnPayload(0x4B, 2)}
					writeFile(t, fsys, "/keep", files["/keep"])
					if err := fsys.Sync(); err != nil {
						t.Fatal(err)
					}
					free(t, fsys)
					for i := 0; i < 12; i++ {
						path := fmt.Sprintf("/f%02d", i)
						files[path] = txnPayload(byte(i), 6)
						writeFile(t, fsys, path, files[path])
					}
					dev.startRecording()
					if err := fsys.Sync(); err != nil {
						t.Fatal(err)
					}
					dev.recording = false

					checkFiles(t, "before remount", fsys, files, true)
					for i, cut := range append(dev.cuts, len(dev.writes)) {
						when := fmt.Sprintf("crash at barrier %d of %d (write %d)", i+1, len(dev.cuts), cut)
						whole := cut == len(dev.writes)
						if whole {
							when = "crash after the sync"
						}
						crashed, err := Mount(name, dev.imageAt(t, cut), txnOptions(name))
						if err != nil {
							t.Errorf("%s: recovery mount: %v", when, err)
							continue
						}
						checkFiles(t, when, crashed, files, whole)
					}
					if err := fsys.Unmount(); err != nil {
						t.Fatal(err)
					}
					again, err := Mount(name, dev.raw, txnOptions(name))
					if err != nil {
						t.Fatal(err)
					}
					checkFiles(t, "after clean remount", again, files, true)
				})
			}

			// The other way round: blocks freed by an unlink — the file's
			// data and its pointer block — are handed to a new directory
			// in the same transaction. What was staged for the old owner
			// is gone, what is staged for the new one commits, and the
			// image checks clean.
			t.Run("freed_blocks_reused_as_metadata", func(t *testing.T) {
				fsys, dev := mountTxn(t, name)
				writeFile(t, fsys, "/big", txnPayload(0xB2, 14))
				if err := fsys.Unlink("/big"); err != nil {
					t.Fatal(err)
				}
				if err := fsys.Mkdir("/d", 0o755); err != nil {
					t.Fatal(err)
				}
				files := map[string][]byte{}
				for i := 0; i < 20; i++ {
					path := fmt.Sprintf("/d/entry-with-a-long-name-%02d", i)
					files[path] = txnPayload(byte(i), 1)
					writeFile(t, fsys, path, files[path])
				}
				if err := fsys.Unmount(); err != nil {
					t.Fatal(err)
				}
				res, err := Fsck(name, dev.raw, txnOptions(name), FsckConfig{Parallel: 1})
				if err != nil || len(res.Problems) != 0 {
					t.Fatalf("fsck after free-then-reuse: %v, problems %v", err, res.Problems)
				}
				again, err := Mount(name, dev.raw, txnOptions(name))
				if err != nil {
					t.Fatal(err)
				}
				checkFiles(t, "after clean remount", again, files, true)
				if _, err := again.Stat("/big"); !errors.Is(err, vfs.ErrNotExist) {
					t.Fatalf("unlinked /big after remount: %v", err)
				}
			})

			// A pointer block allocated for a growing file starts zeroed,
			// whatever the block held before: the bytes of a freed file
			// under it would read as pointers for the file's holes. The
			// hole must read zero live, after a crash at each barrier of
			// the Sync that commits it (where recovery replays the log),
			// and after a clean remount, and every image must check clean.
			t.Run("new_pointer_block_starts_zeroed", func(t *testing.T) {
				fsys, dev := mountTxn(t, name)
				writeFile(t, fsys, "/junk", txnPayload(0xEE, 16))
				if err := fsys.Sync(); err != nil {
					t.Fatal(err)
				}
				if err := fsys.Unlink("/junk"); err != nil {
					t.Fatal(err)
				}
				if err := fsys.Sync(); err != nil {
					t.Fatal(err)
				}
				// One block far past every file system's direct pointers:
				// the file needs a pointer block, and the first free
				// blocks are the junk's.
				const last = 40
				tail := txnPayload(0x7A, 1)
				if err := fsys.Create("/sparse", 0o644); err != nil {
					t.Fatal(err)
				}
				if n, err := fsys.Write("/sparse", last*txnBlock, tail); err != nil || n != len(tail) {
					t.Fatalf("write past the direct pointers: %d, %v", n, err)
				}
				dev.startRecording()
				if err := fsys.Sync(); err != nil {
					t.Fatal(err)
				}
				dev.recording = false
				checkHole := func(when string, fsys vfs.FileSystem) {
					t.Helper()
					buf, zero := make([]byte, txnBlock), make([]byte, txnBlock)
					for _, l := range []int64{0, last / 2, last - 1} {
						if n, err := fsys.Read("/sparse", l*txnBlock, buf); err != nil || n != len(buf) {
							t.Fatalf("%s: hole block %d reads %d bytes, %v", when, l, n, err)
						}
						if !bytes.Equal(buf, zero) {
							t.Fatalf("%s: hole block %d is not zero", when, l)
						}
					}
					if n, err := fsys.Read("/sparse", last*txnBlock, buf); err != nil || n != len(buf) || !bytes.Equal(buf, tail) {
						t.Fatalf("%s: block %d reads %d bytes, %v", when, last, n, err)
					}
				}
				checkHole("live", fsys)
				for i, cut := range dev.cuts {
					when := fmt.Sprintf("crash at barrier %d of %d (write %d)", i+1, len(dev.cuts), cut)
					img := dev.imageAt(t, cut)
					crashed, err := Mount(name, img, txnOptions(name))
					if err != nil {
						t.Fatalf("%s: recovery mount: %v", when, err)
					}
					if fi, err := crashed.Stat("/sparse"); err == nil && fi.Size == (last+1)*txnBlock {
						checkHole(when, crashed)
					}
					if err := crashed.Unmount(); err != nil {
						t.Fatal(err)
					}
					if err := Check(name, img, txnOptions(name)); err != nil {
						t.Fatalf("%s: check: %v", when, err)
					}
				}
				if err := fsys.Unmount(); err != nil {
					t.Fatal(err)
				}
				again, err := Mount(name, dev.raw, txnOptions(name))
				if err != nil {
					t.Fatal(err)
				}
				checkHole("after clean remount", again)
				if err := again.Unmount(); err != nil {
					t.Fatal(err)
				}
				if err := Check(name, dev.raw, txnOptions(name)); err != nil {
					t.Fatalf("check: %v", err)
				}
			})

			// A block freed and handed out again as a pointer block in the
			// same transaction is journaled there after its revoke:
			// recovery must replay that copy. A one-block file taken first
			// shifts the new file by a block, so its pointer block lands
			// on one the old file freed and points elsewhere than the old
			// one did. A crash at each barrier of the Fsync that commits
			// it all, and after it, shows the files whole once the Fsync
			// has returned.
			t.Run("freed_block_reused_as_pointer_block_in_one_transaction", func(t *testing.T) {
				fsys, dev := mountTxn(t, name)
				writeFile(t, fsys, "/old", txnPayload(0x0D, 14))
				if err := fsys.Sync(); err != nil {
					t.Fatal(err)
				}
				if err := fsys.Unlink("/old"); err != nil {
					t.Fatal(err)
				}
				files := map[string][]byte{"/pad": txnPayload(0x9A, 1), "/new": txnPayload(0x4E, 14)}
				writeFile(t, fsys, "/pad", files["/pad"])
				writeFile(t, fsys, "/new", files["/new"])
				dev.startRecording()
				if err := fsys.Fsync("/new"); err != nil {
					t.Fatal(err)
				}
				dev.recording = false
				for i, cut := range append(dev.cuts, len(dev.writes)) {
					when := fmt.Sprintf("crash at barrier %d of %d (write %d)", i+1, len(dev.cuts), cut)
					whole := cut == len(dev.writes)
					if whole {
						when = "crash after the fsync"
					}
					crashed, err := Mount(name, dev.imageAt(t, cut), txnOptions(name))
					if err != nil {
						t.Fatalf("%s: recovery mount: %v", when, err)
					}
					checkFiles(t, when, crashed, files, whole)
				}
			})

			// A commit carries the image frozen when it began. The device
			// runs a second Chmod of the same file from inside the
			// commit's first write — the lock is released, the inode's
			// block is re-dirtied in the cache the commit is reading from
			// — and a crash right after that Sync must show the first
			// mode, not the second; the next Sync brings the second.
			t.Run("redirty_during_inflight_commit", func(t *testing.T) {
				fsys, dev := mountTxn(t, name)
				writeFile(t, fsys, "/f", txnPayload(1, 1))
				if err := fsys.Sync(); err != nil {
					t.Fatal(err)
				}
				if err := fsys.Chmod("/f", 0o600); err != nil {
					t.Fatal(err)
				}
				var hookErr error
				second := func() { hookErr = fsys.Chmod("/f", 0o755) }
				dev.hook.Store(&second)
				for i, want := range []uint16{0o600, 0o755} {
					dev.startRecording()
					if err := fsys.Sync(); err != nil {
						t.Fatal(err)
					}
					dev.recording = false
					if dev.hook.Load() != nil || hookErr != nil {
						t.Fatalf("second Chmod did not run inside the commit: %v", hookErr)
					}
					crashed, err := Mount(name, dev.imageAt(t, len(dev.writes)), txnOptions(name))
					if err != nil {
						t.Fatalf("recovery mount after sync %d: %v", i+1, err)
					}
					if fi, err := crashed.Stat("/f"); err != nil || fi.Mode&0o777 != want {
						t.Fatalf("after sync %d a crash shows mode %o, %v; want %o", i+1, fi.Mode&0o777, err, want)
					}
				}
				if fi, err := fsys.Stat("/f"); err != nil || fi.Mode&0o777 != 0o755 {
					t.Fatalf("live mode %o, %v; want 755", fi.Mode&0o777, err)
				}
			})

			// While a commit is writing, the running transaction takes
			// operations only up to its cap: the client that reaches it
			// parks behind the commit in flight. Unbounded, it would
			// outgrow the one descriptor block its own freeze gets.
			t.Run("cap_reached_during_inflight_commit", func(t *testing.T) {
				defer stat.SetDefault(stat.SetDefault(stat.NewRegistry()))
				fsys, dev := mountTxn(t, name)
				// A hundred and ten directories, each holding one file of
				// about half a block (in ReiserFS, a tail that fills half
				// a tree leaf): a rename plus a chmod in each dirties a
				// directory block or tree leaf of its own, which is more
				// than one transaction's worth on every file system —
				// without outgrowing the smallest inode table.
				const dirs = 110
				body := txnPayload(9, 1)[:2000]
				for i := 0; i < dirs; i++ {
					if err := fsys.Mkdir(fmt.Sprintf("/d%03d", i), 0o755); err != nil {
						t.Fatal(err)
					}
					writeFile(t, fsys, fmt.Sprintf("/d%03d/a", i), body)
				}
				writeFile(t, fsys, "/seed", txnPayload(5, 1))

				// Hold the commit of all that at its first write.
				stalled, release := make(chan struct{}), make(chan struct{})
				stall := func() { close(stalled); <-release }
				dev.hook.Store(&stall)
				syncDone := make(chan error, 1)
				go func() { syncDone <- fsys.Sync() }()
				<-stalled

				var moved atomic.Int32
				clientDone := make(chan error, 1)
				go func() {
					for i := 0; i < dirs; i++ {
						from, to := fmt.Sprintf("/d%03d/a", i), fmt.Sprintf("/d%03d/b", i)
						if err := fsys.Rename(from, to); err != nil {
							clientDone <- fmt.Errorf("rename %s: %w", from, err)
							return
						}
						if err := fsys.Chmod(to, 0o600); err != nil {
							clientDone <- fmt.Errorf("chmod %s: %w", to, err)
							return
						}
						moved.Add(1)
					}
					clientDone <- nil
				}()
				select {
				case err := <-clientDone:
					t.Errorf("client finished (%v) while the commit was held: the cap never parked it", err)
					clientDone <- err
				case <-time.After(300 * time.Millisecond):
				}
				if n := moved.Load(); n == 0 || n == dirs {
					t.Errorf("client got through %d of %d directories while the commit was held; want some, not all", n, dirs)
				}
				close(release)
				if err := <-syncDone; err != nil {
					t.Fatalf("held Sync: %v", err)
				}
				if err := <-clientDone; err != nil {
					t.Fatalf("client: %v", err)
				}
				if err := fsys.Sync(); err != nil {
					t.Fatal(err)
				}
				if max := stat.H("fs_txn_blocks", "fs", name).Max(); max <= 0 || max >= journal.MaxTags {
					t.Errorf("largest transaction froze %d blocks; want under the descriptor's %d", max, journal.MaxTags)
				}
				files := map[string][]byte{}
				for i := 0; i < dirs; i++ {
					files[fmt.Sprintf("/d%03d/b", i)] = body
					if fi, err := fsys.Stat(fmt.Sprintf("/d%03d/b", i)); err != nil || fi.Mode&0o777 != 0o600 {
						t.Fatalf("file %d: mode %o, %v", i, fi.Mode&0o777, err)
					}
				}
				checkFiles(t, "after the held commit", fsys, files, true)
				if err := fsys.Unmount(); err != nil {
					t.Fatal(err)
				}
				if err := Check(name, dev.raw, txnOptions(name)); err != nil {
					t.Fatalf("oracle: %v", err)
				}
			})
		})
	}
}
