package fs

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/vfs"
)

// TestConcurrentCommitsKeepAcknowledgedBytes: the journal's frozen
// payloads live in frames each commit hands back to its transaction, so a
// frame returned too early would carry another block's image to the log or
// home. Four clients create, write, fsync and unlink files of their own at
// once: while one client's commit writes with the lock released, the
// others re-dirty the blocks it froze (the directory, the inode table, the
// bitmaps), and every third file is large enough to free a pointer block
// when it goes. A prefix cut of the write log at each barrier, recovered,
// holds every file whose Fsync had returned by then and whose Unlink had
// not yet started, byte for byte; so does a clean remount, which checks
// clean.
func TestConcurrentCommitsKeepAcknowledgedBytes(t *testing.T) {
	const blocks, clients, rounds = 4096, 4, 9
	type ack struct {
		path string
		data []byte
		// at is the write count once Fsync returned; gone is the count
		// before Unlink started, or MaxInt64.
		at, gone int
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			opts := txnOptions(name)
			raw, err := disk.New(blocks, disk.DefaultGeometry(), disk.NewClock())
			if err != nil {
				t.Fatal(err)
			}
			if err := Mkfs(name, raw, opts); err != nil {
				t.Fatal(err)
			}
			base := raw.Image()
			cd := faultinject.NewCrashDevice(raw, -1)
			fsys, err := Mount(name, cd, opts)
			if err != nil {
				t.Fatal(err)
			}

			var mu sync.Mutex
			var acks []*ack
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var mine []*ack
					for r := 0; r < rounds; r++ {
						path := fmt.Sprintf("/c%d-%d", c, r)
						size := 1 + r%2
						if r%3 == 2 {
							size = 14 // past every format's direct pointers
						}
						data := txnPayload(byte(c*rounds+r), size)
						if err := fsys.Create(path, 0o644); err != nil {
							t.Errorf("create %s: %v", path, err)
							return
						}
						if n, err := fsys.Write(path, 0, data); err != nil || n != len(data) {
							t.Errorf("write %s: %d, %v", path, n, err)
							return
						}
						if err := fsys.Fsync(path); err != nil {
							t.Errorf("fsync %s: %v", path, err)
							return
						}
						a := &ack{path: path, data: data, at: int(cd.Written()), gone: math.MaxInt64}
						mu.Lock()
						acks = append(acks, a)
						mu.Unlock()
						mine = append(mine, a)
						if r >= 2 {
							old := mine[r-2]
							old.gone = int(cd.Written())
							if err := fsys.Unlink(old.path); err != nil {
								t.Errorf("unlink %s: %v", old.path, err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if err := fsys.Unmount(); err != nil {
				t.Fatal(err)
			}

			check := func(when string, fsys vfs.FileSystem, k int) {
				t.Helper()
				for _, a := range acks {
					got := make([]byte, len(a.data))
					n, err := fsys.Read(a.path, 0, got)
					switch {
					case k == math.MaxInt64 && a.gone < k:
						if !errors.Is(err, vfs.ErrNotExist) {
							t.Errorf("%s: unlinked %s reads %d bytes, %v", when, a.path, n, err)
						}
					case a.at > k || a.gone <= k:
					case err != nil || n != len(a.data) || !bytes.Equal(got, a.data):
						t.Errorf("%s: fsynced %s reads %d of %d bytes (%v), equal %v", when, a.path, n, len(a.data), err, bytes.Equal(got, a.data))
					}
				}
			}

			log := cd.Log()
			cuts := 0
			for k := 1; k <= len(log); k++ {
				if k < len(log) && log[k].Epoch == log[k-1].Epoch {
					continue
				}
				cuts++
				d, err := disk.New(blocks, disk.DefaultGeometry(), nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := d.RestoreImage(base); err != nil {
					t.Fatal(err)
				}
				if err := faultinject.ApplyCrashState(d, log, faultinject.PrefixCut(log, k), faultinject.EnumPolicy{}); err != nil {
					t.Fatal(err)
				}
				when := fmt.Sprintf("cut at write %d of %d", k, len(log))
				crashed, err := Mount(name, d, opts)
				if err != nil {
					t.Fatalf("%s: recovery mount: %v", when, err)
				}
				check(when, crashed, k)
			}
			again, err := Mount(name, raw, opts)
			if err != nil {
				t.Fatal(err)
			}
			check("after clean remount", again, math.MaxInt64)
			if err := again.Unmount(); err != nil {
				t.Fatal(err)
			}
			if err := Check(name, raw, opts); err != nil {
				t.Errorf("check after clean remount: %v", err)
			}
			t.Logf("%d writes, %d barrier cuts", len(log), cuts)
		})
	}
}
