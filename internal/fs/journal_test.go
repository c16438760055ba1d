package fs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ironfs/internal/disk"
	"ironfs/internal/stat"
	"ironfs/internal/vfs"
)

// barrierFailDev passes everything through to the disk but fails Barrier
// while armed, modeling a drive that loses its cache-flush command.
type barrierFailDev struct {
	disk.Device
	armed atomic.Bool
}

func (d *barrierFailDev) Barrier() error {
	if d.armed.Load() {
		return errors.New("injected barrier failure")
	}
	return d.Device.Barrier()
}

// mountFresh formats a new disk for the named file system and mounts it
// through wrap (nil = the bare disk).
func mountFresh(t *testing.T, name string, wrap func(disk.Device) disk.Device) (vfs.FileSystem, disk.Device) {
	t.Helper()
	d, err := disk.New(8192, disk.DefaultGeometry(), disk.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(name, d, Options{}); err != nil {
		t.Fatal(err)
	}
	var dev disk.Device = d
	if wrap != nil {
		dev = wrap(d)
	}
	fsys, err := Mount(name, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fsys, dev
}

// TestJournalConformance is the black-box contract of the shared commit
// engine (internal/journal), run over every registered file system: the
// coordinator is one piece of code, so what it promises is stated once and
// checked everywhere — including on ext3/ixt3, which PR 10's per-FS copies
// of these tests never covered.
func TestJournalConformance(t *testing.T) {
	// The §5 stop each file system applies when a commit's ordering barrier
	// fails: ext3/ixt3 abort the journal, ReiserFS panics, JFS remounts
	// read-only, NTFS marks the volume unusable. Pre-hardening, the error
	// surfaced as a plain ErrIO with health still Healthy, so an fsync
	// waiter could see the durable sequence advance and report durability
	// for a commit whose barrier never reached the drive.
	type stop struct {
		health        vfs.HealthState
		syncErr, next error
	}
	readOnly := stop{vfs.ReadOnly, vfs.ErrIO, vfs.ErrReadOnly}
	barrierStop := map[string]stop{
		"ext3": readOnly, "ixt3": readOnly, "jfs": readOnly, "ntfs": readOnly,
		"reiserfs": {vfs.Panicked, vfs.ErrPanicked, vfs.ErrPanicked},
	}

	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			// Fsync of an object the running transaction hasn't touched must
			// not force a commit — it only needs the commits covering the
			// object's last update on disk, which they already are. Forcing one
			// would make every fsync pay for every other client's running
			// transaction.
			t.Run("untouched_fsync_forces_no_commit", func(t *testing.T) {
				fsys, _ := mountFresh(t, name, nil)
				commits := stat.C("fs_commits_total", "fs", name)
				for _, step := range []func() error{
					func() error { return fsys.Create("/a", 0o644) },
					fsys.Sync,
					func() error { return fsys.Create("/b", 0o644) },
				} {
					if err := step(); err != nil {
						t.Fatal(err)
					}
				}
				before := commits.Value()
				if err := fsys.Fsync("/a"); err != nil {
					t.Fatal(err)
				}
				if n := commits.Value() - before; n != 0 {
					t.Fatalf("fsync of untouched /a forced %d commits", n)
				}
				// /b IS touched: its fsync must commit.
				if err := fsys.Fsync("/b"); err != nil {
					t.Fatal(err)
				}
				if n := commits.Value() - before; n != 1 {
					t.Fatalf("fsync of touched /b made %d commits, want 1", n)
				}
			})

			// The running/committing split under the race detector: clients
			// keep creating, writing and fsyncing while other clients' commits
			// are in flight, and every file must come back intact afterwards.
			t.Run("concurrent_fsync_clients", func(t *testing.T) {
				fsys, _ := mountFresh(t, name, nil)
				const clients, files = 8, 12
				var wg sync.WaitGroup
				errs := make([]error, clients)
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for f := 0; f < files && errs[c] == nil; f++ {
							p := fmt.Sprintf("/c%d-f%d", c, f)
							if err := fsys.Create(p, 0o644); err != nil {
								errs[c] = fmt.Errorf("create %s: %w", p, err)
							} else if _, err := fsys.Write(p, 0, []byte(p)); err != nil {
								errs[c] = fmt.Errorf("write %s: %w", p, err)
							} else if err := fsys.Fsync(p); err != nil {
								errs[c] = fmt.Errorf("fsync %s: %w", p, err)
							}
						}
					}(c)
				}
				wg.Wait()
				if err := errors.Join(errs...); err != nil {
					t.Fatal(err)
				}
				for c := 0; c < clients; c++ {
					for f := 0; f < files; f++ {
						p := fmt.Sprintf("/c%d-f%d", c, f)
						buf := make([]byte, len(p))
						if n, err := fsys.Read(p, 0, buf); err != nil || n != len(p) || string(buf) != p {
							t.Fatalf("readback %s = %q, %d, %v", p, buf, n, err)
						}
					}
				}
				if err := fsys.Unmount(); err != nil {
					t.Fatal(err)
				}
			})

			// A remounted volume starts with a journal sequence recovered from
			// the journal superblock, and everything up to it is already on
			// disk: fsync of an object untouched since mount must return
			// immediately. With the durable sequence left at zero the waiter
			// parks forever — found by ironhunt, whose every replay is a
			// remount, and fixed three times before Engine.Recovered made the
			// state inexpressible.
			t.Run("fsync_untouched_after_remount", func(t *testing.T) {
				fsys, dev := mountFresh(t, name, nil)
				if err := fsys.Create("/f", 0o644); err != nil {
					t.Fatal(err)
				}
				if err := fsys.Fsync("/f"); err != nil {
					t.Fatal(err)
				}
				if err := fsys.Unmount(); err != nil {
					t.Fatal(err)
				}
				again, err := Mount(name, dev, Options{})
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan error, 1)
				go func() { done <- again.Fsync("/f") }()
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("fsync after remount: %v", err)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("fsync of untouched object deadlocked after remount")
				}
			})

			t.Run("commit_barrier_failure_policy", func(t *testing.T) {
				want := barrierStop[name]
				var bd *barrierFailDev
				fsys, _ := mountFresh(t, name, func(d disk.Device) disk.Device {
					bd = &barrierFailDev{Device: d}
					return bd
				})
				if err := fsys.Create("/f", 0o644); err != nil {
					t.Fatal(err)
				}
				bd.armed.Store(true)
				if err := fsys.Sync(); !errors.Is(err, want.syncErr) {
					t.Fatalf("Sync under barrier failure = %v, want %v", err, want.syncErr)
				}
				if st, _ := Health(fsys); st != want.health {
					t.Fatalf("health after commit barrier failure = %v, want %v", st, want.health)
				}
				if err := fsys.Create("/g", 0o644); !errors.Is(err, want.next) {
					t.Fatalf("write after the stop = %v, want %v", err, want.next)
				}
			})

			// Recovery is where a second crash lands: cut at any of its
			// device writes and recovered again, the volume ends where an
			// uninterrupted recovery leaves it.
			t.Run("crash_during_replay_converges", func(t *testing.T) {
				crashDuringReplayConverges(t, name)
			})
		})
	}
}
