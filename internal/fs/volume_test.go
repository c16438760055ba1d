package fs

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/sched"
	"ironfs/internal/vfs"
)

// TestMountVolumeEveryFS mounts a fresh volume of every registered file
// system through the one-call constructor and exercises a basic
// create/write/read round trip.
func TestMountVolumeEveryFS(t *testing.T) {
	for _, name := range Names() {
		v, err := MountVolume(MountOpts{FS: name})
		if err != nil {
			t.Fatalf("%s: MountVolume: %v", name, err)
		}
		if v.Name != name || v.Label != name {
			t.Fatalf("%s: name/label = %q/%q", name, v.Name, v.Label)
		}
		if v.Disk == nil || v.Clock == nil || v.FS == nil {
			t.Fatalf("%s: incomplete tower: %+v", name, v)
		}
		if v.Faults != nil || v.Resolver != nil || v.Sched != nil || v.Tracer != nil {
			t.Fatalf("%s: unrequested layers present", name)
		}
		if st := v.Health(); st != vfs.Healthy {
			t.Fatalf("%s: health = %v, want Healthy", name, st)
		}
		if err := v.FS.Create("/f", 0o644); err != nil {
			t.Fatalf("%s: create: %v", name, err)
		}
		if _, err := v.FS.Write("/f", 0, []byte("volume")); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		buf := make([]byte, 6)
		if n, err := v.FS.Read("/f", 0, buf); err != nil || string(buf[:n]) != "volume" {
			t.Fatalf("%s: read = %q, %v", name, buf[:n], err)
		}
		if err := v.Unmount(); err != nil {
			t.Fatalf("%s: unmount: %v", name, err)
		}
	}
}

// TestMountVolumeLayers requests the full tower — faults, scheduler,
// tracer — and verifies each layer is wired beneath the file system.
func TestMountVolumeLayers(t *testing.T) {
	rec := iron.NewRecorder()
	v, err := MountVolume(MountOpts{
		FS: "ext3", Label: "vol-a", QueueDepth: 8,
		Faults: true, Trace: true, Recorder: rec,
	})
	if err != nil {
		t.Fatalf("MountVolume: %v", err)
	}
	if v.Faults == nil || v.Sched == nil || v.Tracer == nil {
		t.Fatalf("missing layers: faults=%v sched=%v tracer=%v",
			v.Faults != nil, v.Sched != nil, v.Tracer != nil)
	}
	if v.Label != "vol-a" {
		t.Fatalf("label = %q", v.Label)
	}
	if v.Dev != disk.Device(v.Sched) {
		t.Fatalf("top of tower is not the scheduler")
	}
	if err := v.FS.Create("/x", 0o644); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := v.Unmount(); err != nil {
		t.Fatalf("unmount: %v", err)
	}
	if len(v.Tracer.Events()) == 0 {
		t.Fatalf("tracer recorded nothing")
	}
}

// TestMountVolumeFaultsFire arms a sticky write fault through the volume's
// fault layer and verifies it actually intercepts traffic: the sync's
// device writes cannot be absorbed by any cache above the fault layer.
func TestMountVolumeFaultsFire(t *testing.T) {
	v, err := MountVolume(MountOpts{FS: "ext3", Faults: true})
	if err != nil {
		t.Fatalf("MountVolume: %v", err)
	}
	v.Faults.Arm(&faultinject.Fault{Class: iron.WriteFailure, Sticky: true})
	//iron:policy harness §4 the injected fault surfacing (or being recovered) is the observation itself
	_ = v.FS.Create("/victim", 0o644)
	//iron:policy harness §4 same experiment: the sync drives writes into the armed device
	_ = v.FS.Sync()
	if v.Faults.Fired() == 0 {
		t.Fatalf("armed fault never fired")
	}
}

// TestMountVolumeImageRestore snapshots one volume and restores it into
// another: the second mount must see the first's files without a format.
func TestMountVolumeImageRestore(t *testing.T) {
	a, err := MountVolume(MountOpts{FS: "jfs"})
	if err != nil {
		t.Fatalf("MountVolume a: %v", err)
	}
	if err := a.FS.Create("/persisted", 0o644); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := a.Unmount(); err != nil {
		t.Fatalf("unmount: %v", err)
	}
	b, err := MountVolume(MountOpts{FS: "jfs", Image: a.Disk.Snapshot()})
	if err != nil {
		t.Fatalf("MountVolume b: %v", err)
	}
	if err := b.FS.Access("/persisted"); err != nil {
		t.Fatalf("restored volume lost /persisted: %v", err)
	}
}

// TestMountVolumeSharedClock mounts two volumes on one clock: traffic on
// either advances the same timeline.
func TestMountVolumeSharedClock(t *testing.T) {
	clk := disk.NewClock()
	a, err := MountVolume(MountOpts{FS: "ext3", Clock: clk})
	if err != nil {
		t.Fatalf("MountVolume a: %v", err)
	}
	b, err := MountVolume(MountOpts{FS: "reiserfs", Clock: clk})
	if err != nil {
		t.Fatalf("MountVolume b: %v", err)
	}
	if a.Clock != clk || b.Clock != clk {
		t.Fatalf("volumes did not adopt the shared clock")
	}
	before := clk.Now()
	if err := a.FS.Create("/tick", 0o644); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := a.FS.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if clk.Now() <= before {
		t.Fatalf("clock did not advance under volume traffic")
	}
	if b.Clock.Now() != clk.Now() {
		t.Fatalf("volume b sees a different time")
	}
}

// TestMountVolumeErrorsAttributed verifies the label and FS name appear in
// construction errors — the multi-volume attribution contract.
func TestMountVolumeErrorsAttributed(t *testing.T) {
	cases := []struct {
		opts MountOpts
		want []string
	}{
		{MountOpts{FS: "bogus", Label: "vol-7"},
			[]string{"vol-7", "bogus", "unknown file system"}},
		{MountOpts{FS: "jfs", Label: "tenant-data", Opts: Options{Tc: true}},
			[]string{"tenant-data", "jfs", "does not support"}},
		{MountOpts{FS: "ext3", Opts: Options{JournalBlocks: -4}},
			[]string{"ext3", "journal-blocks", "invalid value -4"}},
		{MountOpts{FS: "ext3", Blocks: -1},
			[]string{"ext3", "invalid size"}},
	}
	for _, c := range cases {
		_, err := MountVolume(c.opts)
		if err == nil {
			t.Fatalf("%+v: no error", c.opts)
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("%+v: error %q missing %q", c.opts, err, w)
			}
		}
	}
}

// TestValidateNamesFS pins satellite coverage for the option-value fix: a
// bad value is rejected by Validate itself (no device needed) and the
// message names the file system, the option, and the value.
func TestValidateNamesFS(t *testing.T) {
	for _, name := range Names() {
		err := Validate(name, Options{BlocksPerGroup: -1})
		if err == nil {
			t.Fatalf("%s: negative blocks-per-group accepted", name)
		}
		for _, w := range []string{name, "blocks-per-group", "-1"} {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("%s: error %q missing %q", name, err, w)
			}
		}
	}
}

// TestMountVolumeHealthSurface degrades a volume and reads the state back
// through the handle's health accessors.
func TestMountVolumeHealthCause(t *testing.T) {
	v, err := MountVolume(MountOpts{FS: "ext3"})
	if err != nil {
		t.Fatalf("MountVolume: %v", err)
	}
	if v.HealthCause() != "" {
		t.Fatalf("healthy volume reports cause %q", v.HealthCause())
	}
	if _, ok := v.Repairer(); !ok {
		t.Fatalf("ext3 volume has no repairer")
	}
	if _, err := v.Checker(); err != nil {
		t.Fatalf("checker: %v", err)
	}
}

// TestMountVolumeConcurrentClients is the -race soak of every file
// system's locking under concurrent clients on the tower the sweep mounts
// (depth-32 adaptive scheduler, read-ahead 8, noatime where the registry
// accepts it, Tc on ixt3): four goroutines read a shared document set under the
// shared lock while each churns create/write/fsync/unlink in its own
// directory. Every call must succeed, every read must return the bytes
// written, and every file left in a client's window must read back
// exactly.
func TestMountVolumeConcurrentClients(t *testing.T) {
	const (
		clients = 4
		docs    = 8
		docSize = 16 << 10
		chunk   = 4 << 10
		files   = 32
		window  = 4
	)
	// fill gives every (file, offset) its own bytes, so a read that
	// returns another file's block, or a stale one, cannot pass.
	fill := func(buf []byte, tag string, off int) {
		for i := range buf {
			buf[i] = byte(int(tag[len(tag)-1]) + len(tag) + (off+i)*7)
		}
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			opts := Options{NoAtime: true, Tc: name == "ixt3"}
			if Validate(name, opts) != nil {
				opts = Options{}
			}
			v, err := MountVolume(MountOpts{
				FS: name, Opts: opts, QueueDepth: 32,
				SchedPolicy: sched.PolicyAdaptive, ReadAhead: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			fsys := v.FS
			doc := func(i int) string { return fmt.Sprintf("/docs/d%d", i) }
			if err := fsys.Mkdir("/docs", 0o755); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, docSize)
			for i := 0; i < docs; i++ {
				fill(buf, doc(i), 0)
				if err := fsys.Create(doc(i), 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := fsys.Write(doc(i), 0, buf); err != nil {
					t.Fatal(err)
				}
			}
			if err := fsys.Sync(); err != nil {
				t.Fatal(err)
			}

			ops := make([]int, clients)
			errs := make([]error, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					errs[c] = func() error {
						got, want := make([]byte, chunk), make([]byte, chunk)
						dir := fmt.Sprintf("/c%d", c)
						if err := fsys.Mkdir(dir, 0o755); err != nil {
							return err
						}
						ops[c]++
						for i := 0; i < files; i++ {
							// One shared document, chunk by chunk, staggered
							// so the clients start on different files.
							d := doc((i + c) % docs)
							for off := 0; off < docSize; off += chunk {
								if n, err := fsys.Read(d, int64(off), got); err != nil || n != chunk {
									return fmt.Errorf("read %s@%d = %d, %v", d, off, n, err)
								}
								fill(want, d, off)
								if !bytes.Equal(got, want) {
									return fmt.Errorf("read %s@%d returned the wrong bytes", d, off)
								}
								ops[c]++
							}
							if i >= window {
								old := fmt.Sprintf("%s/f%d", dir, i-window)
								if err := fsys.Unlink(old); err != nil {
									return fmt.Errorf("unlink %s: %w", old, err)
								}
								ops[c]++
							}
							p := fmt.Sprintf("%s/f%d", dir, i)
							fill(want, p, 0)
							if err := fsys.Create(p, 0o644); err != nil {
								return fmt.Errorf("create %s: %w", p, err)
							}
							if _, err := fsys.Write(p, 0, want); err != nil {
								return fmt.Errorf("write %s: %w", p, err)
							}
							if err := fsys.Fsync(p); err != nil {
								return fmt.Errorf("fsync %s: %w", p, err)
							}
							ops[c] += 3
						}
						return nil
					}()
				}(c)
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			want := 1 + files*(docSize/chunk) + (files - window) + files*3
			for c, n := range ops {
				if n != want {
					t.Errorf("client %d completed %d ops, want %d", c, n, want)
				}
			}

			got, exp := make([]byte, chunk), make([]byte, chunk)
			for c := 0; c < clients; c++ {
				for i := 0; i < files; i++ {
					p := fmt.Sprintf("/c%d/f%d", c, i)
					n, err := fsys.Read(p, 0, got)
					if i < files-window {
						if err == nil {
							t.Errorf("%s survived its unlink", p)
						}
						continue
					}
					fill(exp, p, 0)
					if err != nil || n != chunk || !bytes.Equal(got, exp) {
						t.Errorf("readback %s = %d bytes, %v; want its %d written bytes", p, n, err, chunk)
					}
				}
			}
			if st := v.Sched.Stats(); st.Enqueued == 0 {
				t.Errorf("scheduler enqueued nothing at depth 32")
			}
			if err := v.Unmount(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
