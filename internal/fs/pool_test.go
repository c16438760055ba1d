package fs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ironfs/internal/bcache"
	"ironfs/internal/fstest"
	"ironfs/internal/vfs"
)

// poisonPool fills the process's frame pool with at least n frames whose
// every byte is 0xA5: whatever the pool held, and new frames up to n.
func poisonPool(n int) {
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = bcache.TakeFrame()
		for j := range frames[i] {
			frames[i][j] = 0xA5
		}
	}
	for _, f := range frames {
		bcache.GiveFrame(f)
	}
}

// TestPooledFramesCarryNoStaleBytes: a frame from the pool carries the
// bytes of whoever used it last — here, 0xA5 in every byte — and none of
// them may reach a reader. On every file system the live model tester
// (fstest.Run: holes, partial writes, truncates that cut and extend,
// renames, fsyncs) runs on a volume with read-ahead over a poisoned pool,
// and the tree is walked again after a remount over a pool poisoned anew,
// where every block is read cold, through read-ahead and demand misses.
// Every read is compared with the model, byte for byte.
func TestPooledFramesCarryNoStaleBytes(t *testing.T) {
	const frames = 4096
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				poisonPool(frames)
				v, err := MountVolume(MountOpts{FS: name, Opts: raOptions(name), Blocks: 8192, ReadAhead: raWindow})
				if err != nil {
					t.Fatal(err)
				}
				m, err := fstest.Run(v.FS, seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := v.Unmount(); err != nil {
					t.Fatal(err)
				}
				poisonPool(frames)
				again, err := MountVolume(MountOpts{FS: name, Opts: raOptions(name), Blocks: 8192, ReadAhead: raWindow,
					Image: v.Disk.Snapshot()})
				if err != nil {
					t.Fatal(err)
				}
				if err := fstest.Walk(again.FS, m); err != nil {
					t.Fatalf("seed %d, after a remount: %v", seed, err)
				}
				if err := again.Unmount(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// coldImage returns the image of a name volume holding /f, the given
// number of raFile blocks, cleanly unmounted.
func coldImage(tb testing.TB, name string, blocks int) []byte {
	tb.Helper()
	v, err := MountVolume(MountOpts{FS: name, Opts: raOptions(name)})
	if err != nil {
		tb.Fatal(err)
	}
	if err := v.FS.Create("/f", 0o644); err != nil {
		tb.Fatal(err)
	}
	if _, err := v.FS.Write("/f", 0, raFile("/f", blocks)); err != nil {
		tb.Fatal(err)
	}
	if err := v.Unmount(); err != nil {
		tb.Fatal(err)
	}
	return v.Disk.Snapshot()
}

// coldRead reads /f's blocks in 4 KiB pieces, as a streaming client does,
// and fails on the first block that reads back wrong.
func coldRead(tb testing.TB, fsys vfs.FileSystem, blocks int) {
	tb.Helper()
	buf := make([]byte, txnBlock)
	for i := 0; i < blocks; i++ {
		if n, err := fsys.Read("/f", int64(i*txnBlock), buf); err != nil || n != txnBlock || !bytes.Equal(buf, raBlock("/f", i)) {
			tb.Fatalf("read /f block %d: %d, %v, right bytes %v", i, n, err, bytes.Equal(buf, raBlock("/f", i)))
		}
	}
}

// TestRemountAllocatesNoFrames: a volume mounted after another reads into
// the frames the first let go of at its unmount. Three cycles of
// MountVolume, a cold read of 1 MiB with read-ahead and Unmount: the
// second and third make no frame, on every file system.
func TestRemountAllocatesNoFrames(t *testing.T) {
	const blocks = 256
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			image := coldImage(t, name, blocks)
			for cycle := 1; cycle <= 3; cycle++ {
				before, _ := bcache.PoolStats()
				v, err := MountVolume(MountOpts{FS: name, Opts: raOptions(name), Image: image, ReadAhead: raWindow})
				if err != nil {
					t.Fatal(err)
				}
				coldRead(t, v.FS, blocks)
				if err := v.Unmount(); err != nil {
					t.Fatal(err)
				}
				if made, _ := bcache.PoolStats(); cycle > 1 && made != before {
					t.Errorf("cycle %d made %d frames, want 0", cycle, made-before)
				}
			}
		})
	}
}

// TestVolumesShareThePool runs two goroutines, each cycling its own
// volumes through mount, a cold read with read-ahead, a partial overwrite
// and an fsync, a read back and an unmount, over the one pool: every frame
// one volume's cache, commit or depth-32 scheduler lets go of may be the
// next the other takes. Every read is checked. Run under -race: a frame
// handed back while its volume still used it is written by the other
// volume's fill, freeze or queued write while it is read.
func TestVolumesShareThePool(t *testing.T) {
	const blocks, cycles = 64, 6
	names := Names()
	images := make(map[string][]byte, len(names))
	for _, name := range names {
		images[name] = coldImage(t, name, blocks)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				name := names[(c+g*2)%len(names)]
				if err := cycleVolume(name, images[name], blocks, g, c); err != nil {
					errs <- fmt.Errorf("goroutine %d, cycle %d on %s: %w", g, c, name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// cycleVolume mounts image over a depth-32 scheduler, checks /f, patches
// one of its blocks, fsyncs, checks it again and unmounts.
func cycleVolume(name string, image []byte, blocks, g, c int) error {
	v, err := MountVolume(MountOpts{FS: name, Opts: raOptions(name), Image: image, ReadAhead: raWindow, QueueDepth: 32})
	if err != nil {
		return err
	}
	want := raFile("/f", blocks)
	check := func(when string) error {
		got := make([]byte, len(want))
		for off := 0; off < len(got); off += txnBlock {
			if n, err := v.FS.Read("/f", int64(off), got[off:off+txnBlock]); err != nil || n != txnBlock {
				return fmt.Errorf("%s: read at %d: %d, %v", when, off, n, err)
			}
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s: /f reads back wrong", when)
		}
		return nil
	}
	if err := check("cold read"); err != nil {
		return err
	}
	patch := []byte(fmt.Sprintf("g%dc%d", g, c))
	off := (c*7%blocks)*txnBlock + 100
	if _, err := v.FS.Write("/f", int64(off), patch); err != nil {
		return err
	}
	copy(want[off:], patch)
	if err := v.FS.Fsync("/f"); err != nil {
		return err
	}
	if err := check("after the overwrite"); err != nil {
		return err
	}
	return v.Unmount()
}

// BenchmarkRemountColdRead prices one mount, a cold read of 256 blocks with
// read-ahead and an unmount, on one disk kept across iterations; frames/op
// is how many frames the process made, 0 once the pool serves every mount.
func BenchmarkRemountColdRead(b *testing.B) {
	const blocks = 256
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			v, err := MountVolume(MountOpts{FS: name, Opts: raOptions(name), Image: coldImage(b, name, blocks), NoMount: true})
			if err != nil {
				b.Fatal(err)
			}
			cycle := func() {
				fsys, err := Mount(name, v.Dev, raOptions(name))
				if err != nil {
					b.Fatal(err)
				}
				fsys.(interface{ SetReadAhead(int) }).SetReadAhead(raWindow)
				coldRead(b, fsys, blocks)
				if err := fsys.Unmount(); err != nil {
					b.Fatal(err)
				}
			}
			cycle()
			before, _ := bcache.PoolStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
			b.StopTimer()
			made, _ := bcache.PoolStats()
			b.ReportMetric(float64(made-before)/float64(b.N), "frames/op")
		})
	}
}
