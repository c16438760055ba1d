package main

import (
	"fmt"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/fs"
	"ironfs/internal/iron"
	"ironfs/internal/sched"
	"ironfs/internal/vfs"
)

// Load-shape constants. They restate the values internal/workload uses
// instead of importing them, so the program under test receives nothing
// from the benchmark but generated inputs.
const (
	blockSize   = 4096
	arenaBlocks = 16384 // 64 MiB per volume
	cacheBlocks = 2048  // every file system's buffer cache, in blocks
	queueDepth  = 32
	readAhead   = 8
	readCPU     = 50 * disk.Microsecond
	mutateCPU   = 100 * disk.Microsecond
)

// fsNames are the five file systems in the paper's order.
var fsNames = fs.Names()

// mountOptions picks the option set each file system is benchmarked with:
// noatime everywhere, so reads take the shared lock, and on ixt3 all five
// IRON mechanisms — the Table 6 row the paper's headline cost is read from.
func mountOptions(name string) fs.Options {
	o := fs.Options{NoAtime: true}
	if name == "ixt3" {
		o.Mc, o.Mr, o.Dc, o.Dp, o.Tc = true, true, true, true, true
	}
	return o
}

// towerSpec describes one volume's stack.
type towerSpec struct {
	fs string
	// opts overrides mountOptions(fs) when set.
	opts   *fs.Options
	blocks int64
	image  []byte // nil formats a fresh volume
	faults bool
	seed   int64
	rec    *iron.Recorder
	// noMount leaves the file system constructed but unmounted, for the
	// workload that times the mount itself.
	noMount bool
}

// tower is one volume with handles on every layer of its stack.
type tower struct {
	name   string
	opts   fs.Options
	disk   *disk.Disk
	clk    *disk.Clock
	faults *faultinject.Device
	sched  *sched.Scheduler
	dev    disk.Device    // what the file system sits on
	fs     vfs.FileSystem // what the driver calls (span shim when traced)
	inner  vfs.FileSystem // the file system itself
}

// buildTower assembles a volume. Untraced it is exactly fs.MountVolume.
// Traced (rec non-nil) the benchmark stacks the same layers by hand with a
// span shim above each, which is why every workload asserts that the
// traced repetition's simulated metrics equal the untraced ones: that
// equality is the proof the two towers are the same tower.
func buildTower(s towerSpec, rec *spanRec) (*tower, error) {
	opts := mountOptions(s.fs)
	if s.opts != nil {
		opts = *s.opts
	}
	if rec == nil {
		v, err := fs.MountVolume(fs.MountOpts{
			FS: s.fs, Opts: opts, Blocks: s.blocks, Image: s.image,
			Faults: s.faults, Seed: s.seed, Recorder: s.rec,
			QueueDepth: queueDepth, SchedPolicy: sched.PolicyAdaptive,
			ReadAhead: readAhead, NoMount: s.noMount,
		})
		if err != nil {
			return nil, err
		}
		return &tower{name: s.fs, opts: opts, disk: v.Disk, clk: v.Clock,
			faults: v.Faults, sched: v.Sched, dev: v.Dev, fs: v.FS, inner: v.FS}, nil
	}

	d, err := disk.New(s.blocks, disk.DefaultGeometry(), nil)
	if err != nil {
		return nil, err
	}
	if s.image != nil {
		if err := d.Restore(s.image); err != nil {
			return nil, err
		}
	} else if err := fs.Mkfs(s.fs, d, opts); err != nil {
		return nil, err
	}
	rec.clk = d.Clock()
	t := &tower{name: s.fs, opts: opts, disk: d, clk: d.Clock()}
	var dev disk.Device = &devShim{inner: d, rec: rec, layer: lDisk}
	if s.faults {
		resolver, err := fs.NewResolver(s.fs, d)
		if err != nil {
			return nil, err
		}
		seed := s.seed
		if seed == 0 {
			seed = faultinject.DefaultSeed
		}
		t.faults = faultinject.NewSeeded(dev, resolver, seed)
		dev = &devShim{inner: t.faults, rec: rec, layer: lFault}
	}
	t.sched = sched.New(dev, sched.Config{QueueDepth: queueDepth, Policy: sched.PolicyAdaptive})
	dev = &devShim{inner: t.sched, rec: rec, layer: lSched}
	t.dev = dev
	t.inner, err = fs.New(s.fs, dev, opts, s.rec)
	if err != nil {
		return nil, err
	}
	if ra, ok := t.inner.(interface{ SetReadAhead(int) }); ok {
		ra.SetReadAhead(readAhead)
	}
	t.fs = &fsShim{FileSystem: t.inner, rec: rec}
	if !s.noMount {
		if err := t.fs.Mount(); err != nil {
			return nil, fmt.Errorf("mount %s: %w", s.fs, err)
		}
	}
	return t, nil
}

// settle makes everything durable: the file system's running transaction,
// then the scheduler's write-behind queue. A measured phase ends here so a
// deep queue cannot win by leaving work undone.
func (t *tower) settle() error {
	if err := t.fs.Sync(); err != nil {
		return err
	}
	return t.dev.Barrier()
}

// finish unmounts the volume and runs the post-repetition correctness
// checks: it must still be Healthy and its image must pass the file
// system's own consistency oracle.
func (t *tower) finish() error {
	if st, _ := fs.Health(t.inner); st != vfs.Healthy {
		return fmt.Errorf("%s ended %s", t.name, st)
	}
	if err := t.fs.Unmount(); err != nil {
		return fmt.Errorf("unmount %s: %w", t.name, err)
	}
	if err := fs.Check(t.name, t.disk, t.opts); err != nil {
		return fmt.Errorf("check %s: %w", t.name, err)
	}
	return nil
}
