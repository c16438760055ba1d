package main

import (
	"fmt"
	"math/rand"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/fs/ext3"
	"ironfs/internal/iron"
	"ironfs/internal/stat"
)

// fileSet is a set of files whose content is a function of the seed.
type fileSet struct {
	paths []string
	data  [][]byte
}

func makeFileSet(rng *rand.Rand, prefix string, files, size int) fileSet {
	fs := fileSet{paths: make([]string, files), data: make([][]byte, files)}
	for i := range fs.paths {
		fs.paths[i] = fmt.Sprintf("%s%03d", prefix, i)
		fs.data[i] = make([]byte, size)
		fillBlock(rng, fs.data[i])
	}
	return fs
}

// populateChunk is the write size used to lay files down during set-up.
const populateChunk = 64 << 10

func (s fileSet) populate(t *tower) error {
	for i, p := range s.paths {
		if err := t.fs.Create(p, 0o644); err != nil {
			return fmt.Errorf("populate %s: %w", p, err)
		}
		for off := 0; off < len(s.data[i]); off += populateChunk {
			end := min(off+populateChunk, len(s.data[i]))
			if _, err := t.fs.Write(p, int64(off), s.data[i][off:end]); err != nil {
				return fmt.Errorf("populate %s: %w", p, err)
			}
		}
	}
	return nil
}

// readAll reads every file once in whole chunks, untimed: the warm-up pass
// that leaves a cache-sized set resident.
func (s fileSet) readAll(t *tower) error {
	buf := make([]byte, populateChunk)
	for i, p := range s.paths {
		for off := 0; off < len(s.data[i]); off += populateChunk {
			if _, err := t.fs.Read(p, int64(off), buf[:min(populateChunk, len(s.data[i])-off)]); err != nil {
				return fmt.Errorf("warm %s: %w", p, err)
			}
		}
	}
	return nil
}

// buildImage formats a fresh volume, lets fill populate it, and returns the
// cleanly unmounted image.
func buildImage(spec towerSpec, fill func(*tower) error) ([]byte, error) {
	t, err := buildTower(spec, nil)
	if err != nil {
		return nil, err
	}
	if err := fill(t); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.fs, err)
	}
	if err := t.fs.Unmount(); err != nil {
		return nil, fmt.Errorf("%s: unmount: %w", spec.fs, err)
	}
	return t.disk.Snapshot(), nil
}

// faultPlan re-arms one transient fault every interval client ops, cycling
// fault class × block type — the cells of the paper's Figure 3 that ixt3
// recovers by redundancy. Write-class and sticky faults, and the super and
// journal block types, are left out on purpose: they end in RStop, which
// would measure the health latch and not throughput.
type faultPlan struct {
	interval int64
	seed     int64
}

var (
	faultClasses = []iron.FaultClass{iron.ReadFailure, iron.Corruption}
	faultTargets = []iron.BlockType{ext3.BTInode, ext3.BTDir, ext3.BTBitmap, ext3.BTIBitmap, ext3.BTIndirect, ext3.BTData}
)

// clientWorkload is the closed-loop workload shape four of the six
// workloads share: the same generated client streams run against each
// named file system in turn, every volume restored from its snapshot.
type clientWorkload struct {
	blocks  int64 // volume size
	names   []string
	images  map[string][]byte
	clients []*client
	opCount int
	// warm runs untimed on each freshly mounted volume before the
	// measured phase; nil starts the measured phase on an empty cache.
	warm   func(*tower) error
	faults *faultPlan
}

func (w *clientWorkload) rep(rec *spanRec) (*repResult, error) {
	reg := stat.NewRegistry()
	defer stat.SetDefault(stat.SetDefault(reg))
	res := newRepResult()
	m := newMeter(w.opCount * len(w.names))
	counts := newLayerCounts()
	simBy := map[string]disk.Duration{}
	var simTotal disk.Duration

	for _, name := range w.names {
		spec := towerSpec{fs: name, blocks: w.blocks, image: w.images[name]}
		if w.faults != nil {
			spec.faults, spec.seed, spec.rec = true, w.faults.seed, iron.NewRecorder()
		}
		t, err := buildTower(spec, rec)
		if err != nil {
			return nil, err
		}
		if w.warm != nil {
			if err := w.warm(t); err != nil {
				return nil, err
			}
		}
		var before func(int64) error
		if w.faults != nil {
			before = w.faults.hook(t)
		}
		// Mount and warm-up traffic are not the workload: zero the
		// registry and mark the device counters here.
		reg.Reset()
		mark, simStart := markDevices(t.disk, t.sched), t.clk.Now()
		opsBefore, wrote := m.ops, m.userBytes
		var end disk.Duration
		cost, err := measure(func() error {
			if rec != nil {
				rec.on = true
				defer func(root int32) { rec.end(root); rec.on = false }(rec.begin(lBench, vRep))
			}
			var err error
			if end, err = drive(t, w.clients, m, rec, before); err != nil {
				return err
			}
			if err := t.settle(); err != nil {
				return err
			}
			// A phase that wrote something ends when it is durable. One
			// that wrote nothing ends at its last completion: there is
			// nothing to leave undone, and whatever the final sync does
			// anyway (it shows in disk.writes) would otherwise swamp the
			// few simulated milliseconds a cache-resident phase takes.
			if m.userBytes > wrote {
				end = max(end, t.clk.Now())
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		counts.addDevices(t.disk, t.sched, mark)
		counts.addRegistry(reg)
		counts.simTime += t.clk.Now() - simStart // the final sync's I/O is in the disk's busy time
		res.cost.add(cost)
		ops := float64(m.ops - opsBefore)
		simBy[name] = end - simStart
		simTotal += simBy[name]
		res.sim["fs."+name+".sim_ops_per_s"] = ops / simBy[name].Seconds()
		res.host["fs."+name+".host_ns_per_op"] = float64(cost.ns) / ops
		res.host["fs."+name+".allocs_per_op"] = float64(cost.mallocs) / ops
		if w.faults != nil {
			t.faults.Disarm()
		}
		if err := t.finish(); err != nil {
			res.problem("%v", err)
		}
	}

	res.ops, res.failed, res.wrong, res.firstErr = m.ops, res.failed+m.failed, m.wrong, m.firstErr
	for _, v := range clientVerbs {
		if lat := m.latencies(v); len(lat) > 0 {
			res.sim["fs."+verbNames[v]+".sim_p50_us"] = us(quantile(lat, 0.50))
		}
	}
	res.sim["sim_ops_per_s"] = float64(m.ops) / simTotal.Seconds()
	res.sim["sim_p50_us"] = us(quantile(m.lat, 0.50))
	res.sim["sim_p99_us"] = us(quantile(m.lat, 0.99))
	if e, i := simBy["ext3"], simBy["ixt3"]; e > 0 && i > 0 {
		res.sim["sim_ixt3_rel_ext3"] = float64(i) / float64(e)
	}
	if m.userBytes > 0 {
		res.sim["sim_write_amp"] = float64(counts.disk.BytesWritten) / float64(m.userBytes)
	}
	counts.emit(res.sim, m.ops)
	return res, nil
}

// hook returns the per-op callback that runs the fault schedule on t: every
// interval ops it makes the volume durable, drops its caches so the next
// metadata and data reads reach the device, and arms the next fault.
func (p *faultPlan) hook(t *tower) func(int64) error {
	dropper, _ := t.inner.(interface{ DropCaches() })
	return func(n int64) error {
		if n%p.interval != 0 {
			return nil
		}
		k := n / p.interval
		if err := t.fs.Sync(); err != nil {
			return err
		}
		if dropper != nil {
			dropper.DropCaches()
		}
		t.faults.Disarm()
		t.faults.Arm(&faultinject.Fault{
			Class:  faultClasses[k%int64(len(faultClasses))],
			Target: faultTargets[(k/int64(len(faultClasses)))%int64(len(faultTargets))],
		})
		return nil
	}
}
