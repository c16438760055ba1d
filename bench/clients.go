package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"ironfs/internal/disk"
	"ironfs/internal/vfs"
)

// op is one precomputed client operation. Streams are generated from the
// seed during set-up, so the measured loop allocates nothing of its own and
// every file system receives the identical stream.
type op struct {
	verb verb
	path string
	off  int64
	// data is the payload of a write, or the bytes a read must return.
	data []byte
	// cpu is the time the client spends digesting the result, on its own
	// timeline: the verb's mean charge jittered ±50 % from the seed. A
	// constant charge would make every cache-hit latency the same number.
	cpu disk.Duration
}

// jitter draws a CPU charge uniformly from [mean/2, 3·mean/2).
func jitter(rng *rand.Rand, mean disk.Duration) disk.Duration {
	return mean/2 + disk.Duration(rng.Int63n(int64(mean)))
}

// client is one modelled client: an op stream and a virtual timeline.
type client struct {
	ops  []op
	next int
	// vt is the simulated instant the client finishes digesting its last
	// result and issues the next op.
	vt  disk.Duration
	buf []byte
}

// clientVerbs are the verbs whose per-verb latencies are reported.
var clientVerbs = []verb{vRead, vWrite, vCreate, vUnlink, vFsync, vMkdir}

// meter accumulates what the client side of a repetition observed.
type meter struct {
	ops, failed, wrong int64
	userBytes          int64 // bytes handed to Write
	// lat and verbs hold each op's latency and verb, in issue order; both
	// are allocated to the stream's length up front so that the measured
	// loop allocates nothing of its own.
	lat      []int64
	verbs    []verb
	firstErr error
}

func newMeter(ops int) *meter {
	return &meter{lat: make([]int64, 0, ops), verbs: make([]verb, 0, ops)}
}

// latencies returns the latencies of the ops of one verb.
func (m *meter) latencies(v verb) []int64 {
	var out []int64
	for i, w := range m.verbs {
		if w == v {
			out = append(out, m.lat[i])
		}
	}
	return out
}

func (m *meter) fail(err error) {
	m.failed++
	if m.firstErr == nil {
		m.firstErr = err
	}
}

// exec runs the op against fsys. A read that succeeds with other bytes than
// the generator expects comes back as errWrongBytes.
func (o *op) exec(fsys vfs.FileSystem, buf []byte) error {
	switch o.verb {
	case vRead:
		n, err := fsys.Read(o.path, o.off, buf[:len(o.data)])
		if err == nil && !bytes.Equal(buf[:n], o.data) {
			err = errWrongBytes
		}
		return err
	case vWrite:
		_, err := fsys.Write(o.path, o.off, o.data)
		return err
	case vCreate:
		return fsys.Create(o.path, 0o644)
	case vUnlink:
		return fsys.Unlink(o.path)
	case vFsync:
		return fsys.Fsync(o.path)
	case vMkdir:
		return fsys.Mkdir(o.path, 0o755)
	}
	return fmt.Errorf("bench: op stream holds verb %s", verbNames[o.verb])
}

// drive runs the clients to completion on one volume in min-virtual-time
// order: always step the client whose timeline is furthest behind, ties to
// the lowest index. That is the order an ideal N-core machine over one
// disk arm would issue the ops, from a single goroutine, so the client
// count is a workload parameter and the run is exactly repeatable.
//
// A client issues at its own time vt. If the shared clock is behind, the
// disk was idle and jumps forward; if it is ahead, the difference is
// queueing the client sits out. Latency is issue → completion plus the CPU
// charge. before, when non-nil, runs ahead of each op with the op's index
// (the fault schedule hangs off it). Returns the simulated instant the last
// client finished.
func drive(t *tower, clients []*client, m *meter, rec *spanRec, before func(n int64) error) (disk.Duration, error) {
	start := t.clk.Now()
	for _, c := range clients {
		c.vt, c.next = start, 0
	}
	for n := int64(0); ; n++ {
		var c *client
		for _, k := range clients {
			if k.next < len(k.ops) && (c == nil || k.vt < c.vt) {
				c = k
			}
		}
		if c == nil {
			break
		}
		if before != nil {
			if err := before(n); err != nil {
				return 0, err
			}
		}
		o := &c.ops[c.next]
		c.next++
		issue := c.vt
		t.clk.Advance(issue - t.clk.Now())
		if rec != nil {
			rec.req = m.ops
		}
		err := o.exec(t.fs, c.buf)
		if o.verb == vWrite {
			m.userBytes += int64(len(o.data))
		}
		if err == errWrongBytes {
			m.wrong++
		}
		if err != nil {
			m.fail(err)
		}
		end := max(t.clk.Now(), issue)
		c.vt = end + o.cpu
		m.lat = append(m.lat, int64(c.vt-issue))
		m.verbs = append(m.verbs, o.verb)
		m.ops++
	}
	end := t.clk.Now()
	for _, c := range clients {
		end = max(end, c.vt)
	}
	return end, nil
}

// hostCost is what a measured phase cost the simulator.
type hostCost struct {
	ns           int64
	mallocs      uint64
	bytes        uint64
	gcCycles     uint32
	heapSysBytes uint64
}

func (a *hostCost) add(b hostCost) {
	a.ns += b.ns
	a.mallocs += b.mallocs
	a.bytes += b.bytes
	a.gcCycles += b.gcCycles
	a.heapSysBytes = max(a.heapSysBytes, b.heapSysBytes)
}

// measure runs f as a measured phase: a collection first so every phase
// starts from the same heap state, then wall time and allocation deltas
// around f alone.
func measure(f func() error) (hostCost, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := f()
	ns := time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&after)
	return hostCost{
		ns:           ns,
		mallocs:      after.Mallocs - before.Mallocs,
		bytes:        after.TotalAlloc - before.TotalAlloc,
		gcCycles:     after.NumGC - before.NumGC,
		heapSysBytes: after.HeapSys,
	}, err
}

// quantile returns the q-quantile of xs by the nearest-rank method (the
// ceil(q·n)-th smallest), the definition internal/stat uses. Zero for an
// empty sample.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(float64(len(s)) * q))
	return s[min(max(rank, 1), len(s))-1]
}

// fillBlock fills b with seeded bytes; every file's content is a pure
// function of the seed, which is what lets a read be checked against the
// generator rather than against what the stack wrote.
func fillBlock(rng *rand.Rand, b []byte) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
