package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"ironfs/internal/disk"
	"ironfs/internal/trace"
	"ironfs/internal/vfs"
)

// layer identifies which package a span's time is charged to. The names are
// the repo's package names; "bench" is the driver itself (dispatch loop,
// read verification), recorded so the per-layer self times partition the
// traced repetition's wall time exactly.
type layer uint8

const (
	lBench layer = iota
	lServe
	lFS
	lFsck
	lSched
	lFault
	lDisk
	numLayers
)

var layerNames = [numLayers]string{"bench", "serve", "fs", "fsck", "sched", "faultinject", "disk"}

// verb names the call a span wraps.
type verb uint8

const (
	vRead verb = iota
	vWrite
	vCreate
	vUnlink
	vFsync
	vMkdir
	vStat
	vSync
	vMount
	vUnmount
	vReadBlock
	vWriteBlock
	vWriteBatch
	vBarrier
	vSubmit
	vDispatch
	vCheck
	vRepair
	vRep
	numVerbs
)

var verbNames = [numVerbs]string{
	"read", "write", "create", "unlink", "fsync", "mkdir", "stat", "sync",
	"mount", "unmount", "readblock", "writeblock", "writebatch", "barrier",
	"submit", "dispatch", "check", "repair", "rep",
}

// span is one recorded call: which layer and verb, the client request it
// belongs to, the span that caused it, and its interval on both clocks.
type span struct {
	layer              layer
	verb               verb
	parent             int32 // index of the enclosing span, -1 for a root
	req                int64
	hostStart, hostEnd int64 // ns since the recorder was created
	simStart, simEnd   int64 // ns on the simulated clock
}

// spanRec records spans into a preallocated slice. The driver is a single
// goroutine, so the enclosing span is simply the top of a stack.
type spanRec struct {
	t0    time.Time
	clk   *disk.Clock
	spans []span
	open  []int32
	// req is the client request the driver is executing; the shims stamp
	// it on every span so one request's spans share an identifier.
	req int64
	// on gates recording to the measured phase: mount, warm-up and the
	// post-repetition checks run through the same shims unrecorded.
	on bool
}

func newSpanRec(capacity int) *spanRec {
	return &spanRec{t0: time.Now(), spans: make([]span, 0, capacity), open: make([]int32, 0, 16)}
}

func (r *spanRec) begin(l layer, v verb) int32 {
	if !r.on {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	var sim int64
	if r.clk != nil {
		sim = int64(r.clk.Now())
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{layer: l, verb: v, parent: parent, req: r.req,
		simStart: sim, hostStart: int64(time.Since(r.t0))})
	r.open = append(r.open, i)
	return i
}

func (r *spanRec) end(i int32) {
	if i < 0 {
		return
	}
	s := &r.spans[i]
	s.hostEnd = int64(time.Since(r.t0))
	if r.clk != nil {
		s.simEnd = int64(r.clk.Now())
	}
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns each layer's host self time: the duration of its spans
// minus the part their child spans cover. Spans nest strictly (one
// goroutine, synchronous calls), so the self times of all layers add up to
// the total duration of the root spans.
func (r *spanRec) selfTimes() (self [numLayers]int64, roots int64) {
	child := make([]int64, len(r.spans))
	for i := range r.spans {
		s := &r.spans[i]
		d := s.hostEnd - s.hostStart
		if s.parent >= 0 {
			child[s.parent] += d
		} else {
			roots += d
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		self[s.layer] += s.hostEnd - s.hostStart - child[i]
	}
	return self, roots
}

// hostByVerb returns the host durations of one layer's spans of one verb.
func (r *spanRec) hostByVerb(l layer, v verb) []int64 {
	var out []int64
	for i := range r.spans {
		if s := &r.spans[i]; s.layer == l && s.verb == v {
			out = append(out, s.hostEnd-s.hostStart)
		}
	}
	return out
}

// writeNDJSON writes one JSON object per span: id, parent (-1 for a root),
// layer, verb, request id, and the interval on both clocks in nanoseconds.
func (r *spanRec) writeNDJSON(path, workload string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		s := &r.spans[i]
		rec := struct {
			Workload  string `json:"workload"`
			ID        int    `json:"id"`
			Parent    int32  `json:"parent"`
			Layer     string `json:"layer"`
			Verb      string `json:"verb"`
			Req       int64  `json:"req"`
			HostStart int64  `json:"host_start_ns"`
			HostEnd   int64  `json:"host_end_ns"`
			SimStart  int64  `json:"sim_start_ns"`
			SimEnd    int64  `json:"sim_end_ns"`
		}{workload, i, s.parent, layerNames[s.layer], verbNames[s.verb], s.req,
			s.hostStart, s.hostEnd, s.simStart, s.simEnd}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// devShim is a pass-through disk.Device that records a span around every
// I/O call into the layer beneath it. It forwards Clock and Tracer so the
// layers above discover them exactly as they would without the shim.
type devShim struct {
	inner disk.Device
	rec   *spanRec
	layer layer
}

func (d *devShim) ReadBlock(n int64, buf []byte) error {
	i := d.rec.begin(d.layer, vReadBlock)
	err := d.inner.ReadBlock(n, buf)
	d.rec.end(i)
	return err
}

func (d *devShim) WriteBlock(n int64, buf []byte) error {
	i := d.rec.begin(d.layer, vWriteBlock)
	err := d.inner.WriteBlock(n, buf)
	d.rec.end(i)
	return err
}

func (d *devShim) WriteBatch(reqs []disk.Request) error {
	i := d.rec.begin(d.layer, vWriteBatch)
	err := d.inner.WriteBatch(reqs)
	d.rec.end(i)
	return err
}

func (d *devShim) Barrier() error {
	i := d.rec.begin(d.layer, vBarrier)
	err := d.inner.Barrier()
	d.rec.end(i)
	return err
}

func (d *devShim) BlockSize() int        { return d.inner.BlockSize() }
func (d *devShim) NumBlocks() int64      { return d.inner.NumBlocks() }
func (d *devShim) Close() error          { return d.inner.Close() }
func (d *devShim) Clock() *disk.Clock    { return disk.ClockOf(d.inner) }
func (d *devShim) Tracer() *trace.Tracer { return trace.Of(d.inner) }

// fsShim records a span around each file-system call the workloads make;
// every other method passes straight through the embedded interface.
type fsShim struct {
	vfs.FileSystem
	rec *spanRec
}

func (f *fsShim) Mount() error {
	i := f.rec.begin(lFS, vMount)
	err := f.FileSystem.Mount()
	f.rec.end(i)
	return err
}

func (f *fsShim) Unmount() error {
	i := f.rec.begin(lFS, vUnmount)
	err := f.FileSystem.Unmount()
	f.rec.end(i)
	return err
}

func (f *fsShim) Sync() error {
	i := f.rec.begin(lFS, vSync)
	err := f.FileSystem.Sync()
	f.rec.end(i)
	return err
}

func (f *fsShim) Read(path string, off int64, buf []byte) (int, error) {
	i := f.rec.begin(lFS, vRead)
	n, err := f.FileSystem.Read(path, off, buf)
	f.rec.end(i)
	return n, err
}

func (f *fsShim) Write(path string, off int64, data []byte) (int, error) {
	i := f.rec.begin(lFS, vWrite)
	n, err := f.FileSystem.Write(path, off, data)
	f.rec.end(i)
	return n, err
}

func (f *fsShim) Create(path string, mode uint16) error {
	i := f.rec.begin(lFS, vCreate)
	err := f.FileSystem.Create(path, mode)
	f.rec.end(i)
	return err
}

func (f *fsShim) Unlink(path string) error {
	i := f.rec.begin(lFS, vUnlink)
	err := f.FileSystem.Unlink(path)
	f.rec.end(i)
	return err
}

func (f *fsShim) Fsync(path string) error {
	i := f.rec.begin(lFS, vFsync)
	err := f.FileSystem.Fsync(path)
	f.rec.end(i)
	return err
}

func (f *fsShim) Mkdir(path string, mode uint16) error {
	i := f.rec.begin(lFS, vMkdir)
	err := f.FileSystem.Mkdir(path, mode)
	f.rec.end(i)
	return err
}
