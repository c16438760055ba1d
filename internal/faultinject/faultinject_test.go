package faultinject

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"ironfs/internal/disk"
	"ironfs/internal/iron"
	"ironfs/internal/stat"
	"ironfs/internal/trace"
)

func newStack(t *testing.T) (*disk.Disk, *Device) {
	t.Helper()
	d, err := disk.New(256, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, New(d, nil)
}

// newTracedStack is newStack with a tracer on the disk, which the fault
// layer discovers at construction.
func newTracedStack(t *testing.T) (*disk.Disk, *Device, *trace.Tracer) {
	t.Helper()
	d, err := disk.New(256, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(func() int64 { return int64(d.Clock().Now()) })
	d.SetTracer(tr)
	return d, New(d, nil), tr
}

// faultIO is the fault layer's view of the I/O in tr: its read and write
// events, in order, without the fault firings between them.
func faultIO(tr *trace.Tracer) []trace.Event {
	var out []trace.Event
	for _, e := range tr.Events() {
		if e.Layer == trace.LayerFault && e.Kind != trace.KindFault {
			out = append(out, e)
		}
	}
	return out
}

// typeMap resolves a few blocks to fixed types for targeting tests.
func typeMap(m map[int64]iron.BlockType) ResolverFunc {
	return func(b int64) iron.BlockType {
		if t, ok := m[b]; ok {
			return t
		}
		return iron.Unclassified
	}
}

func TestPassThrough(t *testing.T) {
	_, fd := newStack(t)
	w := make([]byte, 4096)
	w[0] = 0x42
	if err := fd.WriteBlock(9, w); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, 4096)
	if err := fd.ReadBlock(9, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, r) {
		t.Fatal("pass-through mangled data")
	}
	if fd.Fired() != 0 {
		t.Fatal("fault fired with none armed")
	}
}

func TestStickyReadFailure(t *testing.T) {
	_, fd := newStack(t)
	fd.Arm(&Fault{Class: iron.ReadFailure, Sticky: true})
	buf := make([]byte, 4096)
	for i := 0; i < 5; i++ {
		if err := fd.ReadBlock(3, buf); !errors.Is(err, disk.ErrIO) {
			t.Fatalf("attempt %d: err = %v", i, err)
		}
	}
	if fd.Fired() != 5 {
		t.Fatalf("fired = %d", fd.Fired())
	}
	// Writes are unaffected by a read-failure fault.
	if err := fd.WriteBlock(3, buf); err != nil {
		t.Fatal(err)
	}
}

// TestTransientFiresExactlyCount: a transient fault fires exactly Count
// times and then disappears, for any Count — the retry-probe semantics.
func TestTransientFiresExactlyCount(t *testing.T) {
	f := func(raw uint8) bool {
		count := int(raw%7) + 1
		_, fd := newStack(t)
		fd.Arm(&Fault{Class: iron.ReadFailure, Count: count})
		buf := make([]byte, 4096)
		fails := 0
		for i := 0; i < 12; i++ {
			if err := fd.ReadBlock(1, buf); err != nil {
				fails++
			}
		}
		return fails == count && fd.Fired() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFailureDropsWrite(t *testing.T) {
	d, fd := newStack(t)
	good := make([]byte, 4096)
	good[0] = 0x11
	if err := fd.WriteBlock(7, good); err != nil {
		t.Fatal(err)
	}
	fd.Arm(&Fault{Class: iron.WriteFailure})
	bad := make([]byte, 4096)
	bad[0] = 0x22
	if err := fd.WriteBlock(7, bad); !errors.Is(err, disk.ErrIO) {
		t.Fatalf("write err = %v", err)
	}
	// The failed write must never reach the media.
	raw := make([]byte, 4096)
	if err := d.ReadRaw(7, raw); err != nil {
		t.Fatal(err)
	}
	if raw[0] != 0x11 {
		t.Fatalf("failed write reached media: %#x", raw[0])
	}
}

func TestCorruptionIsSilentAndConfined(t *testing.T) {
	d, fd := newStack(t)
	w := make([]byte, 4096)
	for i := range w {
		w[i] = 0x5A
	}
	if err := fd.WriteBlock(4, w); err != nil {
		t.Fatal(err)
	}
	fd.Arm(&Fault{Class: iron.Corruption, Count: 1})
	r := make([]byte, 4096)
	if err := fd.ReadBlock(4, r); err != nil {
		t.Fatalf("corruption must be silent, got %v", err)
	}
	if bytes.Equal(w, r) {
		t.Fatal("corruption did not alter the data")
	}
	// The media itself is untouched; the next read is clean.
	raw := make([]byte, 4096)
	if err := d.ReadRaw(4, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, raw) {
		t.Fatal("corruption leaked to the media")
	}
	if err := fd.ReadBlock(4, r); err != nil || !bytes.Equal(w, r) {
		t.Fatal("transient corruption persisted")
	}
}

func TestCustomCorrupter(t *testing.T) {
	_, fd := newStack(t)
	w := make([]byte, 4096)
	if err := fd.WriteBlock(2, w); err != nil {
		t.Fatal(err)
	}
	fd.Arm(&Fault{
		Class: iron.Corruption,
		Corrupt: func(blk int64, data []byte) {
			data[0] = 0xEE // a "similar but wrong" single-field corruption
		},
	})
	r := make([]byte, 4096)
	if err := fd.ReadBlock(2, r); err != nil {
		t.Fatal(err)
	}
	if r[0] != 0xEE || r[1] != 0 {
		t.Fatalf("custom corrupter not applied precisely: %x %x", r[0], r[1])
	}
}

func TestTypeTargeting(t *testing.T) {
	_, fd := newStack(t)
	fd.SetResolver(typeMap(map[int64]iron.BlockType{10: "inode", 11: "data"}))
	fd.Arm(&Fault{Class: iron.ReadFailure, Target: "inode", Sticky: true})
	buf := make([]byte, 4096)
	if err := fd.ReadBlock(11, buf); err != nil {
		t.Fatalf("untargeted type failed: %v", err)
	}
	if err := fd.ReadBlock(10, buf); !errors.Is(err, disk.ErrIO) {
		t.Fatalf("targeted type did not fail: %v", err)
	}
}

func TestRangeTargeting(t *testing.T) {
	_, fd := newStack(t)
	fd.Arm(&Fault{Class: iron.ReadFailure, Range: BlockRange{Start: 100, End: 104}, Sticky: true})
	buf := make([]byte, 4096)
	for b := int64(98); b < 106; b++ {
		err := fd.ReadBlock(b, buf)
		inRange := b >= 100 && b < 104
		if inRange != (err != nil) {
			t.Errorf("block %d: err=%v, want fault=%v", b, err, inRange)
		}
	}
}

func TestTraceAndAccessCounts(t *testing.T) {
	_, fd, tr := newTracedStack(t)
	fd.SetResolver(typeMap(map[int64]iron.BlockType{5: "super"}))
	buf := make([]byte, 4096)
	_ = fd.WriteBlock(5, buf)
	_ = fd.ReadBlock(5, buf)
	_ = fd.ReadBlock(6, buf)
	io := faultIO(tr)
	want := []trace.Event{
		{Kind: trace.KindWrite, Block: 5, Type: "super"},
		{Kind: trace.KindRead, Block: 5, Type: "super"},
		{Kind: trace.KindRead, Block: 6, Type: string(iron.Unclassified)},
	}
	if len(io) != len(want) {
		t.Fatalf("trace = %d I/O events", len(io))
	}
	for i, e := range io {
		if e.Kind != want[i].Kind || e.Block != want[i].Block || e.Type != want[i].Type || e.Err != "" {
			t.Errorf("event %d = %+v, want %s of block %d as %q", i, e, want[i].Kind, want[i].Block, want[i].Type)
		}
	}
	counts := fd.AccessCounts()
	if c := counts["super"]; c[disk.OpRead] != 1 || c[disk.OpWrite] != 1 {
		t.Fatalf("super counts = %v", c)
	}
	if c := counts[iron.Unclassified]; c[disk.OpRead] != 1 {
		t.Fatalf("unclassified counts = %v", c)
	}
	fd.ResetCounts()
	if len(fd.AccessCounts()) != 0 {
		t.Fatal("counts not reset")
	}
}

// TestAccessCountsAggregateTheTrace: the per-(type, op) counts a device
// keeps are what aggregating its fault-layer I/O events gives, and each
// faulted read is announced by a fault event just before it.
func TestAccessCountsAggregateTheTrace(t *testing.T) {
	_, fd, tr := newTracedStack(t)
	fd.SetResolver(typeMap(map[int64]iron.BlockType{1: "inode", 2: "dir", 3: "inode"}))
	fd.Arm(&Fault{Class: iron.ReadFailure, Target: "dir", Sticky: true})
	buf := make([]byte, 4096)
	for i := 0; i < 3000; i++ {
		if i%3 == 0 {
			_ = fd.WriteBlock(int64(i%5), buf)
		} else {
			_ = fd.ReadBlock(int64(i%5), buf)
		}
	}
	want := map[iron.BlockType][2]int{}
	for _, e := range faultIO(tr) {
		op := disk.OpRead
		if e.Kind == trace.KindWrite {
			op = disk.OpWrite
		}
		c := want[iron.BlockType(e.Type)]
		c[op]++
		want[iron.BlockType(e.Type)] = c
	}
	if !reflect.DeepEqual(fd.AccessCounts(), want) {
		t.Fatalf("AccessCounts = %v, trace aggregates to %v", fd.AccessCounts(), want)
	}
	evs, failed := tr.Events(), 0
	for i, e := range evs {
		if e.Layer != trace.LayerFault || e.Err == "" {
			continue
		}
		failed++
		if i == 0 || evs[i-1].Kind != trace.KindFault || evs[i-1].Block != e.Block {
			t.Fatalf("failed %s of block %d not announced by a fault event", e.Kind, e.Block)
		}
	}
	if failed != want["dir"][disk.OpRead] || failed != fd.Fired() {
		t.Fatalf("%d failed I/O events, %d dir reads, %d firings", failed, want["dir"][disk.OpRead], fd.Fired())
	}
}

func TestBatchPartialFailure(t *testing.T) {
	d, fd := newStack(t)
	fd.Arm(&Fault{Class: iron.WriteFailure, Range: BlockRange{Start: 21, End: 22}, Sticky: true})
	mk := func(b byte) []byte {
		x := make([]byte, 4096)
		x[0] = b
		return x
	}
	err := fd.WriteBatch([]disk.Request{
		{Block: 20, Data: mk(1)},
		{Block: 21, Data: mk(2)},
		{Block: 22, Data: mk(3)},
	})
	if !errors.Is(err, disk.ErrIO) {
		t.Fatalf("batch err = %v", err)
	}
	// The other writes in the batch still complete (queued semantics).
	raw := make([]byte, 4096)
	_ = d.ReadRaw(20, raw)
	if raw[0] != 1 {
		t.Error("pre-fault batch member lost")
	}
	_ = d.ReadRaw(22, raw)
	if raw[0] != 3 {
		t.Error("post-fault batch member lost")
	}
	_ = d.ReadRaw(21, raw)
	if raw[0] != 0 {
		t.Error("faulted write reached media")
	}
}

// pointerImage is a toy gray-box format: block 0 lists pointer blocks (one
// per byte, 0 ends the list), and a pointer block p whose first byte is k
// names block p+k a directory. When block trigger is first classified, a
// write from outside the batch lands the table in rewrite on block 0.
type pointerImage struct {
	raw       *disk.Disk
	trigger   int64
	rewrite   []byte
	rewritten bool
	roots     []int64 // the last Layout's
}

func (p *pointerImage) Layout(m *TypeMap, roots []int64) ([]int64, bool, bool) {
	table, ok := m.Read(0, 0)
	if !ok {
		return roots, false, false
	}
	for _, ptr := range table {
		if ptr == 0 {
			break
		}
		roots = append(roots, int64(ptr))
	}
	changed := !slices.Equal(roots, p.roots)
	p.roots = slices.Clone(roots)
	return roots, changed, true
}

func (p *pointerImage) WalkRoot(m *TypeMap, root int64) {
	if b, ok := m.Read(1, root); ok && b[0] != 0 {
		m.Set(root+int64(b[0]), "dir")
	}
}

func (p *pointerImage) Static(m *TypeMap, blk int64) iron.BlockType {
	if blk == p.trigger && !p.rewritten {
		p.rewritten = true
		if err := p.raw.WriteBlock(0, p.rewrite); err != nil {
			panic(err)
		}
	}
	return ""
}

// TestWriteBatchRewalkSeesPendingBlock: a write from outside the batch
// rebuilds the map while a run is pending, and the new walk reads a block
// of that run. The block being classified depends on it, so the run must
// reach the media and the block be classified again — as the per-block
// loop, which wrote the block before classifying the next, would.
func TestWriteBatchRewalkSeesPendingBlock(t *testing.T) {
	for _, batched := range []bool{false, true} {
		d, _ := disk.New(64, disk.DefaultGeometry(), nil)
		table := make([]byte, 4096)
		table[0] = 10 // after the outside write: block 10 is a pointer block
		tm := NewTypeMap(d, &pointerImage{raw: d, trigger: 11, rewrite: table}, "super", 0)
		fd := New(d, tm)
		fd.Arm(&Fault{Class: iron.WriteFailure, Target: "dir", Sticky: true})
		ptr := make([]byte, 4096)
		ptr[0] = 2 // block 10 names block 12
		reqs := []disk.Request{{Block: 10, Data: ptr}, {Block: 11, Data: make([]byte, 4096)}, {Block: 12, Data: make([]byte, 4096)}}
		var err error
		if batched {
			err = fd.WriteBatch(reqs)
		} else {
			for _, r := range reqs {
				if e := fd.WriteBlock(r.Block, r.Data); e != nil && err == nil {
					err = e
				}
			}
		}
		if !errors.Is(err, disk.ErrIO) || fd.Fired() != 1 || fd.AccessCounts()["dir"][disk.OpWrite] != 1 {
			t.Errorf("batched=%v: err %v, fired %d, counts %v: the dir write failure missed block 12",
				batched, err, fd.Fired(), fd.AccessCounts())
		}
	}
}

// TestWriteBatchResolverFuncSeesEachWrite: a resolver that is not a
// TypeMap may read anything, so every block is classified with the one
// before it on the media — today's per-block behaviour.
func TestWriteBatchResolverFuncSeesEachWrite(t *testing.T) {
	d, fd := newStack(t)
	// Block n is a directory when block n-1 starts with 'D'.
	fd.SetResolver(ResolverFunc(func(n int64) iron.BlockType {
		buf := make([]byte, 4096)
		if n > 0 && d.ReadRaw(n-1, buf) == nil && buf[0] == 'D' {
			return "dir"
		}
		return iron.Unclassified
	}))
	fd.Arm(&Fault{Class: iron.WriteFailure, Target: "dir", Sticky: true})
	named := make([]byte, 4096)
	named[0] = 'D'
	err := fd.WriteBatch([]disk.Request{{Block: 30, Data: named}, {Block: 31, Data: make([]byte, 4096)}})
	if !errors.Is(err, disk.ErrIO) || fd.Fired() != 1 {
		t.Fatalf("err %v, fired %d: block 31 was classified before block 30 landed", err, fd.Fired())
	}
}

// TestWriteBatchRunIsOneCommand: with nothing armed, a contiguous batch
// leaves the fault layer as one disk command, each block still counted
// and traced in order.
func TestWriteBatchRunIsOneCommand(t *testing.T) {
	d, fd, tr := newTracedStack(t)
	var reqs []disk.Request
	for b := int64(40); b < 48; b++ {
		reqs = append(reqs, disk.Request{Block: b, Data: make([]byte, 4096)})
	}
	before := d.Clock().Now()
	if err := fd.WriteBatch(reqs); err != nil {
		t.Fatal(err)
	}
	// One command: one overhead, then eight back-to-back transfers.
	if took, want := d.Clock().Now()-before, disk.DefaultGeometry().CmdOverhead+d.Stats().BusyTime; took != want {
		t.Fatalf("batch took %v, one command would take %v", took, want)
	}
	io := faultIO(tr)
	if len(io) != len(reqs) || fd.AccessCounts()[iron.Unclassified][disk.OpWrite] != len(reqs) || fd.Fired() != 0 {
		t.Fatalf("trace %d I/O events, counts %v, %d firings", len(io), fd.AccessCounts(), fd.Fired())
	}
	for i, e := range io {
		if e.Block != reqs[i].Block || e.Kind != trace.KindWrite || e.Err != "" {
			t.Fatalf("event %d: %+v", i, e)
		}
	}
}

func TestDisarm(t *testing.T) {
	_, fd := newStack(t)
	fd.Arm(&Fault{Class: iron.ReadFailure, Sticky: true})
	fd.Disarm()
	buf := make([]byte, 4096)
	if err := fd.ReadBlock(0, buf); err != nil {
		t.Fatalf("fault survived disarm: %v", err)
	}
}

func TestCrashDevice(t *testing.T) {
	d, _ := disk.New(64, disk.DefaultGeometry(), nil)
	c := NewCrashDevice(d, 3)
	buf := make([]byte, 4096)
	for i := int64(0); i < 3; i++ {
		if err := c.WriteBlock(i, buf); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := c.WriteBlock(3, buf); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write past limit = %v", err)
	}
	if !c.Crashed() || c.Written() != 3 {
		t.Fatalf("crashed=%v written=%d", c.Crashed(), c.Written())
	}
	if err := c.ReadBlock(0, buf); !errors.Is(err, ErrCrashed) {
		t.Errorf("read after crash = %v", err)
	}
	if err := c.Barrier(); !errors.Is(err, ErrCrashed) {
		t.Errorf("barrier after crash = %v", err)
	}
	// The concrete error carries the crash write index for debugging.
	var ce *CrashError
	if err := c.ReadBlock(0, buf); !errors.As(err, &ce) || ce.Write != 3 {
		t.Errorf("err = %v, want *CrashError{Write: 3}", err)
	}
}

func TestCrashDeviceMidBatch(t *testing.T) {
	d, _ := disk.New(64, disk.DefaultGeometry(), nil)
	c := NewCrashDevice(d, 2)
	mk := func(b byte) []byte {
		x := make([]byte, 4096)
		x[0] = b
		return x
	}
	err := c.WriteBatch([]disk.Request{
		{Block: 1, Data: mk(1)},
		{Block: 2, Data: mk(2)},
		{Block: 3, Data: mk(3)},
	})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("batch err = %v", err)
	}
	raw := make([]byte, 4096)
	_ = d.ReadRaw(1, raw)
	first := raw[0]
	_ = d.ReadRaw(3, raw)
	third := raw[0]
	if first != 1 || third != 0 {
		t.Fatalf("crash point not mid-batch: first=%d third=%d", first, third)
	}
}

// TestCrashDeviceCountsOnlyLandedWrites: a write the device below refuses
// never reached the media, so it must not count toward Written, the crash
// limit or the log — whether it is a bad block number or a write fault in
// a fault layer underneath, alone or inside a batch.
func TestCrashDeviceCountsOnlyLandedWrites(t *testing.T) {
	d, fd := newStack(t)
	c := NewCrashDevice(fd, 1)
	buf := make([]byte, 4096)
	if err := c.WriteBlock(d.NumBlocks(), buf); !errors.Is(err, disk.ErrOutOfRange) {
		t.Fatalf("out-of-range write = %v, want disk.ErrOutOfRange", err)
	}
	fd.Arm(&Fault{Class: iron.WriteFailure})
	if err := c.WriteBatch([]disk.Request{{Block: 5, Data: buf}}); err == nil || errors.Is(err, ErrCrashed) {
		t.Fatalf("faulted write = %v, want the fault layer's error", err)
	}
	if n := c.Written(); n != 0 || len(c.Log()) != 0 || c.Crashed() {
		t.Fatalf("after two refused writes: written=%d log=%d crashed=%v, want 0, 0, false", n, len(c.Log()), c.Crashed())
	}
	// The one write the limit allows is still available.
	if err := c.WriteBlock(6, buf); err != nil {
		t.Fatalf("first landed write: %v", err)
	}
	var ce *CrashError
	if err := c.WriteBlock(7, buf); !errors.As(err, &ce) || ce.Write != 1 {
		t.Fatalf("write past the limit = %v, want *CrashError{Write: 1}", err)
	}
}

// TestCrashDeviceConcurrentLimit: writers racing past the limit land
// exactly limit writes between them, every one logged.
func TestCrashDeviceConcurrentLimit(t *testing.T) {
	d, _ := disk.New(64, disk.DefaultGeometry(), nil)
	c := NewCrashDevice(d, 20)
	var wg sync.WaitGroup
	for w := int64(0); w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			for i := int64(0); i < 10; i++ {
				_ = c.WriteBlock(w*10+i, buf) // the writes past the limit fail by design
			}
		}()
	}
	wg.Wait()
	if !c.Crashed() || c.Written() != 20 || len(c.Log()) != 20 {
		t.Fatalf("crashed=%v written=%d log=%d, want true, 20, 20", c.Crashed(), c.Written(), len(c.Log()))
	}
}

func TestCrashDeviceNeverCrashes(t *testing.T) {
	d, _ := disk.New(64, disk.DefaultGeometry(), nil)
	c := NewCrashDevice(d, -1)
	buf := make([]byte, 4096)
	for i := int64(0); i < 20; i++ {
		if err := c.WriteBlock(i%8, buf); err != nil {
			t.Fatal(err)
		}
	}
	if c.Crashed() {
		t.Fatal("negative limit crashed")
	}
}

// TestFiringAllocs: with tracing off, a fault that keeps firing allocates
// nothing after its first firing. The fault_fired_total handle of each
// (class, block type) is resolved once per device, not rendered per event.
func TestFiringAllocs(t *testing.T) {
	reg := stat.NewRegistry()
	defer stat.SetDefault(stat.SetDefault(reg))
	_, fd := newStack(t)
	fd.Arm(&Fault{Class: iron.ReadFailure, Sticky: true, Range: BlockRange{Start: 3, End: 4}})
	fd.Arm(&Fault{Class: iron.Corruption, Sticky: true, Range: BlockRange{Start: 5, End: 6}})
	buf := make([]byte, 4096)
	read := func() {
		if err := fd.ReadBlock(3, buf); !errors.Is(err, disk.ErrIO) {
			t.Fatalf("read of block 3: err = %v, want the read failure", err)
		}
		if err := fd.ReadBlock(5, buf); err != nil {
			t.Fatalf("read of block 5: %v", err)
		}
	}
	read()
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Errorf("a read failure and a corruption firing allocated %v times per pair, want 0", n)
	}
	for _, class := range []iron.FaultClass{iron.ReadFailure, iron.Corruption} {
		c := reg.Counter("fault_fired_total", "class", class.String(), "type", string(iron.Unclassified))
		if got := c.Value(); got != 102 {
			t.Errorf("fault_fired_total{class=%s} = %d, want 102", class, got)
		}
	}
}
