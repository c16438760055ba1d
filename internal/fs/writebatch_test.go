package fs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/stat"
	"ironfs/internal/trace"
)

// The fault layer hands each fault-free contiguous run of a batch to the
// disk as one command. The reference for every test here is the per-block
// loop it replaced: each block through WriteBlock on its own, in the same
// sort.Slice elevator order, so each is classified with every earlier
// block of the batch on the media.
func perBlockWriteBatch(dev *faultinject.Device, reqs []disk.Request) error {
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return reqs[order[a]].Block < reqs[order[b]].Block })
	var firstErr error
	for _, i := range order {
		if err := dev.WriteBlock(reqs[i].Block, reqs[i].Data); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// wbStack is a traced disk under a fault layer with the file system's
// gray-box resolver: what a batch is written through.
type wbStack struct {
	d   *disk.Disk
	tr  *trace.Tracer
	tm  *faultinject.TypeMap
	dev *faultinject.Device
}

func newWBStack(t *testing.T, name string, img []byte) *wbStack {
	t.Helper()
	d, err := disk.New(int64(len(img)/4096), disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Restore(img); err != nil {
		t.Fatal(err)
	}
	tr := trace.New(func() int64 { return int64(d.Clock().Now()) })
	d.SetTracer(tr)
	r, err := NewResolver(name, d)
	if err != nil {
		t.Fatal(err)
	}
	return &wbStack{d: d, tr: tr, tm: r.(*faultinject.TypeMap), dev: faultinject.New(d, r)}
}

// wbOutcome is everything a batch leaves behind that the per-block loop
// pins: the blocks written in landing order and their bytes, the fault
// layer's counts, its events (every I/O and firing) with the timing taken
// out, the firings and the returned error.
type wbOutcome struct {
	landed []int64
	media  [][]byte
	counts map[iron.BlockType][2]int
	events []trace.Event
	fired  int
	err    string
}

// run writes reqs with write (the reference or the device's own
// WriteBatch) and collects the outcome. The fault-layer Svc of the batch's
// blocks must sum to the simulated time the batch took: a block that left
// in a run adds no share of the run's time of its own.
func (s *wbStack) run(t *testing.T, write func([]disk.Request) error, reqs []disk.Request) (wbOutcome, disk.Duration) {
	t.Helper()
	s.tr.Reset()
	_, gen, _ := s.d.WritesSince(0, nil)
	t0 := s.d.Clock().Now()
	err := write(reqs)
	elapsed := s.d.Clock().Now() - t0
	o := wbOutcome{counts: s.dev.AccessCounts(), fired: s.dev.Fired(), err: fmt.Sprint(err)}
	landed, _, ok := s.d.WritesSince(gen, nil)
	if !ok {
		t.Fatal("the disk's write log cannot name what the batch wrote")
	}
	o.landed = landed
	for _, b := range landed {
		buf := make([]byte, s.d.BlockSize())
		if err := s.d.ReadRaw(b, buf); err != nil {
			t.Fatal(err)
		}
		o.media = append(o.media, buf)
	}
	var svc int64
	for _, e := range s.tr.Events() {
		if e.Layer != trace.LayerFault {
			continue
		}
		svc += e.Svc
		e.Seq, e.T, e.Svc = 0, 0, 0
		o.events = append(o.events, e)
	}
	if svc != int64(elapsed) {
		t.Errorf("fault-layer Svc sums to %d ns, the batch took %d ns", svc, elapsed)
	}
	return o, elapsed
}

// wbFault names one armed write-fault configuration.
type wbFault struct {
	name string
	f    func() *faultinject.Fault // a fresh fault per stack: faults keep state
}

// wbFaults arms every write-fault class × sticky/transient × typed /
// untyped / ranged at blocks and types the batch reaches, plus none.
func wbFaults(rng *rand.Rand, reqs []disk.Request, types []iron.BlockType) []wbFault {
	out := []wbFault{{"fault-free", nil}}
	for _, class := range []iron.FaultClass{iron.WriteFailure, iron.PhantomWrite, iron.MisdirectedWrite} {
		for _, sticky := range []bool{true, false} {
			count := 1 + rng.Intn(3)
			target := types[rng.Intn(len(types))]
			at := reqs[rng.Intn(len(reqs))].Block
			window := faultinject.BlockRange{Start: at, End: at + 1 + int64(rng.Intn(4))}
			mk := func(target iron.BlockType, r faultinject.BlockRange) func() *faultinject.Fault {
				return func() *faultinject.Fault {
					return &faultinject.Fault{Class: class, Sticky: sticky, Count: count, Target: target, Range: r}
				}
			}
			kind := "transient"
			if sticky {
				kind = "sticky"
			}
			out = append(out,
				wbFault{fmt.Sprintf("%v/%s/typed=%s", class, kind, target), mk(target, faultinject.BlockRange{})},
				wbFault{fmt.Sprintf("%v/%s/untyped", class, kind), mk("", faultinject.BlockRange{})},
				wbFault{fmt.Sprintf("%v/%s/range=%v", class, kind, window), mk("", window)})
		}
	}
	return out
}

// wbBatches draws seeded batches over the image: ascending contiguous
// runs, the same runs shuffled, and ascending runs with gaps. Most start
// at or just ahead of a block the resolver's walk reads, so runs cross
// from the structures that name blocks into the blocks they name. A block
// the walk reads is zeroed half the time, so what it named loses its type
// in the middle of the batch; every other block takes its contents from
// another image of the same file system, so inodes, tree nodes and
// directories really change under the resolver.
func wbBatches(rng *rand.Rand, tm *faultinject.TypeMap, nblocks int64, other []byte) [][]disk.Request {
	var reads []int64
	for b := int64(0); b < nblocks; b++ {
		if tm.Reads(b) {
			reads = append(reads, b)
		}
	}
	pick := func(n int64) int64 {
		s := rng.Int63n(nblocks - n)
		if rng.Intn(4) != 0 {
			s = max(reads[rng.Intn(len(reads))]-rng.Int63n(3), 0)
		}
		return min(s, nblocks-n)
	}
	req := func(b int64) disk.Request {
		data := make([]byte, 4096)
		if !tm.Reads(b) || rng.Intn(2) == 0 {
			copy(data, other[b*4096:])
		}
		return disk.Request{Block: b, Data: data}
	}
	var out [][]disk.Request
	for range 3 {
		n := 8 + rng.Int63n(32)
		s := pick(n)
		var asc []disk.Request
		for b := s; b < s+n; b++ {
			asc = append(asc, req(b))
		}
		shuffled := append([]disk.Request(nil), asc...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var gappy []disk.Request
		for b := pick(3 * n); len(gappy) < int(n) && b < nblocks; b += 1 + rng.Int63n(3) {
			gappy = append(gappy, req(b))
		}
		out = append(out, asc, shuffled, gappy)
	}
	return out
}

// TestWriteBatchMatchesPerBlock holds the fault layer's runs to the
// per-block loop: the seeded differential, the dependency the loop exists
// for, and the I/O a fault-free run costs.
func TestWriteBatchMatchesPerBlock(t *testing.T) {
	t.Run("differential", testWriteBatchDifferential)
	t.Run("dependency", testWriteBatchDependency)
	t.Run("io_budget", testWriteBatchIOBudget)
}

// testWriteBatchDifferential: whatever the batch and whatever write fault
// is armed, handing runs to the disk leaves the media, the fault layer's
// counts, trace and events, the firings and the returned error exactly as
// the per-block loop does — on every file system's resolver — and never
// takes longer.
func testWriteBatchDifferential(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			img, other := churnedImage(t, name, 0x1207), churnedImage(t, name, 0x5eed)
			ref, got := newWBStack(t, name, img), newWBStack(t, name, img)
			rng := rand.New(rand.NewSource(0x1207))
			ref.tm.Classify(0) // walk the base image once, for its read set
			cases := 0
			for bi, reqs := range wbBatches(rng, ref.tm, ref.d.NumBlocks(), other) {
				types := make([]iron.BlockType, len(reqs))
				for i, r := range reqs {
					types[i] = ref.tm.Classify(r.Block)
				}
				for _, fc := range wbFaults(rng, reqs, types) {
					for _, s := range []*wbStack{ref, got} {
						if err := s.d.Restore(img); err != nil {
							t.Fatal(err)
						}
						s.dev = faultinject.New(s.d, s.tm)
						if fc.f != nil {
							s.dev.Arm(fc.f())
						}
					}
					want, refTime := ref.run(t, func(r []disk.Request) error { return perBlockWriteBatch(ref.dev, r) }, reqs)
					have, runTime := got.run(t, got.dev.WriteBatch, reqs)
					if d := diffOutcome(want, have); d != "" {
						t.Fatalf("batch %d (%d blocks from %d), %s: %s", bi, len(reqs), reqs[0].Block, fc.name, d)
					}
					if runTime > refTime {
						t.Errorf("batch %d, %s: %v in runs, %v block by block", bi, fc.name, runTime, refTime)
					}
					cases++
				}
			}
			t.Logf("%d batch × fault cases", cases)
		})
	}
}

// diffOutcome describes the first way b differs from a, or returns "".
func diffOutcome(a, b wbOutcome) string {
	switch {
	case a.err != b.err:
		return fmt.Sprintf("returned %s, per-block %s", b.err, a.err)
	case !reflect.DeepEqual(a.landed, b.landed):
		return fmt.Sprintf("landed %v, per-block %v", b.landed, a.landed)
	case a.fired != b.fired:
		return fmt.Sprintf("fired %d, per-block %d", b.fired, a.fired)
	case !reflect.DeepEqual(a.counts, b.counts):
		return fmt.Sprintf("access counts %v, per-block %v", b.counts, a.counts)
	case !reflect.DeepEqual(a.events, b.events):
		return fmt.Sprintf("events %v, per-block %v", b.events, a.events)
	}
	for i := range a.media {
		if !bytes.Equal(a.media[i], b.media[i]) {
			return fmt.Sprintf("block %d holds different bytes", a.landed[i])
		}
	}
	return ""
}

// testWriteBatchDependency is the case the per-block classification exists
// for: a contiguous run of the inode table that names a new directory,
// then that directory's block. Classified before the table lands, the
// block is nothing; written one at a time, it is a directory, and a typed
// dir write failure fires on it. Runs must keep that.
func testWriteBatchDependency(t *testing.T) {
	for _, name := range []string{"ext3", "ixt3"} {
		t.Run(name, func(t *testing.T) {
			img := churnedImage(t, name, 0x1207)
			probe := newWBStack(t, name, img)
			// A directory block right behind the inode table: the group's
			// first data block.
			dir := int64(-1)
			for b := int64(1); b < probe.d.NumBlocks() && dir < 0; b++ {
				if probe.tm.Classify(b) == "dir" && probe.tm.Classify(b-1) == "inode" {
					dir = b
				}
			}
			if dir < 0 {
				t.Fatal("no directory block follows an inode table")
			}
			table := dir - 1
			for table > 0 && probe.tm.Classify(table-1) == "inode" {
				table--
			}
			// The base image has that table empty: the directory is new.
			base := append([]byte(nil), img...)
			clear(base[table*4096 : dir*4096])
			var reqs []disk.Request
			for b := table; b <= dir; b++ {
				reqs = append(reqs, disk.Request{Block: b, Data: img[b*4096 : (b+1)*4096]})
			}
			for _, write := range []struct {
				name string
				fn   func(*faultinject.Device, []disk.Request) error
			}{
				{"per-block", perBlockWriteBatch},
				{"runs", (*faultinject.Device).WriteBatch},
			} {
				s := newWBStack(t, name, base)
				if bt := s.tm.Classify(dir); bt == "dir" {
					t.Fatalf("block %d is already a directory with the table empty", dir)
				}
				s.dev.Arm(&faultinject.Fault{Class: iron.WriteFailure, Target: "dir", Sticky: true})
				err := write.fn(s.dev, reqs)
				var fired, last trace.Event
				for _, e := range s.tr.Events() {
					if e.Layer == trace.LayerFault && e.Kind == trace.KindFault {
						fired = e
					} else if e.Layer == trace.LayerFault {
						last = e
					}
				}
				if err == nil || s.dev.Fired() != 1 || fired.Block != dir || last.Block != dir || last.Type != "dir" || last.Err == "" {
					t.Fatalf("%s: table %d..%d then dir %d: err %v, fired %d at %d, last I/O %+v",
						write.name, table, dir-1, dir, err, s.dev.Fired(), fired.Block, last)
				}
			}
		})
	}
}

// testWriteBatchIOBudget: a fault-free contiguous run of N blocks within
// one track reaches the disk as one command, whose busy time is one
// positioning plus N transfers — what the first block alone costs, plus
// a slot time for each block after it.
func testWriteBatchIOBudget(t *testing.T) {
	const n = 16
	g := disk.DefaultGeometry()
	slot := disk.Duration(int64(disk.Duration(int64(60)*int64(disk.Second)/int64(g.RPM))) / g.BlocksPerTrack)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			img := churnedImage(t, name, 0x1207)
			s := newWBStack(t, name, img)
			reqs := quietRun(t, s.d, s.tm, n)
			start := reqs[0].Block

			// The first block alone, on a twin at the same head and clock.
			twin := newWBStack(t, name, img)
			if err := twin.d.WriteBlock(start, reqs[0].Data); err != nil {
				t.Fatal(err)
			}
			first := twin.d.Stats().BusyTime

			batches := stat.C("disk_ops_total", "op", "batch")
			before, busy := batches.Value(), s.d.Stats()
			if err := s.dev.WriteBatch(reqs); err != nil {
				t.Fatal(err)
			}
			got := s.d.Stats().Sub(busy)
			if cmds := batches.Value() - before; cmds != 1 || got.Writes != n {
				t.Fatalf("%d blocks reached the disk as %d commands, %d writes", n, cmds, got.Writes)
			}
			if want := first + (n-1)*slot; got.BusyTime != want {
				t.Fatalf("run busy %v, want one positioning plus %d transfers = %v", got.BusyTime, n, want)
			}
		})
	}
}

// quietRun returns writes of n consecutive blocks from the start of a
// track, none of which the resolver's walk reads, each rewriting the
// block's current contents: a run the fault layer hands down whole.
func quietRun(tb testing.TB, d *disk.Disk, tm *faultinject.TypeMap, n int64) []disk.Request {
	tb.Helper()
	tm.Classify(0) // walk the image, for its read set
	bpt := disk.DefaultGeometry().BlocksPerTrack
	for start := (d.NumBlocks()/bpt - 1) * bpt; start > 0; start -= bpt {
		var reqs []disk.Request
		for b := start; b < start+n && !tm.Reads(b); b++ {
			data := make([]byte, d.BlockSize())
			if err := d.ReadRaw(b, data); err != nil {
				tb.Fatal(err)
			}
			reqs = append(reqs, disk.Request{Block: b, Data: data})
		}
		if int64(len(reqs)) == n {
			return reqs
		}
	}
	tb.Fatalf("no track starts with %d blocks outside the read set", n)
	return nil
}

// BenchmarkFaultWriteBatch is a scheduler run through the fault layer: 32
// consecutive blocks outside the resolver's read set, nothing armed. Each
// block is classified and recorded; the run leaves as one disk command.
func BenchmarkFaultWriteBatch(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			img := churnedImage(b, name, 0x1207)
			d, err := disk.New(int64(len(img)/4096), disk.DefaultGeometry(), nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := d.Restore(img); err != nil {
				b.Fatal(err)
			}
			r, err := NewResolver(name, d)
			if err != nil {
				b.Fatal(err)
			}
			dev := faultinject.New(d, r)
			reqs := quietRun(b, d, r.(*faultinject.TypeMap), 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := dev.WriteBatch(reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
