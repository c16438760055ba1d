package disk

import (
	"bytes"
	"errors"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func newDisk(t *testing.T, blocks int64) *Disk {
	t.Helper()
	d, err := New(blocks, DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := newDisk(t, 128)
	w := make([]byte, 4096)
	for i := range w {
		w[i] = byte(i * 7)
	}
	if err := d.WriteBlock(17, w); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, 4096)
	if err := d.ReadBlock(17, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, r) {
		t.Fatal("round trip mismatch")
	}
}

func TestBoundsAndSizes(t *testing.T) {
	d := newDisk(t, 16)
	buf := make([]byte, 4096)
	if err := d.ReadBlock(16, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read past end = %v", err)
	}
	if err := d.WriteBlock(-1, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative block = %v", err)
	}
	if err := d.ReadBlock(0, buf[:100]); !errors.Is(err, ErrBadSize) {
		t.Errorf("short buffer = %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadBlock(0, buf); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close = %v", err)
	}
}

func TestStatsConservation(t *testing.T) {
	d := newDisk(t, 256)
	buf := make([]byte, 4096)
	for i := int64(0); i < 10; i++ {
		if err := d.WriteBlock(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 7; i++ {
		if err := d.ReadBlock(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Writes != 10 || st.Reads != 7 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesWritten != 10*4096 || st.BytesRead != 7*4096 {
		t.Fatalf("byte stats = %+v", st)
	}
	if st.BusyTime <= 0 {
		t.Fatal("no busy time accumulated")
	}
}

func TestClockMonotone(t *testing.T) {
	d := newDisk(t, 4096)
	buf := make([]byte, 4096)
	last := d.Clock().Now()
	for i := int64(0); i < 50; i++ {
		if err := d.ReadBlock((i*37)%4096, buf); err != nil {
			t.Fatal(err)
		}
		now := d.Clock().Now()
		if now <= last {
			t.Fatalf("clock did not advance: %v -> %v", last, now)
		}
		last = now
	}
}

// TestSequentialBeatsRandom: the mechanical model must price a sequential
// sweep far below the same number of random accesses.
func TestSequentialBeatsRandom(t *testing.T) {
	buf := make([]byte, 4096)

	seq := newDisk(t, 8192)
	for i := int64(0); i < 256; i++ {
		if err := seq.ReadBlock(1024+i, buf); err != nil {
			t.Fatal(err)
		}
	}
	rnd := newDisk(t, 8192)
	for i := int64(0); i < 256; i++ {
		if err := rnd.ReadBlock((i*2053)%8192, buf); err != nil {
			t.Fatal(err)
		}
	}
	if s, r := seq.Stats().BusyTime, rnd.Stats().BusyTime; s*4 > r {
		t.Fatalf("sequential (%v) not clearly cheaper than random (%v)", s, r)
	}
}

// TestBatchBeatsBarrieredWrites: a queued batch must stream, while the
// same writes issued one by one with barriers pay per-command rotation —
// the effect behind the paper's transactional-checksum speedup.
func TestBatchBeatsBarrieredWrites(t *testing.T) {
	mk := func() ([]Request, []byte) {
		buf := make([]byte, 4096)
		var reqs []Request
		for i := int64(0); i < 32; i++ {
			reqs = append(reqs, Request{Block: 512 + i, Data: buf})
		}
		return reqs, buf
	}

	batched := newDisk(t, 8192)
	reqs, _ := mk()
	if err := batched.WriteBatch(reqs); err != nil {
		t.Fatal(err)
	}

	barriered := newDisk(t, 8192)
	_, buf := mk()
	for i := int64(0); i < 32; i++ {
		if err := barriered.WriteBlock(512+i, buf); err != nil {
			t.Fatal(err)
		}
		if err := barriered.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	if b, s := batched.Stats().BusyTime, barriered.Stats().BusyTime; b*3 > s {
		t.Fatalf("batch (%v) not clearly cheaper than barriered singles (%v)", b, s)
	}
}

// TestReadRawDoesNotPerturb: the gray-box debug port must not advance the
// clock or the statistics.
func TestReadRawDoesNotPerturb(t *testing.T) {
	d := newDisk(t, 64)
	buf := make([]byte, 4096)
	if err := d.WriteBlock(5, buf); err != nil {
		t.Fatal(err)
	}
	before, stats := d.Clock().Now(), d.Stats()
	for i := 0; i < 20; i++ {
		if err := d.ReadRaw(5, buf); err != nil {
			t.Fatal(err)
		}
	}
	if d.Clock().Now() != before {
		t.Error("ReadRaw advanced the clock")
	}
	if got := d.Stats(); got != stats {
		t.Errorf("ReadRaw changed stats: %+v -> %+v", stats, got)
	}
}

func TestSnapshotRestore(t *testing.T) {
	d := newDisk(t, 64)
	buf := make([]byte, 4096)
	buf[0] = 0xAA
	if err := d.WriteBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	img := d.Snapshot()
	buf[0] = 0xBB
	if err := d.WriteBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Restore(img); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4096)
	if err := d.ReadBlock(3, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xAA {
		t.Fatalf("restore did not revert: %#x", out[0])
	}
	if err := d.Restore(make([]byte, 10)); err == nil {
		t.Error("restore accepted a wrong-sized image")
	}
}

// TestServiceTimeProperties quick-checks the mechanical model: service
// time is always positive and bounded by a full stroke + full rotation +
// transfer + command overhead.
func TestServiceTimeProperties(t *testing.T) {
	g := DefaultGeometry()
	d := newDisk(t, 16384)
	buf := make([]byte, 4096)
	bound := g.SeekMax + g.rotation() + g.rotation()/Duration(g.BlocksPerTrack) + g.CmdOverhead

	f := func(rawBlock uint32) bool {
		blk := int64(rawBlock) % 16384
		before := d.Clock().Now()
		if err := d.ReadBlock(blk, buf); err != nil {
			return false
		}
		delta := d.Clock().Now() - before
		return delta > 0 && delta <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBatchIsSorted: the elevator must service a scrambled batch in
// no more time than a pre-sorted one (same set of blocks).
func TestWriteBatchIsSorted(t *testing.T) {
	blocks := []int64{4000, 12, 9000, 500, 2048, 300, 7777, 64}
	buf := make([]byte, 4096)

	scrambled := newDisk(t, 16384)
	var reqs []Request
	for _, b := range blocks {
		reqs = append(reqs, Request{Block: b, Data: buf})
	}
	if err := scrambled.WriteBatch(reqs); err != nil {
		t.Fatal(err)
	}

	sorted := newDisk(t, 16384)
	sortedBlocks := []int64{12, 64, 300, 500, 2048, 4000, 7777, 9000}
	reqs = reqs[:0]
	for _, b := range sortedBlocks {
		reqs = append(reqs, Request{Block: b, Data: buf})
	}
	if err := sorted.WriteBatch(reqs); err != nil {
		t.Fatal(err)
	}
	if s1, s2 := scrambled.Stats().BusyTime, sorted.Stats().BusyTime; s1 != s2 {
		t.Fatalf("elevator order not applied: scrambled=%v sorted=%v", s1, s2)
	}
}

// TestWriteBatchAscendingAllocs: a batch already in elevator order is
// serviced as given, with no allocation; a batch with a block out of order
// or named twice is still sorted by sort.Slice and lands exactly as before,
// duplicates included.
func TestWriteBatchAscendingAllocs(t *testing.T) {
	d := newDisk(t, 1024)
	reqs := make([]Request, 32)
	for i := range reqs {
		reqs[i] = Request{Block: int64(100 + i), Data: make([]byte, 4096)}
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := d.WriteBatch(reqs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("an ascending 32-block batch allocates %v times", n)
	}

	for _, tc := range []struct {
		name   string
		blocks []int64
		asc    bool
	}{
		{"ascending", []int64{3, 4, 9, 200}, true},
		{"empty", nil, true},
		{"unsorted", []int64{9, 3, 200, 4}, false},
		{"duplicate", []int64{3, 4, 4, 9}, false},
	} {
		var reqs []Request
		for i, b := range tc.blocks {
			data := make([]byte, 4096)
			data[0] = byte(i + 1)
			reqs = append(reqs, Request{Block: b, Data: data})
		}
		if got := ascending(reqs); got != tc.asc {
			t.Errorf("%s: ascending = %v", tc.name, got)
		}
		if sorted := ElevatorOrder(reqs); tc.asc != (len(reqs) == 0 || &sorted[0] == &reqs[0]) {
			t.Errorf("%s: ElevatorOrder copied an ascending batch, or handed back an unsorted one", tc.name)
		}
		// The reference is today's service order: sort.Slice over indices.
		want := newDisk(t, 1024)
		order := make([]int, len(reqs))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return reqs[order[a]].Block < reqs[order[b]].Block })
		for _, i := range order {
			if err := want.WriteBlock(reqs[i].Block, reqs[i].Data); err != nil {
				t.Fatal(err)
			}
		}
		got := newDisk(t, 1024)
		if err := got.WriteBatch(reqs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Snapshot(), want.Snapshot()) {
			t.Errorf("%s: batch landed differently from the sorted per-block order", tc.name)
		}
		wl, _, _ := want.WritesSince(0, nil)
		gl, _, _ := got.WritesSince(0, nil)
		if !slices.Equal(gl, wl) {
			t.Errorf("%s: service order %v, want %v", tc.name, gl, wl)
		}
	}
}

func TestDurationString(t *testing.T) {
	cases := map[Duration]string{
		500 * Nanosecond:           "500ns",
		3 * Microsecond:            "3.000us",
		12 * Millisecond:           "12.000ms",
		2*Second + 500*Millisecond: "2.500s",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d ns -> %q, want %q", int64(d), got, want)
		}
	}
}

func TestGeometryValidation(t *testing.T) {
	if _, err := New(0, DefaultGeometry(), nil); err == nil {
		t.Error("accepted zero-size disk")
	}
	bad := DefaultGeometry()
	bad.RPM = 0
	if _, err := New(64, bad, nil); err == nil {
		t.Error("accepted zero RPM")
	}
}

// TestWritesSince pins the write log gray-box resolvers lean on: every
// block written is reported where it landed, in order, until the reader
// falls further behind than the ring reaches or the image is restored.
func TestWritesSince(t *testing.T) {
	d := newDisk(t, 100+writeLogLen) // room for a ring's worth of distinct blocks from 100 up
	buf := make([]byte, 4096)
	_, g0, ok := d.WritesSince(0, nil)
	if !ok || g0 != 0 {
		t.Fatalf("fresh disk: gen %d ok %v", g0, ok)
	}
	if _, _, ok := d.WritesSince(-1, nil); ok {
		t.Fatal("a reader that has seen nothing must be told to start over")
	}

	if err := d.WriteBlock(9, buf); err != nil {
		t.Fatal(err)
	}
	// The batch is serviced in elevator order, which is the order logged.
	if err := d.WriteBatch([]Request{{Block: 40, Data: buf}, {Block: 7, Data: buf}}); err != nil {
		t.Fatal(err)
	}
	scratch := make([]int64, 0, writeLogLen)
	got, g1, ok := d.WritesSince(g0, scratch)
	if !ok || g1 != 3 || len(got) != 3 || got[0] != 9 || got[1] != 7 || got[2] != 40 {
		t.Fatalf("WritesSince(%d) = %v gen %d ok %v", g0, got, g1, ok)
	}
	if got, _, _ := d.WritesSince(g1, scratch); len(got) != 0 {
		t.Fatalf("nothing written since %d, got %v", g1, got)
	}
	if n := testing.AllocsPerRun(100, func() { d.WritesSince(g0, scratch) }); n != 0 {
		t.Fatalf("WritesSince allocates %v times into a large enough buffer", n)
	}

	// Exactly a ring's worth behind still answers; one more does not.
	for i := 0; i < writeLogLen-3; i++ {
		if err := d.WriteBlock(int64(100+i), buf); err != nil {
			t.Fatal(err)
		}
	}
	if got, _, ok := d.WritesSince(g0, scratch); !ok || len(got) != writeLogLen || got[0] != 9 {
		t.Fatalf("a full ring back: %d blocks ok %v", len(got), ok)
	}
	if err := d.WriteBlock(1, buf); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := d.WritesSince(g0, scratch); ok {
		t.Fatal("ring overflow went unreported")
	}

	// Restore modifies every block: the generation moves and nothing
	// before it can be answered.
	_, g2, _ := d.WritesSince(g1, scratch)
	if err := d.Restore(d.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, g3, ok := d.WritesSince(g2, scratch); ok || g3 == g2 {
		t.Fatalf("after Restore: gen %d -> %d ok %v", g2, g3, ok)
	}
	if _, g4, ok := d.WritesSince(g2+1, scratch); !ok || g4 != g2+1 {
		t.Fatalf("a reader current as of the Restore: gen %d ok %v", g4, ok)
	}
}

// TestNewAllocatesOnlyTheTrackTable: a fresh disk holds no media. A
// 16 384-block (64 MiB) disk costs its track table, 128 slice headers,
// not its capacity.
func TestNewAllocatesOnlyTheTrackTable(t *testing.T) {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New(16384, DefaultGeometry(), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := r.AllocedBytesPerOp(); got >= 64<<10 {
		t.Fatalf("New(16384) allocates %d bytes", got)
	}
}

// TestMediaSemantics runs the media's contract over a fresh disk, whose
// tracks are allocated by their first write, a restored one, whose tracks
// alias one arena, and one restored from an Image of such a disk, whose
// tracks are shared until written. 200 blocks at 128 per track end in a
// short track of 72.
func TestMediaSemantics(t *testing.T) {
	const blocks, bs = 200, 4096
	pattern := func(n int64) []byte { return bytes.Repeat([]byte{byte(n + 1)}, bs) }
	for _, tc := range []struct {
		name  string
		setup func(d *Disk)
	}{
		{"fresh", func(*Disk) {}},
		{"restored", func(d *Disk) {
			if err := d.Restore(make([]byte, blocks*bs)); err != nil {
				t.Fatal(err)
			}
		}},
		{"image", func(d *Disk) {
			src := newDisk(t, blocks)
			if err := src.Restore(make([]byte, blocks*bs)); err != nil {
				t.Fatal(err)
			}
			if err := d.RestoreImage(src.Image()); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDisk(t, blocks)
			tc.setup(d)
			zero, buf := make([]byte, bs), make([]byte, bs)

			// A block never written reads as zeros on both ports, also
			// into a buffer that held something else.
			for _, n := range []int64{0, 127, 128, blocks - 1} {
				copy(buf, pattern(n))
				if err := d.ReadBlock(n, buf); err != nil || !bytes.Equal(buf, zero) {
					t.Fatalf("ReadBlock(%d) of a never-written block: %v, zero=%v", n, err, bytes.Equal(buf, zero))
				}
				copy(buf, pattern(n))
				if err := d.ReadRaw(n, buf); err != nil || !bytes.Equal(buf, zero) {
					t.Fatalf("ReadRaw(%d) of a never-written block: %v, zero=%v", n, err, bytes.Equal(buf, zero))
				}
			}

			// Write the first and last block of the first track and the
			// last block of the short one; the snapshot places each.
			written := []int64{0, 127, blocks - 1}
			for _, n := range written {
				if err := d.WriteBlock(n, pattern(n)); err != nil {
					t.Fatal(err)
				}
			}
			img := d.Snapshot()
			if len(img) != blocks*bs {
				t.Fatalf("snapshot is %d bytes, want %d", len(img), blocks*bs)
			}
			want := make([]byte, blocks*bs)
			for _, n := range written {
				copy(want[n*bs:], pattern(n))
			}
			if !bytes.Equal(img, want) {
				t.Fatal("snapshot does not place the written blocks")
			}

			// A snapshot and the media are independent both ways.
			if err := d.WriteBlock(0, pattern(9)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(img, want) {
				t.Fatal("a write after Snapshot changed the snapshot")
			}
			img[(blocks-1)*bs] ^= 0xFF
			if err := d.ReadRaw(blocks-1, buf); err != nil || !bytes.Equal(buf, pattern(blocks-1)) {
				t.Fatal("changing a snapshot changed the media")
			}
			img[(blocks-1)*bs] ^= 0xFF

			// Restore then Snapshot round-trips, and the restored image is
			// independent of the slice it came from.
			if err := d.Restore(img); err != nil {
				t.Fatal(err)
			}
			img[0] ^= 0xFF
			if got := d.Snapshot(); !bytes.Equal(got, want) {
				t.Fatal("Restore -> Snapshot does not round-trip")
			}
			img[0] ^= 0xFF

			// A write after Image leaves the image as it was, whether it
			// lands on this disk or on one restored from the image, and
			// each disk reads its own writes, on the short track too.
			im := d.Image()
			other := newDisk(t, blocks)
			if err := other.RestoreImage(im); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(other.Snapshot(), want) {
				t.Fatal("RestoreImage does not place the image's blocks")
			}
			mine := func(i int, n int64) []byte { return pattern(n + int64(20*(i+1))) }
			for i, w := range []*Disk{d, other} {
				for _, n := range []int64{0, 130, blocks - 1} {
					if err := w.WriteBlock(n, mine(i, n)); err != nil {
						t.Fatal(err)
					}
				}
			}
			check := newDisk(t, blocks)
			if err := check.RestoreImage(im); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(check.Snapshot(), want) {
				t.Fatal("a write after Image changed the image")
			}
			for i, w := range []*Disk{d, other} {
				for _, n := range []int64{0, 130, blocks - 1} {
					if err := w.ReadRaw(n, buf); err != nil || !bytes.Equal(buf, mine(i, n)) {
						t.Fatalf("disk %d block %d does not read its own write", i, n)
					}
				}
				if err := w.ReadRaw(127, buf); err != nil || !bytes.Equal(buf, pattern(127)) {
					t.Fatalf("disk %d lost the image's block 127", i)
				}
			}
			if err := d.Restore(want); err != nil {
				t.Fatal(err)
			}

			// A wrong-sized RestoreImage errors and leaves the media as it
			// was.
			for _, size := range []int64{1, blocks - 1, blocks + 1, blocks + 128} {
				if err := d.RestoreImage(newDisk(t, size).Image()); err == nil {
					t.Fatalf("RestoreImage of a %d-block image accepted", size)
				}
			}
			if !bytes.Equal(d.Snapshot(), want) {
				t.Fatal("a refused RestoreImage changed the media")
			}

			// A wrong-sized Restore errors and leaves the media as it was.
			before := d.Snapshot()
			for _, size := range []int{0, blocks*bs - 1, (blocks + 1) * bs} {
				if err := d.Restore(bytes.Repeat([]byte{0xEE}, size)); err == nil {
					t.Fatalf("Restore of %d bytes accepted", size)
				}
			}
			if !bytes.Equal(d.Snapshot(), before) {
				t.Fatal("a refused Restore changed the media")
			}
		})
	}
}

// TestRestoreDropsLazyTracks: a Restore into a disk whose tracks were
// allocated by writes replaces them all with the arena: a block written
// before the Restore reads the image's bytes, never-written blocks read
// the image too, and writes after it land in the arena.
func TestRestoreDropsLazyTracks(t *testing.T) {
	const blocks, bs = 200, 4096
	d := newDisk(t, blocks)
	if err := d.WriteBlock(5, bytes.Repeat([]byte{0xAA}, bs)); err != nil {
		t.Fatal(err)
	}
	img := bytes.Repeat([]byte{0x5C}, blocks*bs)
	if err := d.Restore(img); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, bs)
	for _, n := range []int64{5, 6, 130, blocks - 1} {
		if err := d.ReadRaw(n, buf); err != nil || !bytes.Equal(buf, img[:bs]) {
			t.Fatalf("block %d after Restore: %v, %#x", n, err, buf[0])
		}
	}
	if err := d.WriteBlock(150, bytes.Repeat([]byte{0x01}, bs)); err != nil {
		t.Fatal(err)
	}
	for i, tr := range d.media {
		if lo := int64(i) * d.geom.BlocksPerTrack * bs; &tr[0] != &d.arena[lo] {
			t.Fatalf("track %d does not alias the arena", i)
		}
	}
	if got := d.Snapshot(); got[150*bs] != 0x01 || got[149*bs] != 0x5C {
		t.Fatal("a write after Restore did not land in the arena")
	}
}

// TestRestoredWritesDoNotAllocate: a restored disk is fully resident, so
// no write allocates, on any track, including the short last one. Every
// measured phase of the benchmark starts from a Restore.
func TestRestoredWritesDoNotAllocate(t *testing.T) {
	const blocks = 200
	d := newDisk(t, blocks)
	if err := d.Restore(make([]byte, blocks*4096)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n := int64(0)
	if a := testing.AllocsPerRun(blocks, func() {
		if err := d.WriteBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		n = (n + 1) % blocks
	}); a != 0 {
		t.Fatalf("WriteBlock on a restored disk allocates %v times", a)
	}
	// Ascending batches of 100 blocks, over both tracks, the short one too.
	var reqs []Request
	start := int64(0)
	if a := testing.AllocsPerRun(2, func() {
		reqs = reqs[:0]
		for b := start; b < min(start+100, blocks); b++ {
			reqs = append(reqs, Request{Block: b, Data: buf})
		}
		if err := d.WriteBatch(reqs); err != nil {
			t.Fatal(err)
		}
		start = (start + 100) % blocks
	}); a != 0 {
		t.Fatalf("an ascending WriteBatch on a restored disk allocates %v times", a)
	}
}

// TestImageSharedByConcurrentDisks: disks restored from one Image, and the
// disk it was taken from, write concurrently; each reads back only its own
// bytes, and the image stays as it was. Run under -race, a track written
// in place instead of cloned is a data race.
func TestImageSharedByConcurrentDisks(t *testing.T) {
	const blocks, bs, disks = 300, 4096, 4
	src := newDisk(t, blocks)
	for n := int64(0); n < blocks; n += 50 {
		if err := src.WriteBlock(n, bytes.Repeat([]byte{0xAA}, bs)); err != nil {
			t.Fatal(err)
		}
	}
	want := src.Snapshot()
	img := src.Image()
	ds := []*Disk{src}
	for i := 1; i < disks; i++ {
		d := newDisk(t, blocks)
		if err := d.RestoreImage(img); err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	var wg sync.WaitGroup
	for i, d := range ds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := bytes.Repeat([]byte{byte(i + 1)}, bs)
			buf := make([]byte, bs)
			// Every block congruent to i mod disks: every track, shared or
			// never written.
			for n := int64(i); n < blocks; n += disks {
				if err := d.WriteBlock(n, mine); err != nil {
					t.Error(err)
					return
				}
			}
			for n := int64(0); n < blocks; n++ {
				if err := d.ReadRaw(n, buf); err != nil {
					t.Error(err)
					return
				}
				exp := want[n*bs : (n+1)*bs]
				if n%disks == int64(i) {
					exp = mine
				}
				if !bytes.Equal(buf, exp) {
					t.Errorf("disk %d block %d reads another disk's bytes", i, n)
					return
				}
			}
		}()
	}
	wg.Wait()
	check := newDisk(t, blocks)
	if err := check.RestoreImage(img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(check.Snapshot(), want) {
		t.Fatal("concurrent writes changed the shared image")
	}
}

// TestRestoreImageAllocs: RestoreImage shares tracks, so what it allocates
// does not grow with the disk: a 16 384-block disk costs what a 200-block
// one does. Every track of the image is written, so a restore that copied
// tracks would cost 128 copies against 2.
func TestRestoreImageAllocs(t *testing.T) {
	allocs := func(blocks int64) float64 {
		src := newDisk(t, blocks)
		for n := int64(0); n < blocks; n += src.Geometry().BlocksPerTrack {
			if err := src.WriteBlock(n, make([]byte, 4096)); err != nil {
				t.Fatal(err)
			}
		}
		img, d := src.Image(), newDisk(t, blocks)
		return testing.AllocsPerRun(100, func() {
			if err := d.RestoreImage(img); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(200), allocs(16384); large > small {
		t.Fatalf("RestoreImage allocates %v times at 16 384 blocks, %v at 200", large, small)
	}
}
