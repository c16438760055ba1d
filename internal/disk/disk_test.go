package disk

import (
	"bytes"
	"errors"
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
	d := newDisk(t, 256)
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
