package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/trace"
)

// newRecorderUnderTest returns a disk and a CrashDevice over it that never
// crashes: a pure write recorder.
func newRecorderUnderTest(t *testing.T, blocks int64) (*disk.Disk, *CrashDevice) {
	t.Helper()
	d, err := disk.New(blocks, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, NewCrashDevice(d, -1)
}

// crashImage writes crash state st onto a zeroed disk of d's size and
// returns the media it leaves.
func crashImage(t *testing.T, d *disk.Disk, log []WriteRecord, st CrashState, p EnumPolicy) []byte {
	t.Helper()
	img, err := disk.New(d.NumBlocks(), d.Geometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyCrashState(img, log, st, p); err != nil {
		t.Fatal(err)
	}
	return img.Snapshot()
}

func fillBlock(d *disk.Disk, b byte) []byte {
	buf := make([]byte, d.BlockSize())
	for i := range buf {
		buf[i] = b
	}
	return buf
}

// TestCrashDeviceWritesThrough: a logged write has reached the device
// below, and the log holds a private copy of it.
func TestCrashDeviceWritesThrough(t *testing.T) {
	d, c := newRecorderUnderTest(t, 16)
	buf := fillBlock(d, 0xAB)
	if err := c.WriteBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(buf)
	buf[0] = 0
	got := make([]byte, d.BlockSize())
	if err := d.ReadRaw(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("logged write did not reach the wrapped device")
	}
	if log := c.Log(); len(log) != 1 || log[0].Block != 3 || !bytes.Equal(log[0].Data, want) {
		t.Fatalf("log = %+v, want one private copy of the write to block 3", log)
	}
}

func TestCrashDeviceEpochs(t *testing.T) {
	d, c := newRecorderUnderTest(t, 16)
	tr := trace.New(nil)
	d.SetTracer(tr)
	if err := c.WriteBlock(0, fillBlock(d, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBlock(1, fillBlock(d, 2)); err != nil {
		t.Fatal(err)
	}
	if got := c.Epochs(); got != 1 {
		t.Fatalf("Epochs() = %d, want 1", got)
	}
	log := c.Log()
	if len(log) != 2 || log[0].Epoch != 0 || log[1].Epoch != 1 {
		t.Fatalf("unexpected log epochs: %+v", log)
	}
	// The cache-layer events are 1:1 with the log and its seals.
	var got []string
	for _, e := range tr.Events() {
		if e.Layer == trace.LayerCache {
			got = append(got, fmt.Sprintf("%s %d e%d", e.Kind, e.Block, e.Epoch))
		}
	}
	if want := []string{"write 0 e0", "barrier -1 e0", "write 1 e1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cache events = %q, want %q", got, want)
	}
}

// writeSeq issues writes to blocks[i] with fill byte i+1, with a barrier
// after each index listed in barriers.
func writeSeq(t *testing.T, d *disk.Disk, c *CrashDevice, blocks []int64, barriers map[int]bool) {
	t.Helper()
	for i, b := range blocks {
		if err := c.WriteBlock(b, fillBlock(d, byte(i+1))); err != nil {
			t.Fatal(err)
		}
		if barriers[i] {
			if err := c.Barrier(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestEnumerateExhaustiveSmallWindow(t *testing.T) {
	d, c := newRecorderUnderTest(t, 16)
	// Barrier after write 0; crash at write 2 → pending set {1, 2}, n=2.
	writeSeq(t, d, c, []int64{0, 1, 2}, map[int]bool{0: true})
	states := EnumerateCrashStates(c.Log(), 2, EnumPolicy{})
	// Masks 00,01,10,11 plus torn twins for the three non-empty = 7? Torn
	// is off by default, so exactly the 4 masks.
	if len(states) != 4 {
		t.Fatalf("got %d states, want 4: %v", len(states), states)
	}
	wantMasks := []uint64{0, 1, 2, 3}
	for i, s := range states {
		if s.Mask != wantMasks[i] || s.Torn {
			t.Fatalf("state %d = %v, want mask %d untorn", i, s, wantMasks[i])
		}
	}

	torn := EnumerateCrashStates(c.Log(), 2, EnumPolicy{Torn: true})
	if len(torn) != 7 { // 4 masks + torn twins of the 3 non-empty
		t.Fatalf("got %d torn-policy states, want 7: %v", len(torn), torn)
	}
}

func TestEnumerateSampledLargeWindow(t *testing.T) {
	d, c := newRecorderUnderTest(t, 64)
	blocks := make([]int64, 10)
	for i := range blocks {
		blocks[i] = int64(i)
	}
	writeSeq(t, d, c, blocks, nil) // one open epoch, n=10 at point 9
	p := EnumPolicy{MaxExhaustive: 4, Samples: 8}
	states := EnumerateCrashStates(c.Log(), 9, p)
	// Canonical: empty, full, 10 drop-ones; plus ≤8 samples; minus dups.
	if len(states) < 12 || len(states) > 20 {
		t.Fatalf("got %d states, want canonical 12..20", len(states))
	}
	full := uint64(1)<<10 - 1
	seen := map[uint64]bool{}
	for _, s := range states {
		if s.Mask > full {
			t.Fatalf("mask %b exceeds window", s.Mask)
		}
		if seen[s.Mask] {
			t.Fatalf("duplicate mask %b", s.Mask)
		}
		seen[s.Mask] = true
	}
	if !seen[0] || !seen[full] {
		t.Fatal("canonical none/all states missing")
	}
	for i := 0; i < 10; i++ {
		if !seen[full&^(uint64(1)<<i)] {
			t.Fatalf("drop-one state for write %d missing", i)
		}
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	d, c := newRecorderUnderTest(t, 64)
	blocks := make([]int64, 12)
	for i := range blocks {
		blocks[i] = int64(i)
	}
	writeSeq(t, d, c, blocks, nil)
	p := EnumPolicy{Seed: 42, Torn: true}
	a := EnumerateCrashStates(c.Log(), 11, p)
	b := EnumerateCrashStates(c.Log(), 11, p)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different crash states")
	}
	other := EnumerateCrashStates(c.Log(), 11, EnumPolicy{Seed: 43, Torn: true})
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds produced identical sampled states (suspicious)")
	}
}

func TestWindowEvictionDurable(t *testing.T) {
	d, c := newRecorderUnderTest(t, 64)
	blocks := make([]int64, 6)
	for i := range blocks {
		blocks[i] = int64(i)
	}
	writeSeq(t, d, c, blocks, nil) // single epoch
	log := c.Log()
	// Window 3, crash at point 5: writes 0..2 were evicted (durable),
	// 3..5 pending. Mask 0 must still contain writes 0..2.
	p := EnumPolicy{Window: 3}
	img := crashImage(t, d, log, CrashState{Point: 5, Mask: 0}, p)
	for i := 0; i < 3; i++ {
		if img[i*d.BlockSize()] != byte(i+1) {
			t.Fatalf("evicted write %d not durable under empty mask", i)
		}
	}
	for i := 3; i < 6; i++ {
		if img[i*d.BlockSize()] != 0 {
			t.Fatalf("pending write %d survived an empty mask", i)
		}
	}
}

func TestApplyCrashStateOrderAndTear(t *testing.T) {
	d, c := newRecorderUnderTest(t, 16)
	// Two writes to the same block in one epoch: later must win when both
	// survive.
	if err := c.WriteBlock(5, fillBlock(d, 0x11)); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBlock(5, fillBlock(d, 0x22)); err != nil {
		t.Fatal(err)
	}
	log := c.Log()
	p := EnumPolicy{}

	img := crashImage(t, d, log, CrashState{Point: 1, Mask: 0b11}, p)
	off := 5 * d.BlockSize()
	if img[off] != 0x22 || img[off+d.BlockSize()-1] != 0x22 {
		t.Fatal("later same-block write did not win")
	}

	// Only the first write survives.
	img = crashImage(t, d, log, CrashState{Point: 1, Mask: 0b01}, p)
	if img[off] != 0x11 {
		t.Fatal("masked-out overwrite clobbered the surviving write")
	}

	// Torn newest write: first TornBytes land, the rest stays old.
	img = crashImage(t, d, log, CrashState{Point: 1, Mask: 0b11, Torn: true}, p)
	if img[off] != 0x22 {
		t.Fatal("torn write did not land its head")
	}
	if img[off+512] != 0x11 {
		t.Fatalf("torn write tail = %#x, want previous contents 0x11", img[off+512])
	}
}

func TestApplyCrashStateRespectsBarriers(t *testing.T) {
	d, c := newRecorderUnderTest(t, 16)
	writeSeq(t, d, c, []int64{1, 2, 3}, map[int]bool{1: true})
	log := c.Log()
	// Crash at write 2 (epoch 1) with empty mask: writes 0 and 1 are in a
	// sealed epoch, so they are durable regardless of the mask.
	img := crashImage(t, d, log, CrashState{Point: 2, Mask: 0}, EnumPolicy{})
	if img[1*d.BlockSize()] != 1 || img[2*d.BlockSize()] != 2 {
		t.Fatal("sealed-epoch writes must survive every crash state")
	}
	if img[3*d.BlockSize()] != 0 {
		t.Fatal("open-epoch write survived an empty mask")
	}
}

// TestApplyCrashStateOutOfRange: a log from a larger volume is refused
// with the disk's typed error, whole or torn, instead of a panic.
func TestApplyCrashStateOutOfRange(t *testing.T) {
	d, c := newRecorderUnderTest(t, 64)
	writeSeq(t, d, c, []int64{3, 40}, nil)
	log := c.Log()
	small, err := disk.New(16, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []CrashState{{Point: 1, Mask: 0b11}, {Point: 1, Mask: 0b11, Torn: true}} {
		if err := ApplyCrashState(small, log, st, EnumPolicy{}); !errors.Is(err, disk.ErrOutOfRange) {
			t.Errorf("state %s on a 16-block disk: %v, want disk.ErrOutOfRange", st, err)
		}
	}
}
