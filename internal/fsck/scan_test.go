package fsck

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestClaim(t *testing.T) {
	s := newScan(1, nil)
	s.Blocks = 100
	s.Claim(5, "a")
	s.Claim(99, "b")
	s.Claim(0, "zero")    // block 0 is never a legal pointer target
	s.Claim(-3, "neg")    // wild
	s.Claim(100, "past")  // wild: one past the end
	s.Claim(5, "c")       // double-ref names the first claimant
	s.Claim(5, "d")       // ... and still the first one the third time
	s.Claim(99, "b")      // a cycle's back edge: the same claimant twice
	s.Claim(1<<40, "far") // wild
	want := []Problem{
		{"wild-pointer", "zero -> block 0"},
		{"wild-pointer", "neg -> block -3"},
		{"wild-pointer", "past -> block 100"},
		{"double-ref", "block 5 claimed by a and c"},
		{"double-ref", "block 5 claimed by a and d"},
		{"double-ref", "block 99 claimed by b and b"},
		{"wild-pointer", "far -> block 1099511627776"},
	}
	if !reflect.DeepEqual(s.Problems, want) {
		t.Fatalf("problems:\n got %v\nwant %v", s.Problems, want)
	}
	if !s.Claimed(5) || !s.Claimed(99) || s.Claimed(0) || s.Claimed(100) || s.Claimed(6) {
		t.Fatal("claim map disagrees with the accepted claims")
	}
}

func TestEnterKeepsEventOrder(t *testing.T) {
	s := newScan(1, nil)
	s.Blocks = 10
	s.Enter([]Event{{Blk: 3, What: "x"}, {Kind: "size", What: "too big"}, {Blk: 3, What: "y"}, {Blk: 11, What: "z"}})
	want := []Problem{{"size", "too big"}, {"double-ref", "block 3 claimed by x and y"}, {"wild-pointer", "z -> block 11"}}
	if !reflect.DeepEqual(s.Problems, want) {
		t.Fatalf("got %v", s.Problems)
	}
}

// seededBitmap is a Bitmap over random map blocks of blockBits bits each,
// stored at the start of blocks one byte longer, and a random in-use set;
// the two agree except at ~1 % of the bits. Reading map block failAt
// fails, and every read is logged in *reads.
func seededBitmap(seed, bits, blockBits, failAt int64, reads *[]int64) *Bitmap {
	rng := rand.New(rand.NewSource(seed))
	inUse := make([]bool, bits)
	blocks := make([][]byte, (bits+blockBits-1)/blockBits)
	for i := range blocks {
		blocks[i] = make([]byte, blockBits/8+1)
	}
	for i := range inUse {
		inUse[i] = rng.Intn(2) == 0
		if marked := inUse[i] != (rng.Intn(100) == 0); marked {
			blocks[int64(i)/blockBits][int64(i)%blockBits/8] |= 1 << uint(i%8)
		}
	}
	return &Bitmap{Name: "seeded", Kind: "bm", Bits: bits, BlockBits: blockBits, First: 1,
		Stale: "thing %d marked but free", Lost: "thing %d in use but clear",
		Read: func(i int64) ([]byte, error) {
			*reads = append(*reads, i)
			if i == failAt {
				return nil, errors.New("unreadable")
			}
			return blocks[i], nil
		},
		InUse: func(n int64) bool { return inUse[n-1] }}
}

// clearBits counts the clear bits among the first n of b's blocks.
func clearBits(b *Bitmap, n int64) (free uint64) {
	for i := int64(0); i < n; i++ {
		buf, _ := b.Read(i / b.BlockBits)
		if bit := i % b.BlockBits; buf[bit/8]&(1<<uint(bit%8)) == 0 {
			free++
		}
	}
	return free
}

// TestBitmapVerifyParallelIdenticalToSerial holds Verify to the serial
// scan for maps wider and narrower than a chunk: the same problems in the
// same order, the same units, the same free count, and the map blocks read
// once each, in block order, whatever the worker count. A failed read
// keeps exactly what the blocks before it found.
func TestBitmapVerifyParallelIdenticalToSerial(t *testing.T) {
	for _, tc := range []struct{ bits, blockBits int64 }{
		{9*ChunkBits + 123, 2 * ChunkBits}, // ten chunks, the last one short
		{9*1024 + 123, 1024},               // chunks as narrow as the map blocks
	} {
		perBlock := tc.blockBits / min(ChunkBits, tc.blockBits)
		nblocks := (tc.bits + tc.blockBits - 1) / tc.blockBits
		for _, failAt := range []int64{-1, 0, 2, 4} {
			var serial *Scan
			var serialFree uint64
			for workers := 1; workers <= 9; workers++ {
				s := newScan(workers, nil)
				var reads []int64
				free, err := seededBitmap(42, tc.bits, tc.blockBits, failAt, &reads).Verify(s)
				if (err != nil) != (failAt >= 0) {
					t.Fatalf("%+v failAt=%d workers=%d: err = %v", tc, failAt, workers, err)
				}
				var wantReads []int64
				for i := int64(0); i < nblocks && (i == 0 || i-1 != failAt); i++ {
					wantReads = append(wantReads, i)
				}
				if !slices.Equal(reads, wantReads) {
					t.Fatalf("%+v failAt=%d workers=%d: read blocks %v, want %v", tc, failAt, workers, reads, wantReads)
				}
				if len(s.Stats.Phases) != 1 || s.Stats.Phases[0].Name != "verify:seeded" || s.Stats.Phases[0].Workers != workers {
					t.Fatalf("%+v failAt=%d workers=%d: stage not recorded: %+v", tc, failAt, workers, s.Stats)
				}
				if workers == 1 {
					serial, serialFree = s, free
					continue
				}
				if !reflect.DeepEqual(s.Problems, serial.Problems) || free != serialFree {
					t.Fatalf("%+v failAt=%d workers=%d: verdict diverged from serial", tc, failAt, workers)
				}
				if got, want := s.Stats.Phases[0].Total(), serial.Stats.Phases[0].Total(); got != want {
					t.Fatalf("%+v failAt=%d workers=%d: %d units, serial did %d", tc, failAt, workers, got, want)
				}
			}
			var reads []int64
			clean := newScan(1, nil)
			cleanMap := seededBitmap(42, tc.bits, tc.blockBits, -1, &reads)
			if _, err := cleanMap.Verify(clean); err != nil {
				t.Fatal(err)
			}
			if len(clean.Problems) < 50 {
				t.Fatalf("seeded bitmap has only %d problems", len(clean.Problems))
			}
			cut := tc.bits
			if failAt >= 0 {
				// Map block k holds chunks k*perBlock .. (k+1)*perBlock-1:
				// a failed read at block k keeps exactly what the chunks
				// before them found, in order, and their units.
				cut = failAt * perBlock * min(ChunkBits, tc.blockBits)
			}
			var want []Problem
			for _, p := range clean.Problems {
				var n int64
				fmt.Sscanf(p.Detail, "thing %d", &n)
				if n-1 < cut {
					want = append(want, p)
				}
			}
			if !reflect.DeepEqual(serial.Problems, want) {
				t.Fatalf("%+v failAt=%d: kept %d problems, want the %d of the chunks before the failure", tc, failAt, len(serial.Problems), len(want))
			}
			if got := serial.Stats.Phases[0].Total(); got != cut {
				t.Fatalf("%+v failAt=%d: %d units recorded, want %d", tc, failAt, got, cut)
			}
			if want := clearBits(cleanMap, cut); serialFree != want {
				t.Fatalf("%+v failAt=%d: free = %d, want %d", tc, failAt, serialFree, want)
			}
		}
	}
}

// TestBitmapRebuildMakesVerifyClean: Rebuild hands over the blocks whose
// map bytes are wrong, as images of the map's own length, and leaves the
// rest of each block out of the comparison.
func TestBitmapRebuildMakesVerifyClean(t *testing.T) {
	const bits = 3*ChunkBits + 5
	var reads []int64
	b := seededBitmap(7, bits, 2*ChunkBits, -1, &reads)
	images := map[int64][]byte{}
	free, err := b.Rebuild(func(i int64, cur, want []byte) error {
		if len(want) != 2*ChunkBits/8 || len(cur) != len(want)+1 {
			t.Fatalf("block %d: image is %d bytes, current block %d", i, len(want), len(cur))
		}
		images[i] = append(want, 0xff) // past the map: never compared
		return nil
	})
	if err != nil || len(images) != 2 {
		t.Fatalf("rebuilt %d blocks, err %v", len(images), err)
	}
	var wantFree uint64
	for n := int64(1); n <= bits; n++ {
		if !b.InUse(n) {
			wantFree++
		}
	}
	if free != wantFree {
		t.Fatalf("free = %d, want %d", free, wantFree)
	}
	for _, tail := range images[1][(bits-2*ChunkBits+7)/8 : 2*ChunkBits/8] {
		if tail != 0 {
			t.Fatal("bits past the last meaningful one must stay zero")
		}
	}
	b.Read = func(i int64) ([]byte, error) { return images[i], nil }
	s := newScan(3, nil)
	if got, err := b.Verify(s); err != nil || len(s.Problems) != 0 || got != wantFree {
		t.Fatalf("after rebuild: %d problems, free %d, err %v", len(s.Problems), got, err)
	}
	if _, err := b.Rebuild(func(int64, []byte, []byte) error { return errors.New("stored an unchanged block") }); err != nil {
		t.Fatal(err)
	}
}

// fakeFixer scripts a volume for Reconcile: census k is refs[k]; fixes are
// logged, and the fix whose log line is failOn fails.
type fakeFixer struct {
	build  []func(c *Refs[string])
	ncens  int
	log    []string
	failOn string
}

func (f *fakeFixer) do(line string) error {
	f.log = append(f.log, line)
	if line == f.failOn {
		return errors.New(line)
	}
	return nil
}

func (f *fakeFixer) CensusLocked(s *Scan) (*Refs[string], error) {
	c := NewRefs[string](s)
	f.build[f.ncens](c)
	f.ncens++
	return c, f.do(fmt.Sprintf("census%d", f.ncens))
}
func (f *fakeFixer) RemoveEntryLocked(c *Refs[string], e Entry) error {
	return f.do(fmt.Sprintf("rm %s/%s", c.Node(e.Dir), e.Name))
}
func (f *fakeFixer) ReclaimLocked(o Object[string]) error { return f.do("reclaim " + o.Node) }
func (f *fakeFixer) SetLinksLocked(o Object[string], n int) error {
	return f.do(fmt.Sprintf("links %s=%d", o.Node, n))
}
func (f *fakeFixer) RebuildMapsLocked(c *Refs[string]) error {
	return f.do(fmt.Sprintf("maps(%d objects)", len(c.Objects())))
}

// damaged is a volume with one of everything: /gone names a free object,
// "orphan" has no name, "file" is named twice but says 1, and "dirlinks"
// is a directory named once that says 7.
func damaged(c *Refs[string]) {
	c.Add(Object[string]{ID: 9, Links: 1, Node: "orphan"})
	c.Add(Object[string]{ID: 1, Dir: true, Root: true, Node: "root"})
	c.Add(Object[string]{ID: 5, Links: 1, Node: "file"})
	c.Add(Object[string]{ID: 4, Links: 7, Dir: true, Node: "dirlinks"})
	c.Entry(1, "gone", 77)
	c.Entry(1, "f", 5)
	c.Entry(1, "g", 5)
	c.Entry(1, "d", 4)
	c.Entry(4, "gone2", 66)
}

func afterTreeFixes(c *Refs[string]) {
	c.Add(Object[string]{ID: 1, Dir: true, Root: true, Node: "root"})
	c.Add(Object[string]{ID: 5, Links: 1, Node: "file"})
	c.Add(Object[string]{ID: 4, Links: 7, Dir: true, Node: "dirlinks"})
	c.Entry(1, "f", 5)
	c.Entry(1, "g", 5)
	c.Entry(1, "d", 4)
}

func TestCrossCheck(t *testing.T) {
	c := NewRefs[string](newScan(1, nil))
	damaged(c)
	if got := c.Dangling(); !reflect.DeepEqual(got, []uint64{66, 77}) || c.Count(77) != 1 {
		t.Fatalf("dangling = %v", got)
	}
	c.CrossCheck(Nouns{Object: func(id uint64) string { return fmt.Sprintf("obj %d", id) },
		OrphanKind: "orphan-obj", Orphan: " has no name"})
	want := []Problem{
		{"link-count", "obj 4 says 7, directory tree says 1"},
		{"link-count", "obj 5 says 1, directory tree says 2"},
		{"orphan-obj", "obj 9 has no name"},
	}
	if !reflect.DeepEqual(c.Problems, want) {
		t.Fatalf("got %v", c.Problems)
	}
}

func TestReconcileOrder(t *testing.T) {
	script := []func(*Refs[string]){damaged, afterTreeFixes, afterTreeFixes}
	f := &fakeFixer{build: script}
	if err := Reconcile[string](nil, f); err != nil {
		t.Fatal(err)
	}
	want := "census1, rm root/gone, rm dirlinks/gone2, reclaim orphan, census2, links dirlinks=1, links file=2, census3, maps(3 objects)"
	if got := strings.Join(f.log, ", "); got != want {
		t.Fatalf("order:\n got %s\nwant %s", got, want)
	}
	// Whatever fails, the pass stops there: nothing after it runs.
	steps := strings.Split(want, ", ")
	for i, step := range steps {
		f := &fakeFixer{build: script, failOn: step}
		if err := Reconcile[string](nil, f); err == nil || err.Error() != step {
			t.Fatalf("failing %q: err = %v", step, err)
		}
		if !reflect.DeepEqual(f.log, steps[:i+1]) {
			t.Fatalf("failing %q: ran %v", step, f.log)
		}
	}
}

// TestReconcileCensusOnlyAfterFixes: a phase that fixed nothing does not
// retake the census.
func TestReconcileCensusOnlyAfterFixes(t *testing.T) {
	for _, tc := range []struct {
		script []func(*Refs[string])
		want   string
	}{
		{[]func(*Refs[string]){afterTreeFixes, afterTreeFixes}, "census1, links dirlinks=1, links file=2, census2, maps(3 objects)"},
		{[]func(*Refs[string]){settled}, "census1, maps(3 objects)"},
		{[]func(*Refs[string]){func(c *Refs[string]) { settled(c); c.Entry(1, "gone", 77) }, settled}, "census1, rm root/gone, census2, maps(3 objects)"},
	} {
		f := &fakeFixer{build: tc.script}
		if err := Reconcile[string](nil, f); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(f.log, ", "); got != tc.want {
			t.Fatalf("order:\n got %s\nwant %s", got, tc.want)
		}
	}
}

// settled is afterTreeFixes with every link count right.
func settled(c *Refs[string]) {
	c.Add(Object[string]{ID: 1, Dir: true, Root: true, Node: "root"})
	c.Add(Object[string]{ID: 5, Links: 2, Node: "file"})
	c.Add(Object[string]{ID: 4, Links: 1, Dir: true, Node: "dirlinks"})
	c.Entry(1, "f", 5)
	c.Entry(1, "g", 5)
	c.Entry(1, "d", 4)
}
