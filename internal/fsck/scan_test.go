package fsck

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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

// seededBitmap is a Bitmap over random map blocks and a random in-use set
// that agree except at ~1 % of the bits; reading map block failAt fails.
func seededBitmap(seed int64, bits int64, failAt int64) *Bitmap {
	const blockBits = 2 * ChunkBits
	rng := rand.New(rand.NewSource(seed))
	inUse := make([]bool, bits)
	blocks := make([][]byte, (bits+blockBits-1)/blockBits)
	for i := range blocks {
		blocks[i] = make([]byte, blockBits/8)
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
			if i == failAt {
				return nil, errors.New("unreadable")
			}
			return blocks[i], nil
		},
		InUse: func(n int64) bool { return inUse[n-1] }}
}

func TestBitmapVerifyParallelIdenticalToSerial(t *testing.T) {
	const bits = 9*ChunkBits + 123 // ten chunks, the last one short
	for _, failAt := range []int64{-1, 0, 2, 4} {
		var serial *Scan
		for workers := 1; workers <= 9; workers++ {
			s := newScan(workers, nil)
			err := seededBitmap(42, bits, failAt).Verify(s)
			if (err != nil) != (failAt >= 0) {
				t.Fatalf("failAt=%d workers=%d: err = %v", failAt, workers, err)
			}
			if len(s.Stats.Phases) != 1 || s.Stats.Phases[0].Name != "verify:seeded" || s.Stats.Phases[0].Workers != workers {
				t.Fatalf("failAt=%d workers=%d: stage not recorded: %+v", failAt, workers, s.Stats)
			}
			if workers == 1 {
				serial = s
				continue
			}
			if !reflect.DeepEqual(s.Problems, serial.Problems) {
				t.Fatalf("failAt=%d workers=%d: problem list diverged from serial", failAt, workers)
			}
			if got, want := s.Stats.Phases[0].Total(), serial.Stats.Phases[0].Total(); got != want {
				t.Fatalf("failAt=%d workers=%d: %d units, serial did %d", failAt, workers, got, want)
			}
		}
		// Map block k holds chunks 2k and 2k+1: a failed read at block k
		// keeps exactly what chunks < 2k found, in order, and their units.
		clean := newScan(1, nil)
		if err := seededBitmap(42, bits, -1).Verify(clean); err != nil {
			t.Fatal(err)
		}
		if len(clean.Problems) < 100 {
			t.Fatalf("seeded bitmap has only %d problems", len(clean.Problems))
		}
		if failAt < 0 {
			if serial.Stats.Phases[0].Total() != bits {
				t.Fatalf("units = %d, want %d", serial.Stats.Phases[0].Total(), bits)
			}
			continue
		}
		cut := 2 * failAt * ChunkBits
		var want []Problem
		for _, p := range clean.Problems {
			var n int64
			fmt.Sscanf(p.Detail, "thing %d", &n)
			if n-1 < cut {
				want = append(want, p)
			}
		}
		if !reflect.DeepEqual(serial.Problems, want) {
			t.Fatalf("failAt=%d: kept %d problems, want the %d of the chunks before the failure", failAt, len(serial.Problems), len(want))
		}
		if got := serial.Stats.Phases[0].Total(); got != cut {
			t.Fatalf("failAt=%d: %d units recorded, want %d", failAt, got, cut)
		}
	}
}

func TestBitmapRebuildMakesVerifyClean(t *testing.T) {
	const bits = 3*ChunkBits + 5
	b := seededBitmap(7, bits, -1)
	images := map[int64][]byte{}
	free, err := b.Rebuild(func(i int64, cur, want []byte) error {
		if len(cur) != len(want) {
			t.Fatalf("block %d: image is %d bytes, current block %d", i, len(want), len(cur))
		}
		images[i] = want
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
	for _, tail := range images[1][(bits-2*ChunkBits+7)/8:] {
		if tail != 0 {
			t.Fatal("bits past the last meaningful one must stay zero")
		}
	}
	b.Read = func(i int64) ([]byte, error) { return images[i], nil }
	s := newScan(3, nil)
	if err := b.Verify(s); err != nil || len(s.Problems) != 0 {
		t.Fatalf("after rebuild: %d problems, err %v", len(s.Problems), err)
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
// is a directory whose count nobody checks.
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
	want := "census1, rm root/gone, rm dirlinks/gone2, reclaim orphan, census2, links file=2, census3, maps(3 objects)"
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
