package reiser

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ironfs/internal/namei"
)

// treeFS builds a mounted FS for direct tree-engine testing.
func treeFS(t *testing.T) *FS {
	t.Helper()
	fs, _ := newTestFS(t)
	return fs
}

// randomKey draws a key from a compact space so collisions and ordering
// stress the comparator.
func randomKey(rng *rand.Rand) key {
	return key{
		DirID:  uint32(rng.Intn(8)),
		ObjID:  uint32(rng.Intn(64)),
		Offset: uint64(rng.Intn(16)),
		Type:   uint8(rng.Intn(4) + 1),
	}
}

// TestTreeInsertDeleteOracle drives the tree against a sorted-map oracle
// through thousands of random inserts, deletes, and replacements, checking
// lookups and full-range iteration order at checkpoints.
func TestTreeInsertDeleteOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			fs := treeFS(t)
			rng := rand.New(rand.NewSource(seed))
			oracle := map[key][]byte{}

			checkpoint := func() {
				// Every oracle entry must be findable with the right body.
				for k, body := range oracle {
					it, err := fs.findItem(k)
					if err != nil {
						t.Fatalf("findItem(%v): %v", k, err)
					}
					if !bytes.Equal(it.Body, body) {
						t.Fatalf("findItem(%v): body mismatch", k)
					}
				}
				// Full-range iteration yields exactly the oracle's keys in
				// sorted order.
				var got []key
				err := fs.rangeItems(key{}, key{DirID: ^uint32(0), ObjID: ^uint32(0), Offset: ^uint64(0), Type: 0xFF},
					func(it item) error {
						got = append(got, it.K)
						return nil
					})
				if err != nil {
					t.Fatalf("rangeItems: %v", err)
				}
				var want []key
				for k := range oracle {
					if k.cmp(rootRef().statKey()) != 0 { // skip the preexisting root stat
						want = append(want, k)
					}
				}
				want = append(want, rootRef().statKey())
				sort.Slice(want, func(i, j int) bool { return want[i].cmp(want[j]) < 0 })
				if len(got) != len(want) {
					t.Fatalf("iteration count %d, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i].cmp(want[i]) != 0 {
						t.Fatalf("iteration order differs at %d: %v vs %v", i, got[i], want[i])
					}
					if i > 0 && got[i-1].cmp(got[i]) >= 0 {
						t.Fatalf("iteration not strictly increasing at %d", i)
					}
				}
			}

			for op := 0; op < 1200; op++ {
				k := randomKey(rng)
				if k.cmp(rootRef().statKey()) == 0 {
					continue
				}
				switch rng.Intn(3) {
				case 0: // insert
					body := make([]byte, 1+rng.Intn(200))
					rng.Read(body)
					err := fs.insertItem(item{K: k, Body: body})
					if _, exists := oracle[k]; exists {
						if err == nil {
							t.Fatalf("duplicate insert of %v succeeded", k)
						}
					} else if err != nil {
						t.Fatalf("insert %v: %v", k, err)
					} else {
						oracle[k] = body
					}
				case 1: // delete
					err := fs.deleteItem(k)
					if _, exists := oracle[k]; exists {
						if err != nil {
							t.Fatalf("delete %v: %v", k, err)
						}
						delete(oracle, k)
					} else if err == nil {
						t.Fatalf("delete of absent %v succeeded", k)
					}
				case 2: // replace
					if _, exists := oracle[k]; exists {
						body := make([]byte, 1+rng.Intn(400))
						rng.Read(body)
						if err := fs.replaceItem(k, body); err != nil {
							t.Fatalf("replace %v: %v", k, err)
						}
						oracle[k] = body
					}
				}
				if op%300 == 299 {
					checkpoint()
				}
			}
			checkpoint()
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTreeGrowsAndShrinks: mass insert forces splits and height growth;
// mass delete collapses the tree back down.
func TestTreeGrowsAndShrinks(t *testing.T) {
	fs := treeFS(t)
	body := bytes.Repeat([]byte("b"), 100)
	var keys []key
	for i := 0; i < 600; i++ {
		k := key{DirID: 5, ObjID: uint32(1000 + i), Offset: 0, Type: itemStat}
		if err := fs.insertItem(item{K: k, Body: body}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		keys = append(keys, k)
	}
	if fs.sb.Height < 2 {
		t.Fatalf("height %d after 600 inserts; expected splits", fs.sb.Height)
	}
	grown := fs.sb.Height
	for _, k := range keys {
		if err := fs.deleteItem(k); err != nil {
			t.Fatalf("delete %v: %v", k, err)
		}
	}
	if fs.sb.Height >= grown {
		t.Errorf("height %d did not shrink from %d after deleting everything", fs.sb.Height, grown)
	}
	// Free-space accounting must return to (close to) the starting point:
	// the tree may keep a root, nothing more.
	if _, err := fs.findItem(rootRef().statKey()); err != nil {
		t.Fatalf("root stat lost: %v", err)
	}
}

// TestKeyCmpProperties: the comparator is a strict total order consistent
// with field-lexicographic comparison.
func TestKeyCmpProperties(t *testing.T) {
	f := func(a1, b1 uint32, a2, b2 uint32, a3, b3 uint64, a4, b4 uint8) bool {
		x := key{a1, a2, a3, a4}
		y := key{b1, b2, b3, b4}
		cxy, cyx := x.cmp(y), y.cmp(x)
		if cxy != -cyx {
			return false
		}
		if (cxy == 0) != (x == y) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNodeMarshalRoundTrip: leaves and internal nodes survive the on-disk
// format, and the sanity checks accept what marshal produces.
func TestNodeMarshalRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := &node{Level: 1}
		used := map[key]bool{}
		for i := 0; i < rng.Intn(20); i++ {
			k := randomKey(rng)
			if used[k] {
				continue
			}
			used[k] = true
			body := make([]byte, rng.Intn(120))
			rng.Read(body)
			n.Items = append(n.Items, item{K: k, Body: body})
		}
		sort.Slice(n.Items, func(i, j int) bool { return n.Items[i].K.cmp(n.Items[j].K) < 0 })
		if leafSpace(n.Items) > BlockSize {
			return true // overfull by construction; not a valid node
		}
		out, err := unmarshalNode(marshalNode(n))
		if err != nil || out.Level != 1 || len(out.Items) != len(n.Items) {
			return false
		}
		for i := range n.Items {
			if out.Items[i].K != n.Items[i].K || !bytes.Equal(out.Items[i].Body, n.Items[i].Body) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	// Internal node round trip.
	in := &node{Level: 3, Keys: []key{{1, 2, 3, 4}, {5, 6, 7, 8}}, Children: []int64{10, 20, 30}}
	out, err := unmarshalNode(marshalNode(in))
	if err != nil || out.Level != 3 || len(out.Keys) != 2 || len(out.Children) != 3 {
		t.Fatalf("internal round trip: %+v %v", out, err)
	}
	if out.Children[1] != 20 {
		t.Fatal("children mangled")
	}
}

// TestNodeSanityRejectsGarbage: the block-header checks catch random noise
// with overwhelming probability and never panic.
func TestNodeSanityRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rejected := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		buf := make([]byte, BlockSize)
		rng.Read(buf)
		if _, err := unmarshalNode(buf); err != nil {
			rejected++
		}
	}
	if rejected < trials*95/100 {
		t.Fatalf("only %d/%d garbage blocks rejected", rejected, trials)
	}
}

func TestStatDataRoundTrip(t *testing.T) {
	f := func(mode, links uint16, uid, gid uint32, size uint64, a, m, c int64) bool {
		sd := statData{namei.TypedAttr{Attr: namei.Attr{Mode: mode, Links: links, UID: uid, GID: gid, Size: size, Atime: a, Mtime: m, Ctime: c}}}
		var out statData
		if err := out.unmarshal(sd.marshal()); err != nil {
			return false
		}
		return out == sd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	var sd statData
	if err := sd.unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("short stat body accepted")
	}
}

func TestDirEntCodec(t *testing.T) {
	var body []byte
	ents := []dirEnt{
		{Child: objRef{1, 2}, FType: 1, Name: "a"},
		{Child: objRef{3, 4}, FType: 2, Name: "long-name-with-dashes"},
	}
	for _, e := range ents {
		body = appendEnt(body, e)
	}
	got, ok := parseEnts(body)
	if !ok || len(got) != 2 || got[0].Name != "a" || got[1].Child.ObjID != 4 {
		t.Fatalf("parse = %+v ok=%v", got, ok)
	}
	// A truncated body is a format violation.
	if _, ok := parseEnts(body[:len(body)-3]); ok {
		t.Fatal("truncated entry body accepted")
	}
}
