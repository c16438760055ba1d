package reiser

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// ---------------------------------------------------------------------------
// Reference: a leaf edit as the mutators made it before they wrote the new
// image from the view — decode the whole leaf, edit the item list,
// marshalNode it, and on an insert that overflows split the list.
// ---------------------------------------------------------------------------

type opKind int

const (
	opInsert opKind = iota
	opReplace
	opDelete
)

// leafOp is one edit of a leaf's item list at position at: it is the
// inserted item, or the replacement body's item.
type leafOp struct {
	kind opKind
	at   int
	it   item
}

func (op leafOp) String() string {
	return fmt.Sprintf("%s at %d (%d-byte body)", [...]string{"insert", "replace", "delete"}[op.kind], op.at, len(op.it.Body))
}

// refLeafSplit is the split point search over a decoded item list.
func refLeafSplit(items []item) (int, bool) {
	mid := len(items) / 2
	for d := 0; d < len(items); d++ {
		for _, i := range [2]int{mid - d, mid + d} {
			if i > 0 && i < len(items) && refLeafSpace(items[:i]) <= BlockSize && refLeafSpace(items[i:]) <= BlockSize {
				return i, true
			}
		}
	}
	return 0, false
}

// refLeafEdit returns the leaf images the old path wrote for op on leaf
// block b: one, or an overflowing insert's two halves with whether the
// item is in them. It returns nil where the old path wrote no leaf image:
// a replace that overflows goes on as delete+insert through the tree, and
// an image that still overflowed made marshalNode panic.
func refLeafEdit(b []byte, op leafOp) (imgs [][]byte, placed bool) {
	n, err := refUnmarshalNode(b)
	if err != nil || !n.isLeaf() {
		panic("refLeafEdit on a block the reference rejects")
	}
	items := n.Items
	switch op.kind {
	case opInsert:
		items = slices.Insert(items, op.at, op.it)
	case opReplace:
		items[op.at].Body = op.it.Body
	case opDelete:
		items = slices.Delete(items, op.at, op.at+1)
	}
	if refLeafSpace(items) <= BlockSize {
		return [][]byte{refMarshalNode(&refNode{Level: 1, Items: items})}, true
	}
	if op.kind != opInsert {
		return nil, false
	}
	mid, fits := refLeafSplit(items)
	if !fits {
		items = slices.Delete(items, op.at, op.at+1)
		mid = op.at
	}
	if refLeafSpace(items[:mid]) > BlockSize || refLeafSpace(items[mid:]) > BlockSize {
		return nil, false
	}
	return [][]byte{
		refMarshalNode(&refNode{Level: 1, Items: items[:mid]}),
		refMarshalNode(&refNode{Level: 1, Items: items[mid:]}),
	}, fits
}

// leafEditImages is what the mutators write for op on the view v, in the
// order insertItem, replaceItem and deleteItem decide it.
func leafEditImages(v nodeView, op leafOp) (imgs [][]byte, placed bool) {
	var e leafEdit
	switch op.kind {
	case opInsert:
		e = leafEdit{v: v, at: op.at, put: true, ins: op.it}
	case opReplace:
		e = leafEdit{v: v, at: op.at, drop: 1, put: true, ins: op.it}
	case opDelete:
		e = leafEdit{v: v, at: op.at, drop: 1}
	}
	if img := e.image(0, e.count(), fresh{}); img != nil {
		return [][]byte{img}, true
	}
	if op.kind != opInsert {
		return nil, false
	}
	left, right, placed := e.split(fresh{})
	if left == nil {
		return nil, false
	}
	return [][]byte{left, right}, placed
}

// checkLeafEdit fails t unless op on leaf block b writes what the
// reference writes, byte for byte and with the same block types, and
// every image it writes passes checkNode. It returns how many images the
// edit wrote and whether the item went in.
func checkLeafEdit(t testing.TB, what string, b []byte, op leafOp) (int, bool) {
	t.Helper()
	v, err := checkNode(b)
	if err != nil || !v.isLeaf() {
		t.Fatalf("%s: not a sane leaf: %v", what, err)
	}
	snap := append([]byte{}, b...)
	want, wantPlaced := refLeafEdit(append([]byte{}, b...), op)
	got, gotPlaced := leafEditImages(v, op)
	if !bytes.Equal(b, snap) {
		t.Fatalf("%s, %v: the edit wrote through the source view", what, op)
	}
	if len(got) != len(want) || gotPlaced != wantPlaced {
		t.Fatalf("%s, %v: wrote %d images (placed %v), reference %d (placed %v)", what, op, len(got), gotPlaced, len(want), wantPlaced)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s, %v: image %d differs from the reference at byte %d", what, op, i, firstDiff(got[i], want[i]))
		}
		gv, err := checkNode(got[i])
		if err != nil {
			t.Fatalf("%s, %v: image %d fails checkNode: %v", what, op, i, err)
		}
		ref, _ := refUnmarshalNode(want[i])
		if gt, wt := leafType(gv), refLeafType(ref.Items); gt != wt {
			t.Fatalf("%s, %v: image %d block type %q, reference %q", what, op, i, gt, wt)
		}
	}
	return len(got), gotPlaced
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// ---------------------------------------------------------------------------
// Seeded leaves.
// ---------------------------------------------------------------------------

// editKey keys item i of a seeded leaf; an odd offset fits between any
// two of them.
func editKey(i int, typ uint8) key {
	return key{DirID: 5, ObjID: 7, Offset: uint64(2*i + 2), Type: typ}
}

type leafLayout int

const (
	canonical   leafLayout = iota // packed as marshalNode packs
	scattered                     // shuffled bodies, gaps, garbage, wrong free field
	overlapping                   // bodies anywhere past the node header, overlapping
)

// seededLeaf builds a sane leaf whose item i has a body of sizes[i]
// bytes. A canonical leaf is what marshalNode wrote; a scattered one
// places the bodies in shuffled order with gaps between them, fills the
// gaps, the free space and the header padding with garbage, and stores a
// random free-space field; an overlapping one (corrupt but sane) lets
// bodies overlap each other and the item headers, so its items may not
// fit one block.
func seededLeaf(rng *rand.Rand, sizes []int, layout leafLayout) []byte {
	items := make([]item, len(sizes))
	for i, n := range sizes {
		body := make([]byte, n)
		rng.Read(body)
		items[i] = item{K: editKey(i, uint8(1+rng.Intn(4))), Body: body}
	}
	if layout == canonical {
		return refMarshalNode(&refNode{Level: 1, Items: items})
	}
	b := make([]byte, BlockSize)
	rng.Read(b)
	le := binary.LittleEndian
	le.PutUint16(b[0:], 1)
	le.PutUint16(b[2:], uint16(len(items)))
	le.PutUint16(b[4:], uint16(rng.Intn(BlockSize+1)))
	hdrEnd := nodeHdrLen + len(items)*itemHdrLen
	slack := BlockSize - refLeafSpace(items)
	pos := hdrEnd
	locs := make([]int, len(items))
	for _, i := range rng.Perm(len(items)) {
		blen := len(items[i].Body)
		locs[i] = nodeHdrLen + rng.Intn(BlockSize-nodeHdrLen-blen+1)
		if layout == scattered {
			gap := rng.Intn(slack + 1)
			slack -= gap
			locs[i], pos = pos+gap, pos+gap+blen
		}
		copy(b[locs[i]:], items[i].Body)
	}
	// The headers go in last: an overlapping body must not overwrite one.
	for i, it := range items {
		h := nodeHdrLen + i*itemHdrLen
		marshalKey(b[h:], it.K)
		le.PutUint16(b[h+20:], uint16(len(it.Body)))
		le.PutUint16(b[h+22:], uint16(locs[i]))
	}
	return b
}

// randomSizes draws body sizes for a leaf that is, by its header lengths,
// anything from sparse to full.
func randomSizes(rng *rand.Rand) []int {
	n := 1 + rng.Intn(40)
	sizes := make([]int, n)
	room := BlockSize - nodeHdrLen - n*itemHdrLen
	for i := range sizes {
		sizes[i] = min(rng.Intn(2*room/n+1), room)
		room -= sizes[i]
	}
	return sizes
}

// fill returns n bytes of c.
func fill(n int, c byte) []byte { return bytes.Repeat([]byte{c}, n) }

// TestLeafEditMatchesMarshal: on seeded leaves — packed as marshalNode
// packs them, scattered with garbage between the bodies, and corrupt but
// sane with overlapping bodies — every leaf edit writes the image decode +
// edit + marshalNode wrote, byte for byte and with the same block type:
// an insert at every position, small and large enough to split; a replace
// of the first, middle and last item with a shorter, equal and longer
// body; a delete of the first, middle and last item; and both halves of a
// split, including the split when no two halves fit.
func TestLeafEditMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1eaf))
	var splits, unplaced, refused int
	tally := func(n int, placed bool) {
		switch {
		case n == 0:
			refused++
		case n == 2 && placed:
			splits++
		case n == 2:
			unplaced++
		}
	}
	leaves := [][]byte{}
	for round := 0; round < 60; round++ {
		for _, layout := range []leafLayout{canonical, scattered, overlapping} {
			leaves = append(leaves, seededLeaf(rng, randomSizes(rng), layout))
		}
	}
	// Two 2 000-byte tails: a full-size tail between them leaves no split
	// at which both halves fit.
	for _, layout := range []leafLayout{canonical, scattered} {
		leaves = append(leaves, seededLeaf(rng, []int{2000, 2000}, layout))
	}
	// Overlapping bodies whose lengths add up past the block: no edit
	// but a fitting split can rewrite them.
	for _, sizes := range [][]int{{2000, 2000, 2000}, {1500, 1500, 1500, 1500}, {3000, 10, 3000}} {
		leaves = append(leaves, seededLeaf(rng, sizes, overlapping))
	}
	for li, b := range leaves {
		v, err := checkNode(b)
		if err != nil {
			t.Fatalf("leaf %d: seeded leaf fails checkNode: %v", li, err)
		}
		n := v.count()
		what := fmt.Sprintf("leaf %d (%d items)", li, n)
		for at := 0; at <= n; at++ {
			for _, size := range []int{10, 700, tailMax} {
				it := item{K: key{DirID: 5, ObjID: 7, Offset: uint64(2*at + 1), Type: itemDirect}, Body: fill(size, 'i')}
				tally(checkLeafEdit(t, what, b, leafOp{opInsert, at, it}))
			}
		}
		for _, at := range []int{0, n / 2, n - 1} {
			old := len(v.body(at))
			for _, size := range []int{max(old-1, 0), old, old + 1, old + 900} {
				tally(checkLeafEdit(t, what, b, leafOp{opReplace, at, item{K: v.key(at), Body: fill(size, 'r')}}))
			}
			tally(checkLeafEdit(t, what, b, leafOp{kind: opDelete, at: at}))
		}
	}
	t.Logf("%d leaves: %d splits, %d splits with no two halves fitting, %d edits refused", len(leaves), splits, unplaced, refused)
	if splits == 0 || unplaced == 0 || refused == 0 {
		t.Errorf("a case tests nothing: %d splits, %d unplaced splits, %d refusals", splits, unplaced, refused)
	}
}

// TestTreeEditAllocs pins the cost of a leaf edit: an insert, replace or
// delete that does not split allocates one block image — the new leaf —
// and nothing else, through a tree of height 2 or more: the descent
// reads the cached nodes in place on a stack path.
func TestTreeEditAllocs(t *testing.T) {
	fs := treeFS(t)
	// One object throughout, so the running transaction has already
	// touched it.
	k := func(i int) key { return key{DirID: 2, ObjID: 100, Offset: uint64(i), Type: itemDirect} }
	body := fill(64, 'b')
	for i := 0; i < 400; i++ {
		if err := fs.insertItem(item{K: k(i), Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	if fs.sb.Height < 2 {
		t.Fatalf("height %d: the descent crosses no internal node", fs.sb.Height)
	}
	probe := k(200)
	// The probe's leaf keeps room for it, and is staged already.
	if err := fs.deleteItem(probe); err != nil {
		t.Fatal(err)
	}
	allocs := func(f func() error) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	other := fill(64, 'o')
	for round := 0; round < 20; round++ {
		for _, c := range []struct {
			name string
			do   func() error
		}{
			{"insert", func() error { return fs.insertItem(item{K: probe, Body: body}) }},
			{"replace", func() error { return fs.replaceItem(probe, other) }},
			{"delete", func() error { return fs.deleteItem(probe) }},
		} {
			if n := allocs(c.do); n != 1 {
				t.Fatalf("round %d: %s allocated %d times, want 1 (the new leaf image)", round, c.name, n)
			}
		}
	}
}

// FuzzLeafEdit: for any block checkNode accepts as a leaf, an insert at
// every position a key fits, and a replace and a delete of item at, write
// what the reference writes and images that pass checkNode; no input
// panics. The seeds in testdata/fuzz/FuzzLeafEdit include the leaf of
// TestLeafSplitByBytes's tails, a scattered leaf and an overlapping one.
func FuzzLeafEdit(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, at, blen uint16) {
		b := make([]byte, BlockSize)
		copy(b, data)
		v, err := checkNode(b)
		if err != nil || !v.isLeaf() {
			return
		}
		n := v.count()
		body := fill(int(blen)%(tailMax+1), 'f')
		for p := 0; p <= n; p++ {
			if k, ok := keyBetween(v, p); ok {
				checkLeafEdit(t, "fuzz leaf", b, leafOp{opInsert, p, item{K: k, Body: body}})
			}
		}
		if n > 0 {
			i := int(at) % n
			checkLeafEdit(t, "fuzz leaf", b, leafOp{opReplace, i, item{K: v.key(i), Body: body}})
			checkLeafEdit(t, "fuzz leaf", b, leafOp{kind: opDelete, at: i})
		}
	})
}

// keyBetween returns a key that sorts strictly between items p-1 and p of
// v, if there is one.
func keyBetween(v nodeView, p int) (key, bool) {
	var k key
	if p > 0 {
		k = v.key(p - 1)
		switch {
		case k.Type < 0xFF:
			k.Type++
		case k.Offset < ^uint64(0):
			k.Offset, k.Type = k.Offset+1, 0
		default:
			return key{}, false
		}
	}
	return k, p == v.count() || k.cmp(v.key(p)) < 0
}
