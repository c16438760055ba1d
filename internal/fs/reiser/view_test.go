package reiser

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// ---------------------------------------------------------------------------
// References: the codec, and the lookup path built on it, as they stood
// before lookups read the cached block in place and leaf edits were
// written from it. The production code must give the same answers and
// images, the same recorder events in the same order and the same health
// transitions.
// ---------------------------------------------------------------------------

// refNode is a fully decoded node: a leaf's items, or an internal node's
// separators and children.
type refNode struct {
	Level    int
	Items    []item
	Keys     []key
	Children []int64
}

func (n *refNode) isLeaf() bool { return n.Level == 1 }

// refLeafSpace returns the bytes an item list occupies in a leaf.
func refLeafSpace(items []item) int {
	s := nodeHdrLen
	for _, it := range items {
		s += itemHdrLen + len(it.Body)
	}
	return s
}

// refMarshalNode serializes a node as marshalNode did when it wrote leaves
// too: item headers after the node header, bodies packed downward from the
// block end.
func refMarshalNode(n *refNode) []byte {
	if !n.isLeaf() {
		return marshalNode(&node{Level: n.Level, Keys: n.Keys, Children: n.Children}, fresh{})
	}
	b := make([]byte, BlockSize)
	le := binary.LittleEndian
	le.PutUint16(b[0:], uint16(n.Level))
	le.PutUint16(b[2:], uint16(len(n.Items)))
	end := BlockSize
	off := nodeHdrLen
	for _, it := range n.Items {
		end -= len(it.Body)
		marshalKey(b[off:], it.K)
		le.PutUint16(b[off+20:], uint16(len(it.Body)))
		le.PutUint16(b[off+22:], uint16(end))
		copy(b[end:], it.Body)
		off += itemHdrLen
	}
	le.PutUint16(b[4:], uint16(end-off)) // free space
	return b
}

// refLeafType classifies a decoded leaf as the mutators did.
func refLeafType(items []item) iron.BlockType {
	hasStat, hasInd := false, false
	for _, it := range items {
		switch it.K.Type {
		case itemDir:
			return BTDirItem
		case itemIndirect:
			hasInd = true
		case itemStat:
			hasStat = true
		}
	}
	if hasInd {
		return BTIndirect
	}
	if hasStat {
		return BTStat
	}
	return BTData
}

func refUnmarshalNode(b []byte) (*refNode, error) {
	le := binary.LittleEndian
	level := int(le.Uint16(b[0:]))
	count := int(le.Uint16(b[2:]))
	free := int(le.Uint16(b[4:]))
	if level < 1 || level > MaxLevel {
		return nil, fmt.Errorf("block header level %d invalid", level)
	}
	if count < 0 || nodeHdrLen+count*itemHdrLen > BlockSize {
		return nil, fmt.Errorf("block header item count %d invalid", count)
	}
	if free > BlockSize {
		return nil, fmt.Errorf("block header free space %d invalid", free)
	}
	n := &refNode{Level: level}
	if level == 1 {
		off := nodeHdrLen
		for i := 0; i < count; i++ {
			k := unmarshalKey(b[off:])
			blen := int(le.Uint16(b[off+20:]))
			loc := int(le.Uint16(b[off+22:]))
			if loc < nodeHdrLen || loc+blen > BlockSize {
				return nil, fmt.Errorf("item %d location %d+%d out of bounds", i, loc, blen)
			}
			body := make([]byte, blen)
			copy(body, b[loc:loc+blen])
			n.Items = append(n.Items, item{K: k, Body: body})
			off += itemHdrLen
		}
		for i := 1; i < len(n.Items); i++ {
			if n.Items[i-1].K.cmp(n.Items[i].K) >= 0 {
				return nil, fmt.Errorf("leaf keys out of order at %d", i)
			}
		}
		return n, nil
	}
	off := nodeHdrLen
	if nodeHdrLen+count*itemHdrLen+(count+1)*8 > BlockSize {
		return nil, fmt.Errorf("internal node overflows block")
	}
	for i := 0; i < count; i++ {
		n.Keys = append(n.Keys, unmarshalKey(b[off:]))
		off += itemHdrLen
	}
	for i := 0; i <= count; i++ {
		n.Children = append(n.Children, int64(le.Uint64(b[off:])))
		off += 8
	}
	return n, nil
}

func refParseEnts(body []byte) ([]dirEnt, bool) {
	var out []dirEnt
	off := 0
	for off < len(body) {
		if off+dirEntHdr > len(body) {
			return out, false
		}
		nameLen := int(body[off+9])
		if off+dirEntHdr+nameLen > len(body) || nameLen == 0 {
			return out, false
		}
		out = append(out, dirEnt{
			Child: objRef{
				DirID: binary.LittleEndian.Uint32(body[off:]),
				ObjID: binary.LittleEndian.Uint32(body[off+4:]),
			},
			FType: body[off+8],
			Name:  string(body[off+dirEntHdr : off+dirEntHdr+nameLen]),
		})
		off += dirEntHdr + nameLen
	}
	return out, true
}

// lookuper is the part of the tree engine a path resolution uses.
type lookuper interface {
	findItem(k key) (item, error)
	dirLookup(r objRef, name string) (dirEnt, error)
}

// refFS is the pre-view lookup path over an FS's cache, recorder and health.
type refFS struct{ *FS }

func (fs refFS) readNode(blk int64, bt iron.BlockType) (*refNode, error) {
	buf, err := fs.readMetaBlock(blk, bt)
	if err != nil {
		return nil, err
	}
	n, perr := refUnmarshalNode(buf)
	if perr != nil {
		fs.rec.Detect(iron.DSanity, bt, perr.Error())
		fs.panicFS(bt, "sanity check failed: "+perr.Error())
		return nil, vfs.ErrPanicked
	}
	return n, nil
}

func (fs refFS) findItem(k key) (item, error) {
	if fs.sb.Root == 0 {
		return item{}, vfs.ErrNotExist
	}
	blk := int64(fs.sb.Root)
	for depth := 0; ; depth++ {
		if depth > MaxLevel {
			fs.rec.Detect(iron.DSanity, BTInternal, "tree deeper than maximum height")
			fs.panicFS(BTInternal, "tree too deep")
			return item{}, vfs.ErrPanicked
		}
		bt := BTInternal
		if blk == int64(fs.sb.Root) {
			bt = BTRoot
		}
		n, err := fs.readNode(blk, bt)
		if err != nil {
			return item{}, err
		}
		if n.isLeaf() {
			for _, it := range n.Items {
				if it.K == k {
					return it, nil
				}
			}
			return item{}, vfs.ErrNotExist
		}
		ci := 0
		for ci < len(n.Keys) && n.Keys[ci].cmp(k) <= 0 {
			ci++
		}
		blk = n.Children[ci]
		if blk <= 0 || blk >= int64(fs.sb.BlockCount) {
			fs.rec.Detect(iron.DSanity, bt, "child pointer out of range")
			fs.panicFS(bt, "wild child pointer")
			return item{}, vfs.ErrPanicked
		}
	}
}

func (fs refFS) rangeWalk(blk int64, lo, hi key, fn func(item) error) error {
	bt := BTInternal
	if blk == int64(fs.sb.Root) {
		bt = BTRoot
	}
	n, err := fs.readNode(blk, bt)
	if err != nil {
		return err
	}
	if n.isLeaf() {
		for _, it := range n.Items {
			if it.K.cmp(lo) < 0 {
				continue
			}
			if it.K.cmp(hi) > 0 {
				break
			}
			if err := fn(it); err != nil {
				return err
			}
		}
		return nil
	}
	for i, c := range n.Children {
		if i > 0 && n.Keys[i-1].cmp(hi) > 0 {
			break
		}
		if i < len(n.Keys) && n.Keys[i].cmp(lo) < 0 {
			continue
		}
		if c <= 0 || c >= int64(fs.sb.BlockCount) {
			fs.rec.Detect(iron.DSanity, bt, "child pointer out of range")
			fs.panicFS(bt, "wild child pointer")
			return vfs.ErrPanicked
		}
		if err := fs.rangeWalk(c, lo, hi, fn); err != nil {
			return err
		}
	}
	return nil
}

func (fs refFS) dirLookup(r objRef, name string) (dirEnt, error) {
	var items []item
	if fs.sb.Root != 0 {
		err := fs.rangeWalk(int64(fs.sb.Root), r.dirKey(1), r.dirKey(math.MaxUint64), func(it item) error {
			if it.K.Type == itemDir {
				items = append(items, it)
			}
			return nil
		})
		if err != nil {
			return dirEnt{}, err
		}
	}
	var ents []dirEnt
	for _, it := range items {
		es, ok := refParseEnts(it.Body)
		if !ok {
			fs.rec.Detect(iron.DSanity, BTDirItem, "directory item format violation")
			fs.panicFS(BTDirItem, "directory item corrupt")
			return dirEnt{}, vfs.ErrPanicked
		}
		ents = append(ents, es...)
	}
	for _, e := range ents {
		if e.Name == name {
			return e, nil
		}
	}
	return dirEnt{}, vfs.ErrNotExist
}

// ---------------------------------------------------------------------------
// Block level: checkNode + the view accessors against refUnmarshalNode.
// ---------------------------------------------------------------------------

// randomNode builds a valid node: a leaf with random items, or an internal
// node with random separators.
func randomNode(rng *rand.Rand) *refNode {
	if rng.Intn(3) == 0 {
		n := &refNode{Level: 2 + rng.Intn(MaxLevel-1)}
		for i := rng.Intn(60); i >= 0; i-- {
			n.Keys = append(n.Keys, randomKey(rng))
		}
		for i := 0; i <= len(n.Keys); i++ {
			n.Children = append(n.Children, rng.Int63n(8192))
		}
		return n
	}
	used := map[key]bool{}
	n := &refNode{Level: 1}
	for i := rng.Intn(24); i > 0; i-- {
		k := randomKey(rng)
		if used[k] {
			continue
		}
		used[k] = true
		body := make([]byte, rng.Intn(100))
		rng.Read(body)
		n.Items = append(n.Items, item{K: k, Body: body})
	}
	sort.Slice(n.Items, func(i, j int) bool { return n.Items[i].K.cmp(n.Items[j].K) < 0 })
	return n
}

// nodeCorruptions each break one rule the block-header sanity check states.
var nodeCorruptions = []struct {
	name string
	do   func(rng *rand.Rand, b []byte)
}{
	{"intact", func(*rand.Rand, []byte) {}},
	{"level zero", func(_ *rand.Rand, b []byte) { binary.LittleEndian.PutUint16(b[0:], 0) }},
	{"level too high", func(_ *rand.Rand, b []byte) { binary.LittleEndian.PutUint16(b[0:], MaxLevel+1) }},
	{"item count", func(_ *rand.Rand, b []byte) { binary.LittleEndian.PutUint16(b[2:], 4000) }},
	{"free space", func(_ *rand.Rand, b []byte) { binary.LittleEndian.PutUint16(b[4:], BlockSize+1) }},
	{"item location below header", func(rng *rand.Rand, b []byte) {
		if i := randomItem(rng, b); i >= 0 {
			binary.LittleEndian.PutUint16(b[nodeHdrLen+i*itemHdrLen+22:], uint16(rng.Intn(nodeHdrLen)))
		}
	}},
	{"item loc+len past block", func(rng *rand.Rand, b []byte) {
		if i := randomItem(rng, b); i >= 0 {
			binary.LittleEndian.PutUint16(b[nodeHdrLen+i*itemHdrLen+20:], BlockSize)
		}
	}},
	{"keys out of order", func(rng *rand.Rand, b []byte) {
		if i := randomItem(rng, b); i > 0 {
			h := nodeHdrLen + i*itemHdrLen
			var k [keyLen]byte
			copy(k[:], b[h:])
			copy(b[h:h+keyLen], b[h-itemHdrLen:])
			copy(b[h-itemHdrLen:], k[:])
		}
	}},
	{"duplicate key", func(rng *rand.Rand, b []byte) {
		if i := randomItem(rng, b); i > 0 {
			h := nodeHdrLen + i*itemHdrLen
			copy(b[h:h+keyLen], b[h-itemHdrLen:])
		}
	}},
	{"internal overflow", func(_ *rand.Rand, b []byte) {
		// 102 separators fit the block; their 103 children do not.
		binary.LittleEndian.PutUint16(b[0:], 2)
		binary.LittleEndian.PutUint16(b[2:], 102)
	}},
	{"garbage", func(rng *rand.Rand, b []byte) { rng.Read(b) }},
}

// randomItem picks an item index of a leaf block (-1: not a leaf or empty).
func randomItem(rng *rand.Rand, b []byte) int {
	count := int(binary.LittleEndian.Uint16(b[2:]))
	if binary.LittleEndian.Uint16(b[0:]) != 1 || count == 0 {
		return -1
	}
	return rng.Intn(count)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestNodeViewMatchesReference: on seeded random nodes, intact and with
// each rule broken in turn, the in-place validator accepts exactly what the
// reference decoder accepts and reports the same violation; on an accepted
// block every accessor and an internal node's decode agree with the
// reference, and every body a view hands out is cap-limited.
func TestNodeViewMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x15))
	rejected := map[string]int{}
	for round := 0; round < 400; round++ {
		pristine := refMarshalNode(randomNode(rng))
		for _, c := range nodeCorruptions {
			b := append([]byte{}, pristine...)
			c.do(rng, b)
			want, werr := refUnmarshalNode(b)
			v, verr := checkNode(b)
			if errText(werr) != errText(verr) {
				t.Fatalf("round %d %s: checkNode error %q, reference %q", round, c.name, errText(verr), errText(werr))
			}
			if werr != nil {
				rejected[c.name]++
				continue
			}
			if v.level() != want.Level || v.isLeaf() != want.isLeaf() || v.count() != len(want.Items)+len(want.Keys) {
				t.Fatalf("round %d %s: view level %d count %d, reference %d with %d items %d keys",
					round, c.name, v.level(), v.count(), want.Level, len(want.Items), len(want.Keys))
			}
			for i, it := range want.Items {
				body := v.body(i)
				if v.key(i) != it.K || !bytes.Equal(body, it.Body) {
					t.Fatalf("round %d %s: item %d differs", round, c.name, i)
				}
				if cap(body) != len(body) {
					t.Fatalf("round %d %s: item %d body has len %d cap %d: an append would scribble into the block",
						round, c.name, i, len(body), cap(body))
				}
			}
			if want.isLeaf() {
				continue
			}
			got := v.decode()
			if got.Level != want.Level || len(got.Keys) != len(want.Keys) || len(got.Children) != len(want.Children) {
				t.Fatalf("round %d %s: decode shape differs", round, c.name)
			}
			for i, k := range want.Keys {
				if v.key(i) != k || got.Keys[i] != k {
					t.Fatalf("round %d %s: separator %d differs", round, c.name, i)
				}
			}
			for i, c := range want.Children {
				if v.child(i) != c || got.Children[i] != c {
					t.Fatalf("round %d: child %d differs", round, i)
				}
			}
		}
	}
	for _, c := range nodeCorruptions[1:] {
		if rejected[c.name] == 0 {
			t.Errorf("corruption %q was never rejected: the case tests nothing", c.name)
		}
	}
}

// ---------------------------------------------------------------------------
// File-system level: the same lookups, production against reference, on two
// mounts of one damaged image.
// ---------------------------------------------------------------------------

// lookupImage builds a tree of height >= 2 holding /dir with enough entries
// for several directory items, and returns the cleanly unmounted image with
// the names /dir holds in creation order.
func lookupImage(t *testing.T) ([]byte, []string) {
	t.Helper()
	fs, d := newTestFS(t)
	if err := fs.Mkdir("/dir", 0o755); err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := 0; i < 150; i++ {
		name := fmt.Sprintf("entry-with-a-long-name-%04d", i)
		if err := fs.Create("/dir/"+name, 0o644); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	return d.Snapshot(), names
}

// imageMap locates what the corruptions aim at, by walking the image with
// the reference decoder.
type imageMap struct {
	root     int64
	internal []int64 // internal nodes, root first
	leaves   []int64
	dirItems []dirItemAt // /dir's directory items in key order
}

type dirItemAt struct {
	blk int64
	idx int
}

func mapImage(t *testing.T, d *disk.Disk, dir objRef) imageMap {
	t.Helper()
	buf := make([]byte, BlockSize)
	if err := d.ReadBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	var sb superblock
	sb.unmarshal(buf)
	m := imageMap{root: int64(sb.Root)}
	var walk func(blk int64)
	walk = func(blk int64) {
		b := make([]byte, BlockSize)
		if err := d.ReadBlock(blk, b); err != nil {
			t.Fatal(err)
		}
		n, err := refUnmarshalNode(b)
		if err != nil {
			t.Fatalf("block %d of the pristine image: %v", blk, err)
		}
		if !n.isLeaf() {
			m.internal = append(m.internal, blk)
			for _, c := range n.Children {
				walk(c)
			}
			return
		}
		m.leaves = append(m.leaves, blk)
		for i, it := range n.Items {
			if it.K.DirID == dir.DirID && it.K.ObjID == dir.ObjID && it.K.Type == itemDir {
				m.dirItems = append(m.dirItems, dirItemAt{blk, i})
			}
		}
	}
	walk(m.root)
	return m
}

// poke rewrites one block of the raw image.
func poke(t *testing.T, d *disk.Disk, blk int64, edit func(b []byte)) {
	t.Helper()
	b := make([]byte, BlockSize)
	if err := d.ReadBlock(blk, b); err != nil {
		t.Fatal(err)
	}
	edit(b)
	if err := d.WriteBlock(blk, b); err != nil {
		t.Fatal(err)
	}
}

// pokeDirItem rewrites the body of one of /dir's items, keeping its length.
func pokeDirItem(t *testing.T, d *disk.Disk, at dirItemAt, edit func(body []byte)) {
	poke(t, d, at.blk, func(b []byte) {
		h := b[nodeHdrLen+at.idx*itemHdrLen:]
		blen, loc := int(binary.LittleEndian.Uint16(h[20:])), int(binary.LittleEndian.Uint16(h[22:]))
		edit(b[loc : loc+blen])
	})
}

// lastEntOff returns the offset of a directory item body's last record.
func lastEntOff(body []byte) int {
	off := 0
	for next := 0; next < len(body); next += dirEntHdr + int(body[next+9]) {
		off = next
	}
	return off
}

// outcome is everything a lookup sequence leaves behind that a caller, a
// fingerprint or an operator can see.
type outcome struct {
	steps  []string
	events []iron.Event
	health vfs.HealthState
	log    []vfs.Transition
}

// resolveAll resolves each name of /dir in turn through l — the directory
// lookup, then the child's stat item — and reports what happened.
func resolveAll(fs *FS, l lookuper, names []string) outcome {
	var o outcome
	step := func(format string, args ...interface{}) { o.steps = append(o.steps, fmt.Sprintf(format, args...)) }
	dir, err := l.dirLookup(rootRef(), "dir")
	step("dir: %+v %v", dir, err)
	for _, name := range names {
		if err != nil {
			break
		}
		var ent dirEnt
		ent, err = l.dirLookup(dir.Child, name)
		step("%s: %+v %v", name, ent, err)
		if err != nil {
			if err == vfs.ErrNotExist {
				err = nil
			}
			continue
		}
		var it item
		it, err = l.findItem(ent.Child.statKey())
		step("stat %s: %v %x %v", name, it.K, it.Body, err)
	}
	o.events, o.health, o.log = fs.rec.Events(), fs.Health(), fs.HealthTransitions()
	return o
}

// TestLookupMatchesReference damages one image in every way the lookup
// path checks for — and mounts it twice: the production lookups on one
// mount and the reference lookups on the other must return the same
// results, record the same detect/recover events in the same order and
// leave the same health state and transition log.
func TestLookupMatchesReference(t *testing.T) {
	img, names := lookupImage(t)
	probe := []string{names[0], names[len(names)/2], names[len(names)-1], "no-such-name"}

	load := func() *disk.Disk {
		d, err := disk.New(8192, disk.DefaultGeometry(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Restore(img); err != nil {
			t.Fatal(err)
		}
		return d
	}
	scratch := New(load(), nil)
	if err := scratch.Mount(); err != nil {
		t.Fatal(err)
	}
	dirEnt, err := scratch.dirLookup(rootRef(), "dir")
	if err != nil {
		t.Fatal(err)
	}
	m := mapImage(t, load(), dirEnt.Child)
	if len(m.internal) == 0 || len(m.dirItems) < 3 {
		t.Fatalf("image too small to aim at: %d internal nodes, %d directory items", len(m.internal), len(m.dirItems))
	}
	firstItem, lastItem := m.dirItems[0], m.dirItems[len(m.dirItems)-1]
	hdr := func(off int, v uint16) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint16(b[off:], v) }
	}

	cases := []struct {
		name string
		// wantPanic: the damage lies on the probes' path, so both sides
		// must end Panicked (a case that stays Healthy tests nothing).
		wantPanic bool
		damage    func(d *disk.Disk)
	}{
		{"intact", false, func(*disk.Disk) {}},
		{"root level", true, func(d *disk.Disk) { poke(t, d, m.root, hdr(0, 0)) }},
		{"leaf level", true, func(d *disk.Disk) { poke(t, d, firstItem.blk, hdr(0, MaxLevel+1)) }},
		{"leaf count", true, func(d *disk.Disk) { poke(t, d, firstItem.blk, hdr(2, 4000)) }},
		{"leaf free space", true, func(d *disk.Disk) { poke(t, d, firstItem.blk, hdr(4, BlockSize+1)) }},
		{"item loc+len out of bounds", true, func(d *disk.Disk) {
			poke(t, d, lastItem.blk, hdr(nodeHdrLen+lastItem.idx*itemHdrLen+20, BlockSize))
		}},
		{"leaf keys out of order", true, func(d *disk.Disk) {
			poke(t, d, lastItem.blk, func(b []byte) {
				// Swap the keys of the leaf's last two items: the damage sits
				// past whatever item a binary search for the probes compares.
				h := nodeHdrLen + (int(binary.LittleEndian.Uint16(b[2:]))-1)*itemHdrLen
				var k [keyLen]byte
				copy(k[:], b[h:])
				copy(b[h:h+keyLen], b[h-itemHdrLen:])
				copy(b[h-itemHdrLen:], k[:])
			})
		}},
		{"internal overflow", true, func(d *disk.Disk) { poke(t, d, m.root, hdr(2, 102)) }},
		{"wild child pointer", true, func(d *disk.Disk) {
			poke(t, d, m.root, func(b []byte) {
				count := int(binary.LittleEndian.Uint16(b[2:]))
				for i := 0; i <= count; i++ {
					binary.LittleEndian.PutUint64(b[nodeHdrLen+count*itemHdrLen+i*8:], 1<<40)
				}
			})
		}},
		{"zero child pointer", true, func(d *disk.Disk) {
			poke(t, d, m.root, func(b []byte) {
				count := int(binary.LittleEndian.Uint16(b[2:]))
				binary.LittleEndian.PutUint64(b[nodeHdrLen+count*itemHdrLen+count*8:], 0)
			})
		}},
		{"truncated record in the first directory item", true, func(d *disk.Disk) {
			pokeDirItem(t, d, firstItem, func(body []byte) { body[lastEntOff(body)+9]++ })
		}},
		{"zero-length record in the first directory item", true, func(d *disk.Disk) {
			pokeDirItem(t, d, firstItem, func(body []byte) { body[9] = 0 })
		}},
		{"bad directory item after the one holding the name", true, func(d *disk.Disk) {
			pokeDirItem(t, d, lastItem, func(body []byte) { body[lastEntOff(body)+9] = 0xFF })
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got [2]outcome
			for side := range got {
				d := load()
				c.damage(d)
				fs := New(d, iron.NewRecorder())
				if err := fs.Mount(); err != nil {
					t.Fatal(err)
				}
				var l lookuper = fs
				if side == 1 {
					l = refFS{fs}
				}
				got[side] = resolveAll(fs, l, probe)
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("production and reference disagree:\nproduction %+v\nreference  %+v", got[0], got[1])
			}
			if panicked := got[1].health == vfs.Panicked; panicked != c.wantPanic {
				t.Errorf("reference health %v, want panic %v: the damage missed the probes' path", got[1].health, c.wantPanic)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Aliasing: a lookup hands out views of live cache buffers; the mutators
// that follow must leave those buffers exactly as they were.
// ---------------------------------------------------------------------------

// cachedBlock is a live cache buffer beside a copy of what it held.
type cachedBlock struct{ live, snap []byte }

// cachedTree snapshots every tree block resident in the cache.
func cachedTree(fs *FS) map[int64]cachedBlock {
	out := map[int64]cachedBlock{}
	var walk func(blk int64)
	walk = func(blk int64) {
		live := fs.cache.Get(blk)
		if live == nil {
			return
		}
		out[blk] = cachedBlock{live, append([]byte{}, live...)}
		if v, err := checkNode(live); err == nil && !v.isLeaf() {
			for i := 0; i <= v.count(); i++ {
				walk(v.child(i))
			}
		}
	}
	if fs.sb.Root != 0 {
		walk(int64(fs.sb.Root))
	}
	return out
}

// TestViewsSurviveMutators: after lookups have handed out views, DirAddLocked
// (which appends to a looked-up body), replaceItem and blockPtr(alloc) stage
// fresh blocks and never write through a view — every buffer the cache held
// before the mutation still holds the bytes it held then.
func TestViewsSurviveMutators(t *testing.T) {
	fs, _ := newTestFS(t)
	if err := fs.Mkdir("/dir", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := fs.Create(fmt.Sprintf("/dir/f%03d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Write("/dir/f000", 0, make([]byte, 3*BlockSize)); err != nil {
		t.Fatal(err)
	}
	dir, err := fs.dirLookup(rootRef(), "dir")
	if err != nil {
		t.Fatal(err)
	}
	file, err := fs.dirLookup(dir.Child, "f000")
	if err != nil {
		t.Fatal(err)
	}

	mutators := []struct {
		name string
		do   func() error
	}{
		{"dirAddEntry", func() error {
			_, err := fs.DirAddLocked(dir.Child, statData{}, "added", objRef{DirID: dir.Child.ObjID, ObjID: 9999}, 1)
			return err
		}},
		{"replaceItem", func() error {
			it, err := fs.findItem(file.Child.statKey())
			if err != nil {
				return err
			}
			body := append([]byte{}, it.Body...)
			body[0] ^= 0xFF
			return fs.replaceItem(it.K, body)
		}},
		{"blockPtr alloc", func() error {
			_, _, err := fs.blockPtr(file.Child, 7, true)
			return err
		}},
	}
	for _, m := range mutators {
		t.Run(m.name, func(t *testing.T) {
			// The lookups a mutator's caller makes first: their views are
			// what the mutation must not write through.
			items, err := fs.dirItems(dir.Child)
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range items {
				if cap(it.Body) != len(it.Body) {
					t.Fatalf("directory item %v: body len %d cap %d", it.K, len(it.Body), cap(it.Body))
				}
			}
			if it, err := fs.findItem(file.Child.indirectKey(0)); err != nil || cap(it.Body) != len(it.Body) {
				t.Fatalf("indirect item: len %d cap %d err %v", len(it.Body), cap(it.Body), err)
			}
			before := cachedTree(fs)
			if err := m.do(); err != nil {
				t.Fatal(err)
			}
			for blk, b := range before {
				if !bytes.Equal(b.live, b.snap) {
					t.Errorf("block %d: the buffer cached before %s was written through", blk, m.name)
				}
			}
		})
	}
}

// TestReplacedImagesOutliveTheOperation: a leaf edit retires the buffer its
// new image replaces, and the retired buffer becomes a frame only at the
// next freeze. So one operation that edits the same leaf twice — a
// replaceItem that no longer fits and falls back to delete plus an insert
// that splits — writes its later images into other blocks, and every
// buffer cached before it holds the bytes it held then.
func TestReplacedImagesOutliveTheOperation(t *testing.T) {
	fs := treeFS(t)
	k := func(i int) key { return key{DirID: 2, ObjID: 100, Offset: uint64(i), Type: itemDirect} }
	for i := 0; i < 200; i++ {
		if err := fs.insertItem(item{K: k(i), Body: fill(64, 'b')}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil { // frames circulate from here on
		t.Fatal(err)
	}
	var buf [MaxLevel + 1]pathElem
	path, found, err := fs.search(k(100), buf[:0])
	if err != nil || !found {
		t.Fatalf("search: found %v, %v", found, err)
	}
	leaf := path[len(path)-1].v
	big := fill(BlockSize/2+256, 'r')
	if e := (leafEdit{v: leaf, at: path[len(path)-1].idx, drop: 1, put: true, ins: item{K: k(100), Body: big}}); e.space(0, e.count()) <= BlockSize {
		t.Fatal("the replacement fits its leaf: no fallback to delete and insert")
	}
	before := cachedTree(fs)
	if err := fs.replaceItem(k(100), big); err != nil {
		t.Fatal(err)
	}
	for blk, b := range before {
		if !bytes.Equal(b.live, b.snap) {
			t.Errorf("block %d: the buffer cached before the edit changed within it", blk)
		}
	}
	if it, err := fs.findItem(k(100)); err != nil || !bytes.Equal(it.Body, big) {
		t.Fatalf("after the edit: %v, body %d bytes", err, len(it.Body))
	}
}
