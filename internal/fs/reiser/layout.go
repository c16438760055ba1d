// Package reiser implements a ReiserFS-3-style file system: virtually all
// metadata and data live as items in one balanced B+ tree (stat items,
// directory items, direct items for small-file bodies, and indirect items
// pointing at unformatted data blocks), with bitmap allocation and a
// physical write-ahead journal fronted by a journal header.
//
// The failure policy encoded here is the one the paper measured for
// ReiserFS (§5.2) — "first, do no harm": error codes checked on both reads
// and writes, extensive sanity checking of block headers, magic numbers and
// item formats, and a tendency to panic the machine on virtually any write
// failure to guarantee on-disk structures are never corrupted. Its
// documented bugs are reproduced as well: an ordered data-block write
// failure is ignored and the transaction commits anyway; indirect-block
// read failures during unlink/truncate are detected but ignored (leaking
// space); some sanity-check failures panic instead of returning an error;
// and journal *data* is replayed with no integrity check at all, so a
// corrupt journal block can destroy the file system.
//
// On-disk layout (4 KiB blocks):
//
//	block 0                    superblock
//	blocks 1..nbm              block allocation bitmaps (whole device)
//	blocks nbm+1 .. +jlen      journal: header block + ring
//	rest                       tree nodes and unformatted data blocks
package reiser

import (
	"encoding/binary"
	"fmt"

	"ironfs/internal/iron"
	"ironfs/internal/namei"
)

// BlockSize is the logical block size this implementation requires.
const BlockSize = 4096

// Item types, ordered as ReiserFS orders them within a key.
const (
	itemStat     = uint8(1)
	itemDir      = uint8(2)
	itemIndirect = uint8(3)
	itemDirect   = uint8(4)
)

// Block types of ReiserFS's on-disk structures (Table 4 / Figure 2 rows).
const (
	BTStat     = iron.BlockType("stat item")
	BTDirItem  = iron.BlockType("dir item")
	BTBitmap   = iron.BlockType("bitmap")
	BTIndirect = iron.BlockType("indirect")
	BTData     = iron.BlockType("data")
	BTSuper    = iron.BlockType("super")
	BTJHeader  = iron.BlockType("j-header")
	BTJDesc    = iron.BlockType("j-desc")
	BTJCommit  = iron.BlockType("j-commit")
	BTJData    = iron.BlockType("j-data")
	BTRoot     = iron.BlockType("root")
	BTInternal = iron.BlockType("internal")
)

// BlockTypes lists the ReiserFS structure types in Figure 2's row order.
func BlockTypes() []iron.BlockType {
	return []iron.BlockType{
		BTStat, BTDirItem, BTBitmap, BTIndirect, BTData, BTSuper,
		BTJHeader, BTJDesc, BTJCommit, BTJData, BTRoot, BTInternal,
	}
}

const (
	sbMagic      = uint32(0x5265FA53) // "ReIs"-flavored magic
	jMagicHeader = uint32(0x4A524835)
	jMagicDesc   = uint32(0x4A524436)
	jMagicCommit = uint32(0x4A524337)

	// RootDirID/RootObjID key the root directory, per ReiserFS convention.
	RootDirID  = uint32(1)
	RootObjID  = uint32(2)
	firstOID   = uint32(10)
	nodeHdrLen = 16
	itemHdrLen = 32
	// tailMax is the largest file stored as a direct item (a "tail").
	tailMax = 2048
	// dirItemMax caps one directory item's body before a new one starts.
	dirItemMax = 1024
	// maxIndirectPtrs caps pointers per indirect item.
	maxIndirectPtrs = 400
	// MaxLevel bounds the tree height accepted by sanity checks.
	MaxLevel = 8
)

// key identifies an item: (directory id, object id, offset, type), compared
// lexicographically — exactly ReiserFS's universal key.
type key struct {
	DirID  uint32
	ObjID  uint32
	Offset uint64
	Type   uint8
}

// obj returns the object the key belongs to.
func (k key) obj() objRef { return objRef{DirID: k.DirID, ObjID: k.ObjID} }

// cmp returns -1/0/+1 ordering two keys.
func (k key) cmp(o key) int {
	switch {
	case k.DirID != o.DirID:
		return cmpU32(k.DirID, o.DirID)
	case k.ObjID != o.ObjID:
		return cmpU32(k.ObjID, o.ObjID)
	case k.Offset != o.Offset:
		if k.Offset < o.Offset {
			return -1
		}
		return 1
	case k.Type != o.Type:
		if k.Type < o.Type {
			return -1
		}
		return 1
	}
	return 0
}

func cmpU32(a, b uint32) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

// String renders a key as "[dirid objid offset type]".
func (k key) String() string {
	return fmt.Sprintf("[%d %d %d %d]", k.DirID, k.ObjID, k.Offset, k.Type)
}

const keyLen = 4 + 4 + 8 + 1 // marshaled within a 32-byte item header

func marshalKey(b []byte, k key) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], k.DirID)
	le.PutUint32(b[4:], k.ObjID)
	le.PutUint64(b[8:], k.Offset)
	b[16] = k.Type
}

func unmarshalKey(b []byte) key {
	le := binary.LittleEndian
	return key{
		DirID:  le.Uint32(b[0:]),
		ObjID:  le.Uint32(b[4:]),
		Offset: le.Uint64(b[8:]),
		Type:   b[16],
	}
}

// item is one tree item: a key plus a variable-length body.
type item struct {
	K    key
	Body []byte
}

// statData is the body of a stat item. The file type sits in the mode's
// high nibble (namei.TypedAttr).
type statData struct{ namei.TypedAttr }

// Allocated implements namei.Node. An object exists exactly when its stat
// item is in the tree: there is no inode table to leave a stale slot in.
func (s statData) Allocated() bool { return true }

// WithAttrs implements namei.Node.
func (s statData) WithAttrs(a namei.Attr) statData { s.Attr = a; return s }

const statLen = 2 + 2 + 4 + 4 + 8 + 8 + 8 + 8

func (s *statData) marshal() []byte {
	b := make([]byte, statLen)
	le := binary.LittleEndian
	le.PutUint16(b[0:], s.Mode)
	le.PutUint16(b[2:], s.Links)
	le.PutUint32(b[4:], s.UID)
	le.PutUint32(b[8:], s.GID)
	le.PutUint64(b[12:], s.Size)
	le.PutUint64(b[20:], uint64(s.Atime))
	le.PutUint64(b[28:], uint64(s.Mtime))
	le.PutUint64(b[36:], uint64(s.Ctime))
	return b
}

func (s *statData) unmarshal(b []byte) error {
	if len(b) < statLen {
		return fmt.Errorf("reiser: stat item body %d bytes, want %d", len(b), statLen)
	}
	le := binary.LittleEndian
	s.Mode = le.Uint16(b[0:])
	s.Links = le.Uint16(b[2:])
	s.UID = le.Uint32(b[4:])
	s.GID = le.Uint32(b[8:])
	s.Size = le.Uint64(b[12:])
	s.Atime = int64(le.Uint64(b[20:]))
	s.Mtime = int64(le.Uint64(b[28:]))
	s.Ctime = int64(le.Uint64(b[36:]))
	return nil
}

// superblock is the ReiserFS superblock (block 0).
type superblock struct {
	Magic      uint32
	BlockCount uint64
	FreeBlocks uint64
	Root       uint64 // tree root block; 0 = empty tree
	Height     uint32 // tree height (root level)
	BitmapStart,
	BitmapLen uint64
	JournalStart,
	JournalLen uint64
	NextOID uint32
	Clean   uint32
}

func (s *superblock) marshal(b []byte) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], s.Magic)
	le.PutUint64(b[8:], s.BlockCount)
	le.PutUint64(b[16:], s.FreeBlocks)
	le.PutUint64(b[24:], s.Root)
	le.PutUint32(b[32:], s.Height)
	le.PutUint64(b[40:], s.BitmapStart)
	le.PutUint64(b[48:], s.BitmapLen)
	le.PutUint64(b[56:], s.JournalStart)
	le.PutUint64(b[64:], s.JournalLen)
	le.PutUint32(b[72:], s.NextOID)
	le.PutUint32(b[76:], s.Clean)
}

func (s *superblock) unmarshal(b []byte) {
	le := binary.LittleEndian
	s.Magic = le.Uint32(b[0:])
	s.BlockCount = le.Uint64(b[8:])
	s.FreeBlocks = le.Uint64(b[16:])
	s.Root = le.Uint64(b[24:])
	s.Height = le.Uint32(b[32:])
	s.BitmapStart = le.Uint64(b[40:])
	s.BitmapLen = le.Uint64(b[48:])
	s.JournalStart = le.Uint64(b[56:])
	s.JournalLen = le.Uint64(b[64:])
	s.NextOID = le.Uint32(b[72:])
	s.Clean = le.Uint32(b[76:])
}

// sane performs the superblock checks ReiserFS applies at mount: magic
// number plus field ranges (§5.2 notes its "magic numbers which identify
// them as valid").
func (s *superblock) sane(numBlocks int64) error {
	if s.Magic != sbMagic {
		return fmt.Errorf("bad magic %#x", s.Magic)
	}
	if s.BlockCount == 0 || s.BlockCount > uint64(numBlocks) {
		return fmt.Errorf("bad block count %d", s.BlockCount)
	}
	if s.Height > MaxLevel {
		return fmt.Errorf("tree height %d exceeds maximum", s.Height)
	}
	if s.JournalStart == 0 || s.JournalStart+s.JournalLen > s.BlockCount {
		return fmt.Errorf("bad journal extent")
	}
	if s.Root >= s.BlockCount {
		return fmt.Errorf("root block out of range")
	}
	return nil
}

// node is a decoded internal node: separator keys and child pointers
// (len(Children) == len(Keys)+1). Leaves are never decoded: a leaf edit
// writes its new image straight from the view (leafEdit).
type node struct {
	Level    int
	Keys     []key
	Children []int64
}

// framer hands out the zeroed blocks node images are written into: the
// running transaction's frames (journal.Txn.Frame), or fresh blocks.
type framer interface{ Frame() []byte }

// fresh is the framer of mkfs and of tests: every block is a new one.
type fresh struct{}

func (fresh) Frame() []byte { return make([]byte, BlockSize) }

// marshalNode serializes an internal node into a block from f: the
// separator keys in item-header slots after the node header, then the
// children.
func marshalNode(n *node, f framer) []byte {
	b := f.Frame()
	le := binary.LittleEndian
	le.PutUint16(b[0:], uint16(n.Level))
	le.PutUint16(b[2:], uint16(len(n.Keys)))
	off := nodeHdrLen
	for _, k := range n.Keys {
		marshalKey(b[off:], k)
		off += itemHdrLen
	}
	for _, c := range n.Children {
		le.PutUint64(b[off:], uint64(c))
		off += 8
	}
	le.PutUint16(b[4:], uint16(BlockSize-off))
	return b
}

// nodeView is a tree block that passed checkNode, read in place: lookups
// compare keys and hand out bodies straight from the block instead of
// decoding it. A view aliases the live cache buffer, so it is never held
// across StageMeta/StageData and the bodies it hands out are cap-limited.
type nodeView []byte

// checkNode applies the block-header sanity checks ReiserFS performs
// (level, item count, free space, item-header bounds, key order) without
// decoding anything. It returns a descriptive error on any violation.
func checkNode(b []byte) (nodeView, error) {
	v := nodeView(b)
	level, count := v.level(), v.count()
	free := int(binary.LittleEndian.Uint16(b[4:]))
	if level < 1 || level > MaxLevel {
		return nil, fmt.Errorf("block header level %d invalid", level)
	}
	if nodeHdrLen+count*itemHdrLen > BlockSize {
		return nil, fmt.Errorf("block header item count %d invalid", count)
	}
	if free > BlockSize {
		return nil, fmt.Errorf("block header free space %d invalid", free)
	}
	if !v.isLeaf() {
		if nodeHdrLen+count*itemHdrLen+(count+1)*8 > BlockSize {
			return nil, fmt.Errorf("internal node overflows block")
		}
		return v, nil
	}
	for i := 0; i < count; i++ {
		if loc, blen := v.bodyAt(i); loc < nodeHdrLen || loc+blen > BlockSize {
			return nil, fmt.Errorf("item %d location %d+%d out of bounds", i, loc, blen)
		}
	}
	// Keys must be strictly increasing — part of the format check.
	for i, prev := 1, v.key(0); i < count; i++ {
		k := v.key(i)
		if prev.cmp(k) >= 0 {
			return nil, fmt.Errorf("leaf keys out of order at %d", i)
		}
		prev = k
	}
	return v, nil
}

func (v nodeView) level() int   { return int(binary.LittleEndian.Uint16(v[0:])) }
func (v nodeView) count() int   { return int(binary.LittleEndian.Uint16(v[2:])) }
func (v nodeView) isLeaf() bool { return v.level() == 1 }

// key returns item i's key (leaf) or separator i (internal).
func (v nodeView) key(i int) key { return unmarshalKey(v[nodeHdrLen+i*itemHdrLen:]) }

// bodyAt returns where leaf item i's header says its body lies.
func (v nodeView) bodyAt(i int) (loc, blen int) {
	h := v[nodeHdrLen+i*itemHdrLen:]
	return int(binary.LittleEndian.Uint16(h[22:])), int(binary.LittleEndian.Uint16(h[20:]))
}

// body returns leaf item i's body in place. The capacity stops at the
// body's end: an append must copy, never grow into the neighbouring item.
func (v nodeView) body(i int) []byte {
	loc, blen := v.bodyAt(i)
	return v[loc : loc+blen : loc+blen]
}

// child returns child pointer i of an internal node (0 <= i <= count).
func (v nodeView) child(i int) int64 {
	return int64(binary.LittleEndian.Uint64(v[nodeHdrLen+v.count()*itemHdrLen+i*8:]))
}

// decode materialises an internal node for the split or removal that
// rewrites it; everything it returns is a copy.
func (v nodeView) decode() *node {
	count := v.count()
	n := &node{Level: v.level(), Keys: make([]key, count), Children: make([]int64, count+1)}
	for i := range n.Keys {
		n.Keys[i] = v.key(i)
	}
	for i := range n.Children {
		n.Children[i] = v.child(i)
	}
	return n
}

// emptyLeaf is a leaf block holding no items: what a new leaf is edited
// from. Nothing writes it.
var emptyLeaf = func() nodeView {
	b := make(nodeView, BlockSize)
	binary.LittleEndian.PutUint16(b[0:], 1)
	binary.LittleEndian.PutUint16(b[4:], BlockSize-nodeHdrLen)
	return b
}()

// leafEdit is a leaf as one edit leaves it: the items of v with items
// [at, at+drop) replaced by ins when put is set, or dropped. Nothing is
// copied until image writes the result.
type leafEdit struct {
	v        nodeView
	at, drop int
	put      bool
	ins      item
}

// leafOf returns a new leaf image, in a block from f, holding it alone.
func leafOf(it item, f framer) nodeView {
	e := leafEdit{v: emptyLeaf, put: true, ins: it}
	return e.image(0, 1, f)
}

// count returns the number of items after the edit.
func (e *leafEdit) count() int {
	if e.put {
		return e.v.count() - e.drop + 1
	}
	return e.v.count() - e.drop
}

// src returns the view's index of edited item i, or -1 for ins.
func (e *leafEdit) src(i int) int {
	switch {
	case i < e.at:
		return i
	case !e.put:
		return i + e.drop
	case i == e.at:
		return -1
	}
	return i - 1 + e.drop
}

func (e *leafEdit) body(i int) []byte {
	if j := e.src(i); j >= 0 {
		return e.v.body(j)
	}
	return e.ins.Body
}

// space returns the bytes edited items [lo, hi) occupy in a leaf, node
// header included, from the item headers' lengths: the stored free-space
// field is never believed.
func (e *leafEdit) space(lo, hi int) int {
	s := nodeHdrLen
	for i := lo; i < hi; i++ {
		s += itemHdrLen + len(e.body(i))
	}
	return s
}

// image writes edited items [lo, hi) into a zeroed block from f, headers
// after the node header and bodies packed downward from the block end, as
// real ReiserFS formats its leaves. It returns nil, and takes no block,
// when they do not fit one.
func (e *leafEdit) image(lo, hi int, f framer) nodeView {
	if e.space(lo, hi) > BlockSize {
		return nil
	}
	b := nodeView(f.Frame())
	le := binary.LittleEndian
	le.PutUint16(b[0:], 1)
	le.PutUint16(b[2:], uint16(hi-lo))
	end, off := BlockSize, nodeHdrLen
	for i := lo; i < hi; i++ {
		body := e.body(i)
		end -= len(body)
		if j := e.src(i); j >= 0 {
			copy(b[off:off+keyLen], e.v[nodeHdrLen+j*itemHdrLen:])
		} else {
			marshalKey(b[off:], e.ins.K)
		}
		le.PutUint16(b[off+20:], uint16(len(body)))
		le.PutUint16(b[off+22:], uint16(end))
		copy(b[end:], body)
		off += itemHdrLen
	}
	le.PutUint16(b[4:], uint16(end-off)) // free space
	return b
}

// split returns the two halves of an insert that overflows its leaf: split
// at the index nearest the middle where both fit. When there is none (two
// large tails with the new item between them), the halves are the leaf
// without the edit, split where the item goes, and placed is false: the
// item is to be inserted again, at the end of a leaf, where a split always
// fits. Both halves are nil when even those do not fit (a sane but corrupt
// leaf whose bodies overlap). Both halves are written into blocks from f.
func (e *leafEdit) split(f framer) (left, right nodeView, placed bool) {
	n := e.count()
	mid := n / 2
	for d := 0; d < n; d++ {
		for _, i := range [2]int{mid - d, mid + d} {
			if i > 0 && i < n && e.space(0, i) <= BlockSize && e.space(i, n) <= BlockSize {
				return e.image(0, i, f), e.image(i, n, f), true
			}
		}
	}
	whole := leafEdit{v: e.v}
	if n = whole.count(); whole.space(0, e.at) > BlockSize || whole.space(e.at, n) > BlockSize {
		return nil, nil, false
	}
	return whole.image(0, e.at, f), whole.image(e.at, n, f), false
}
