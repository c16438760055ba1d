package journal

import (
	"bytes"
	"slices"
	"testing"

	"ironfs/internal/bcache"
	"ironfs/internal/disk"
	"ironfs/internal/iron"
)

func block(fill byte) []byte { return bytes.Repeat([]byte{fill}, BlockSize) }

func homes(reqs []disk.Request) []int64 {
	var out []int64
	for _, r := range reqs {
		out = append(out, r.Block)
	}
	return out
}

// dirty reports whether blk is pinned: a dirty block survives any amount of
// cache pressure, a clean one does not.
func dirty(t *testing.T, c *bcache.Cache, blk int64) bool {
	t.Helper()
	before := c.DirtyLen()
	c.MarkClean(blk)
	was := c.DirtyLen() < before
	if was {
		c.MarkDirty(blk)
	}
	return was
}

// TestStagingOrder: a block's place in the transaction is fixed by its
// first staging; staging it again keeps the slot and replaces payload and
// type.
func TestStagingOrder(t *testing.T) {
	cache := bcache.New(64)
	tx := NewTxn[uint32](cache)
	a, b, c, a2 := block(1), block(2), block(3), block(4)
	tx.StageMeta(30, a, "inode")
	tx.StageMeta(10, b, "dir")
	tx.StageMeta(20, c, "bitmap")
	tx.StageMeta(30, a2, "indirect")
	tx.StageData(7, block(7), "data")
	tx.StageData(5, block(5), "data")
	tx.StageData(7, block(8), "data")

	if tx.Meta.Len() != 3 || tx.Data.Len() != 2 {
		t.Fatalf("staged %d meta, %d data; want 3, 2", tx.Meta.Len(), tx.Data.Len())
	}
	var order []int64
	for i := 0; i < tx.Meta.Len(); i++ {
		order = append(order, tx.Meta.Block(i))
	}
	if !slices.Equal(order, []int64{30, 10, 20}) {
		t.Fatalf("meta order = %v, want first-touch order [30 10 20]", order)
	}
	if &tx.Meta.Payload(30)[0] != &a2[0] || tx.Meta.Type(30) != "indirect" {
		t.Fatal("re-staging did not replace the payload and type")
	}
	if tx.Meta.Payload(99) != nil {
		t.Fatal("Payload of an unstaged block is not nil")
	}
	if got := cache.Get(30); &got[0] != &a2[0] {
		t.Fatal("the cache does not serve the staged buffer")
	}
	for _, blk := range []int64{30, 10, 20, 7, 5} {
		if !dirty(t, cache, blk) {
			t.Fatalf("staged block %d is not pinned dirty", blk)
		}
	}

	fz := tx.Freeze()
	if !slices.Equal(homes(fz.Meta), []int64{30, 10, 20}) || !slices.Equal(homes(fz.Data), []int64{7, 5}) {
		t.Fatalf("frozen order = %v / %v", homes(fz.Meta), homes(fz.Data))
	}
	if !slices.Equal(fz.MetaType, []iron.BlockType{"indirect", "dir", "bitmap"}) {
		t.Fatalf("frozen types = %v", fz.MetaType)
	}
	if fz.Meta[0].Data[0] != 4 || fz.Data[0].Data[0] != 8 {
		t.Fatal("freeze copied a superseded payload")
	}
}

// TestDropClearsBothClasses: a freed block leaves the transaction whichever
// class it was staged in — and both, if it was in both — along with the
// cache.
func TestDropClearsBothClasses(t *testing.T) {
	cache := bcache.New(64)
	tx := NewTxn[uint32](cache)
	tx.StageMeta(1, block(1), "dir")
	tx.StageMeta(2, block(2), "dir")
	tx.StageMeta(3, block(3), "dir")
	tx.StageData(2, block(9), "data")
	tx.StageData(4, block(4), "data")

	tx.Drop(2)
	tx.Drop(50) // never staged: nothing to do

	if tx.Meta.Payload(2) != nil || tx.Data.Payload(2) != nil {
		t.Fatal("dropped block still staged")
	}
	if cache.Get(2) != nil {
		t.Fatal("dropped block still cached")
	}
	fz := tx.Freeze()
	if !slices.Equal(homes(fz.Meta), []int64{1, 3}) || !slices.Equal(homes(fz.Data), []int64{4}) {
		t.Fatalf("after Drop(2) the freeze carries meta %v, data %v; want [1 3], [4]", homes(fz.Meta), homes(fz.Data))
	}

	// Dropped and staged again in the same transaction: it rejoins at the
	// end, with the new image.
	tx.StageMeta(1, block(1), "dir")
	tx.StageMeta(2, block(2), "dir")
	tx.Drop(1)
	tx.StageData(1, block(7), "data")
	fz = tx.Freeze()
	if !slices.Equal(homes(fz.Meta), []int64{2}) || !slices.Equal(homes(fz.Data), []int64{1}) || fz.Data[0].Data[0] != 7 {
		t.Fatalf("drop-then-restage froze meta %v, data %v", homes(fz.Meta), homes(fz.Data))
	}
}

// TestFreezeIsolatesPayloads: the frozen copies are private. Operations go
// on mutating the live buffers — through the transaction or through the
// cache, which hands out the same slices — while the commit is in flight,
// and none of it may show in the frozen image.
func TestFreezeIsolatesPayloads(t *testing.T) {
	cache := bcache.New(64)
	tx := NewTxn[uint32](cache)
	meta, data := block(0xAA), block(0xBB)
	tx.StageMeta(1, meta, "inode")
	tx.StageData(2, data, "data")
	tx.Touch(11)

	fz := tx.Freeze()
	for _, live := range [][]byte{meta, data, cache.Get(1), cache.Get(2)} {
		for i := range live {
			live[i] = 0xEE
		}
	}
	if !bytes.Equal(fz.Meta[0].Data, block(0xAA)) || !bytes.Equal(fz.Data[0].Data, block(0xBB)) {
		t.Fatal("frozen payload aliases the live buffer")
	}

	// The transaction runs on empty.
	if !tx.Empty() || tx.Touched(11) || tx.Meta.Payload(1) != nil {
		t.Fatal("transaction not empty after Freeze")
	}
	if fz := tx.Freeze(); fz.Meta != nil || fz.Data != nil {
		t.Fatalf("freeze of an empty transaction = %+v", fz)
	}
	// A short payload freezes zero-padded to a block.
	tx.StageData(3, []byte{1, 2, 3}, "data")
	if got := tx.Freeze().Data[0].Data; len(got) != BlockSize || got[2] != 3 || got[3] != 0 {
		t.Fatal("short payload not padded to a block")
	}
}

// TestBindRegistersAnotherBuffer: ext3 registers, at freeze, the buffer the
// cache holds; the slot and type stay.
func TestBindRegistersAnotherBuffer(t *testing.T) {
	tx := NewTxn[uint32](bcache.New(64))
	tx.StageMeta(1, block(1), "inode")
	tx.StageMeta(2, block(2), "dir")
	tx.Meta.Bind(1, block(9))
	fz := tx.Freeze()
	if !slices.Equal(homes(fz.Meta), []int64{1, 2}) || fz.Meta[0].Data[0] != 9 || fz.MetaType[0] != "inode" {
		t.Fatalf("after Bind the freeze carries %v %v, first byte %d", homes(fz.Meta), fz.MetaType, fz.Meta[0].Data[0])
	}
}

func TestTouched(t *testing.T) {
	type obj struct{ dir, id uint32 }
	tx := NewTxn[obj](bcache.New(8))
	if tx.Touched(obj{1, 2}) {
		t.Fatal("fresh transaction reports a touched object")
	}
	tx.Touch(obj{1, 2})
	tx.Touch(obj{1, 2})
	if !tx.Touched(obj{1, 2}) || tx.Touched(obj{2, 1}) {
		t.Fatal("Touched does not follow Touch")
	}
	// Touching stages nothing: fsync of the object must commit, but there
	// is nothing to commit yet.
	if !tx.Empty() {
		t.Fatal("Touch made the transaction non-empty")
	}
}

// TestFull: the cap rule at, below and above each cap, with the other class
// far from its own.
func TestFull(t *testing.T) {
	const metaCap, dataCap = 4, 6
	fill := func(meta, data int) *Txn[uint32] {
		tx := NewTxn[uint32](bcache.New(64))
		for i := 0; i < meta; i++ {
			tx.StageMeta(int64(100+i), block(1), "inode")
		}
		for i := 0; i < data; i++ {
			tx.StageData(int64(200+i), block(2), "data")
		}
		return tx
	}
	for _, c := range []struct {
		meta, data int
		want       bool
	}{
		{0, 0, false},
		{metaCap - 1, 0, false}, {metaCap, 0, true}, {metaCap + 1, 0, true},
		{0, dataCap - 1, false}, {0, dataCap, true}, {0, dataCap + 1, true},
		{metaCap - 1, dataCap - 1, false}, {metaCap, dataCap, true},
	} {
		if got := fill(c.meta, c.data).Full(metaCap, dataCap); got != c.want {
			t.Errorf("Full with %d meta, %d data under caps %d/%d = %v, want %v", c.meta, c.data, metaCap, dataCap, got, c.want)
		}
	}
	// A class with no cap of its own never fills the transaction.
	if fill(0, 40).Full(metaCap, NoCap) {
		t.Error("uncapped data filled the transaction")
	}
	// Re-staging does not count twice.
	tx := fill(metaCap-1, 0)
	tx.StageMeta(100, block(3), "inode")
	if tx.Full(metaCap, dataCap) {
		t.Error("re-staging a block counted against the cap")
	}
	if MaxTags != 510 {
		t.Errorf("MaxTags = %d; a 4 KiB record block holds 510 tags", MaxTags)
	}
}

// TestUnpin: a commit's blocks come unpinned once home — except the ones
// the running transaction re-dirtied while the commit was in flight.
func TestUnpin(t *testing.T) {
	cache := bcache.New(64)
	tx := NewTxn[uint32](cache)
	for blk := int64(1); blk <= 4; blk++ {
		tx.StageMeta(blk, block(byte(blk)), "inode")
	}
	fz := tx.Freeze()
	tx.StageMeta(2, block(22), "inode") // re-dirtied as metadata
	tx.StageData(3, block(33), "data")  // freed and reused as data
	tx.Unpin(fz.Meta)
	for blk, want := range map[int64]bool{1: false, 2: true, 3: true, 4: false} {
		if got := dirty(t, cache, blk); got != want {
			t.Errorf("block %d pinned = %v after Unpin, want %v", blk, got, want)
		}
	}
}
