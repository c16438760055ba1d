package journal

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"

	"ironfs/internal/bcache"
	"ironfs/internal/disk"
	"ironfs/internal/vfs"
)

// frames returns the first byte's address of every frozen payload, the
// frame's identity.
func frames(fz Frozen) map[*byte]bool {
	out := map[*byte]bool{}
	for _, reqs := range [][]disk.Request{fz.Meta, fz.Data} {
		for _, r := range reqs {
			out[&r.Data[0]] = true
		}
	}
	return out
}

// pooled returns the first byte's address of every frame the process's
// pool holds, draining it and giving every frame back in its order.
func pooled() map[*byte]bool {
	_, n := bcache.PoolStats()
	fs := make([][]byte, n)
	for i := range fs {
		fs[n-1-i] = bcache.TakeFrame()
	}
	out := map[*byte]bool{}
	for _, f := range fs {
		bcache.GiveFrame(f)
		out[&f[0]] = true
	}
	return out
}

func shared(a, b map[*byte]bool) bool {
	for f := range a {
		if b[f] {
			return true
		}
	}
	return false
}

// TestFrozenFramesRecycle: a frame goes to at most one outstanding freeze.
// Two freezes the caller still holds never share one, and a frame comes
// back into use only after bcache.GiveFrames, carrying exactly the new payload.
func TestFrozenFramesRecycle(t *testing.T) {
	tx := NewTxn[uint32](bcache.New(64))
	stage := func(base int64, fill byte) {
		for i := int64(0); i < 3; i++ {
			tx.StageMeta(base+i, block(fill), "inode")
		}
		tx.StageData(base+10, block(fill+1), "data")
	}
	stage(0, 0xA0)
	a := tx.Freeze()
	stage(20, 0xB0)
	b := tx.Freeze()
	fa, fb := frames(a), frames(b)
	if len(fa) != 4 || len(fb) != 4 || shared(fa, fb) {
		t.Fatalf("two held freezes: %d and %d frames, shared %v; want 4 and 4, none shared", len(fa), len(fb), shared(fa, fb))
	}

	bcache.GiveFrames(a.Meta, a.Data)
	stage(40, 0xC0)
	c := tx.Freeze()
	fc := frames(c)
	if shared(fc, fb) {
		t.Fatal("a freeze reused a frame the caller still holds")
	}
	for f := range fc {
		if !fa[f] {
			t.Fatal("a freeze made a frame while recycled ones were free")
		}
	}
	for i, r := range c.Meta {
		if !bytes.Equal(r.Data, block(0xC0)) {
			t.Fatalf("recycled frame %d holds stale bytes", i)
		}
	}
	for _, r := range b.Meta {
		if !bytes.Equal(r.Data, block(0xB0)) {
			t.Fatal("a held freeze's payload changed under a later freeze")
		}
	}

	// A short payload pads with zeros in a recycled frame too, and Frame
	// hands out a zeroed one.
	bcache.GiveFrames(b.Meta, c.Meta)
	tx.StageData(3, []byte{1, 2, 3}, "data")
	if got := tx.Freeze().Data[0].Data; len(got) != BlockSize || got[2] != 3 || got[3] != 0 || got[BlockSize-1] != 0 {
		t.Fatal("short payload not zero-padded in a recycled frame")
	}
	if f := tx.Frame(); len(f) != BlockSize || !bytes.Equal(f, make([]byte, BlockSize)) {
		t.Fatal("Frame returned a frame that is not zeroed")
	}
}

// frameFS is a Committer over a real running transaction that gives its
// plan's frames back at finish, as jfs, ReiserFS and NTFS do.
type frameFS struct {
	mu       sync.Mutex
	health   vfs.Health
	jn       *Engine
	tx       *Txn[uint32]
	writeErr error
	// frozen holds the frames of the last freeze.
	frozen map[*byte]bool
}

func (f *frameFS) DirtyLocked() bool             { return !f.tx.Empty() }
func (f *frameFS) TouchedLocked(key uint64) bool { return f.tx.Touched(uint32(key)) }
func (f *frameFS) FreezeLocked(uint64) (Plan, error) {
	fz := f.tx.Freeze()
	f.frozen = frames(fz)
	return &fz, nil
}
func (f *frameFS) WritePlan(Plan) error {
	if f.writeErr != nil {
		f.health.Degrade(vfs.ReadOnly, "journal", f.writeErr)
	}
	return f.writeErr
}
func (f *frameFS) FinishLocked(p Plan) error {
	fz := p.(*Frozen)
	bcache.GiveFrames(fz.Meta, fz.Data)
	return nil
}

// TestFailedCommitDropsItsFrames: a commit whose writes failed never
// reaches FinishLocked, so its frames stay out of the pool; a successful
// one puts every frame back. Whatever the pool held before, it holds after
// a commit less the frames the freeze took, plus the frames the commit
// gave back.
func TestFailedCommitDropsItsFrames(t *testing.T) {
	f := &frameFS{tx: NewTxn[uint32](bcache.New(64))}
	f.jn = New(&f.mu, &f.health, nil, nil, "")
	commit := func() (before, after int, err error) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.tx.StageMeta(1, block(1), "inode")
		f.tx.StageData(2, block(2), "data")
		_, before = bcache.PoolStats()
		err = f.jn.Commit(f)
		_, after = bcache.PoolStats()
		return before, after, err
	}
	before, after, err := commit()
	if err != nil || after != before-min(2, before)+2 {
		t.Fatalf("commit: %v, the pool holds %d frames after it, %d before; want both frames back", err, after, before)
	}
	in := pooled()
	for fr := range f.frozen {
		if len(f.frozen) != 2 || !in[fr] {
			t.Fatal("a finished commit's frame is not in the pool")
		}
	}
	f.writeErr = errors.New("barrier failed")
	before, after, err = commit()
	if err == nil || after != before-min(2, before) {
		t.Fatalf("failed commit: %v, the pool holds %d frames after it, %d before; want an error and neither frame back", err, after, before)
	}
	if shared(pooled(), f.frozen) {
		t.Fatal("a failed commit's frame came back to the pool")
	}
}

// stageFreeze stages 64 metadata and 8 data blocks, freezes them and
// gives back the frozen frames and slices: one commit's worth of the running
// transaction's work, less the device writes.
func stageFreeze(tx *Txn[uint32], meta, data []byte) {
	for i := int64(0); i < 64; i++ {
		tx.StageMeta(i, meta, "inode")
	}
	for i := int64(64); i < 72; i++ {
		tx.StageData(i, data, "data")
	}
	fz := tx.Freeze()
	tx.Unpin(fz.Meta, fz.Data)
	bcache.GiveFrames(fz.Meta, fz.Data)
	tx.Reuse(fz, nil, nil)
}

// TestFreezeAllocs: once frames and the plan's slices circulate, a freeze
// allocates nothing: no payload frame, and no request or type slice.
func TestFreezeAllocs(t *testing.T) {
	tx := NewTxn[uint32](bcache.New(256))
	meta, data := block(1), block(2)
	stageFreeze(tx, meta, data)
	if got := testing.AllocsPerRun(20, func() { stageFreeze(tx, meta, data) }); got != 0 {
		t.Fatalf("%v allocations per 72-block freeze, want 0", got)
	}
}

// BenchmarkFreeze prices one 72-block freeze with its staging and recycle.
func BenchmarkFreeze(b *testing.B) {
	tx := NewTxn[uint32](bcache.New(256))
	meta, data := block(1), block(2)
	stageFreeze(tx, meta, data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stageFreeze(tx, meta, data)
	}
}

// TestReplacedImagesRetireAtFreeze: the buffer a node image replaces in the
// cache — the one the edit's view read — is not handed out by Frame before
// the next Freeze, keeps its bytes until then, and is in the frame pool
// after it, behind the freeze's copies. A cache-owned (Fill) buffer is never retired,
// and neither is a buffer StageMeta or StageImage re-stages in place.
func TestReplacedImagesRetireAtFreeze(t *testing.T) {
	cache := bcache.New(64)
	tx := NewTxn[uint32](cache)
	old := block(0xAA)
	cache.Put(5, old, false)
	view := cache.Get(5) // a lookup's view of the node
	img := tx.Frame()
	copy(img, block(0xBB))
	tx.StageImage(5, img, "leaf")
	tx.StageImage(5, img, "leaf") // the same image re-staged
	for i := 0; i < 4; i++ {
		if f := tx.Frame(); &f[0] == &view[0] {
			t.Fatal("Frame handed out a replaced buffer before the freeze")
		}
	}
	if !bytes.Equal(view, block(0xAA)) {
		t.Fatal("a replaced buffer changed before the freeze")
	}

	// Neither an in-place edit nor a cache-owned buffer is retired.
	inPlace := block(0xCC)
	cache.Put(6, inPlace, false)
	buf := cache.Get(6)
	buf[0] = 1
	tx.StageMeta(6, buf, "bitmap")
	owned := block(0xDD)
	cache.Fill(7, owned)
	tx.StageImage(7, tx.Frame(), "leaf")

	_, before := bcache.PoolStats()
	fz := tx.Freeze()
	if _, after := bcache.PoolStats(); after != max(before-len(fz.Meta), 0)+1 || !pooled()[&view[0]] {
		t.Fatalf("the freeze took %d frames from a pool of %d and left %d; want the one replaced buffer given back", len(fz.Meta), before, after)
	}
	for _, r := range fz.Meta {
		if &r.Data[0] == &view[0] {
			t.Fatal("the freeze copied into a replaced buffer")
		}
	}
	if f := tx.Frame(); &f[0] != &view[0] || !bytes.Equal(f, make([]byte, BlockSize)) {
		t.Fatal("Frame after the freeze did not hand out the replaced buffer, zeroed")
	}
}

// TestPlanSlicesReuse: a freeze's request and type slices, like its
// frames, go to at most one outstanding plan. Two freezes the caller still
// holds never share an array; once one plan's commit is done and Reuse
// gives its slices back, the next freeze and Reqs/Types fill them from
// the start, and the plan still held keeps its contents.
func TestPlanSlicesReuse(t *testing.T) {
	tx := NewTxn[uint32](bcache.New(64))
	stage := func(base int64) {
		for i := int64(0); i < 3; i++ {
			tx.StageMeta(base+i, block(byte(base)), "inode")
			tx.StageData(base+10+i, block(byte(base)+1), "data")
		}
	}
	arrays := func(fz Frozen) []*disk.Request {
		return []*disk.Request{&fz.Meta[:1][0], &fz.Data[:1][0]}
	}
	stage(0)
	a := tx.Freeze()
	log := append(tx.Reqs(), make([]disk.Request, 3)...)
	stage(20)
	b := tx.Freeze()
	bMeta := slices.Clone(b.Meta)
	for _, p := range arrays(a) {
		if slices.Contains(arrays(b), p) {
			t.Fatal("two held freezes share a request slice")
		}
	}
	tx.Reuse(a, log, nil)
	stage(40)
	c := tx.Freeze()
	reused := append(arrays(a), &log[:1][0])
	for _, p := range arrays(c) {
		if !slices.Contains(reused, p) {
			t.Fatal("a freeze made a request slice while given-back ones were free")
		}
	}
	if len(c.Meta) != 3 || c.Meta[0].Block != 40 || c.DataType[0] != "data" {
		t.Fatalf("the freeze into reused slices holds %+v", c)
	}
	if r := tx.Reqs(); len(r) != 0 || cap(r) == 0 {
		t.Fatalf("Reqs handed out %d requests of %d, want the last given-back slice emptied", len(r), cap(r))
	}
	if !slices.EqualFunc(b.Meta, bMeta, func(x, y disk.Request) bool { return x.Block == y.Block && &x.Data[0] == &y.Data[0] }) {
		t.Fatal("reusing one plan's slices changed a plan still held")
	}
}
