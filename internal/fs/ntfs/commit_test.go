package ntfs

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"ironfs/internal/journal"
	"ironfs/internal/vfs"
)

// TestFrozenCommitPayloads: freezing must copy every payload under the
// lock. The cache hands out live slices, so a plan that aliased them would
// tear its own images once a concurrent operation re-dirtied a block
// mid-commit. This scribbles on the cached buffers between freeze and
// write and asserts the device received the frozen bytes.
func TestFrozenCommitPayloads(t *testing.T) {
	fs, d := newTestFS(t)
	if err := fs.Create("/frozen", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/frozen", 0, bytes.Repeat([]byte("x"), 100)); err != nil {
		t.Fatal(err)
	}

	fs.mu.Lock()
	var staged []int64
	want := map[int64][]byte{}
	for i := 0; i < fs.tx.Meta.Len(); i++ {
		blk := fs.tx.Meta.Block(i)
		staged = append(staged, blk)
		want[blk] = append([]byte(nil), fs.tx.Meta.Payload(blk)...)
	}
	if len(staged) == 0 {
		fs.mu.Unlock()
		t.Fatal("no staged metadata to freeze")
	}
	plan, err := fs.FreezeLocked(fs.jn.Seq() + 1)
	if err != nil || plan == nil {
		fs.mu.Unlock()
		t.Fatalf("FreezeLocked = %v, %v", plan, err)
	}
	// Model a concurrent operation re-dirtying every staged block while
	// the commit's I/O is in flight.
	for _, blk := range staged {
		if buf := fs.cache.Get(blk); buf != nil {
			for i := range buf {
				buf[i] = 0xEE
			}
		}
	}
	if err := fs.WritePlan(plan); err != nil {
		fs.mu.Unlock()
		t.Fatalf("WritePlan: %v", err)
	}
	err = fs.FinishLocked(plan)
	fs.mu.Unlock()
	if err != nil {
		t.Fatalf("FinishLocked: %v", err)
	}

	buf := make([]byte, BlockSize)
	for _, blk := range staged {
		if err := d.ReadBlock(blk, buf); err != nil {
			t.Fatalf("ReadBlock(%d): %v", blk, err)
		}
		if !bytes.Equal(buf, want[blk]) {
			t.Fatalf("home block %d holds post-freeze scribbles, want the frozen image", blk)
		}
	}
}

// TestTxnOverflowUnmountable: a transaction whose tag list would scribble
// past the logfile descriptor block is a structural hazard; the freeze
// must refuse it and mark the volume unusable rather than corrupt the log.
func TestTxnOverflowUnmountable(t *testing.T) {
	fs, _ := newTestFS(t)
	fs.mu.Lock()
	for i := 0; i <= journal.MaxTags; i++ {
		fs.tx.StageMeta(int64(4000+i), make([]byte, BlockSize), BTMFT)
	}
	_, err := fs.FreezeLocked(fs.jn.Seq() + 1)
	fs.mu.Unlock()
	if !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("freeze of oversized txn = %v, want ErrIO", err)
	}
	if st := fs.Health(); st != vfs.ReadOnly {
		t.Fatalf("health after descriptor overflow = %v, want ReadOnly (unmountable)", st)
	}
}

// pinned renders a log block as the hex of everything up to its last
// nonzero byte.
func pinned(b []byte) string {
	return hex.EncodeToString(bytes.TrimRight(b, "\x00"))
}

// TestLogFormatPinned holds the logfile's on-disk bytes — restart area,
// descriptor, commit record — to what this package's own encoders produced
// for the same transaction before journal.Ring's shared codec replaced
// them.
func TestLogFormatPinned(t *testing.T) {
	fs, d := newTestFS(t)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, blk := range []int64{3, 0x0A0B0C0D0E0F, 510} {
		fs.tx.StageMeta(blk, make([]byte, BlockSize), BTMFT)
	}
	p, err := fs.FreezeLocked(0x1122334455667788)
	if err != nil {
		t.Fatal(err)
	}
	plan := p.(*commitPlan)
	if err := fs.writeRestart(0x0102030405060708, 7); err != nil {
		t.Fatal(err)
	}
	restart := make([]byte, BlockSize)
	if err := d.ReadBlock(int64(fs.boot.LogStart), restart); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ what, got, want string }{
		{"descriptor", pinned(plan.jReqs[0].Data), "4452435203000000887766554433221103000000000000000f0e0d0c0b0a0000fe01"},
		{"commit", pinned(plan.commit.Data), "54494d43000000008877665544332211"},
		{"restart area", pinned(restart), "525453520000000007000000000000000807060504030201"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.what, c.got, c.want)
		}
	}
}
