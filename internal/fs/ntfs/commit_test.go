package ntfs

import (
	"bytes"
	"errors"
	"testing"

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
	staged := append([]int64(nil), fs.tx.metaOrder...)
	if len(staged) == 0 {
		fs.mu.Unlock()
		t.Fatal("no staged metadata to freeze")
	}
	want := map[int64][]byte{}
	for _, blk := range staged {
		want[blk] = append([]byte(nil), fs.tx.meta[blk]...)
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
	for i := 0; i <= maxDescTags; i++ {
		fs.stageMeta(int64(4000+i), make([]byte, BlockSize), BTMFT)
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
