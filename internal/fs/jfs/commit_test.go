package jfs

import (
	"bytes"
	"errors"
	"testing"

	"ironfs/internal/vfs"
)

// TestFrozenCommitPayloads: freezing must copy every payload under the
// lock. This scribbles on the cached/staged buffers between freeze and
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
	staged := append([]int64(nil), fs.tx.dirtyOrd...)
	if len(staged) == 0 {
		fs.mu.Unlock()
		t.Fatal("no dirty metadata to freeze")
	}
	want := map[int64][]byte{}
	for _, blk := range staged {
		want[blk] = append([]byte(nil), fs.tx.dirty[blk]...)
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

// TestTxnOverflowCrashes: a transaction whose packed log blocks exceed the
// whole ring would scribble past the log region; the freeze must refuse it
// with JFS's explicit crash rather than corrupt the neighborhood.
func TestTxnOverflowCrashes(t *testing.T) {
	fs, _ := newTestFS(t)
	fs.mu.Lock()
	ringBlocks := int(fs.sb.LogLen)
	// Each max-payload redo record fills most of a log block, so LogLen+2
	// of them cannot fit even after a wrap.
	payload := make([]byte, BlockSize-2*recHdrLen-16)
	for i := 0; i < ringBlocks+2; i++ {
		fs.tx.records = append(fs.tx.records, redoRec{Blk: 1, Off: 0, Data: payload})
	}
	_, err := fs.FreezeLocked(fs.jn.Seq() + 1)
	fs.mu.Unlock()
	if !errors.Is(err, vfs.ErrPanicked) {
		t.Fatalf("freeze of ring-overflowing txn = %v, want ErrPanicked", err)
	}
	if st := fs.Health(); st != vfs.Panicked {
		t.Fatalf("health after log-ring overflow = %v, want Panicked (explicit crash)", st)
	}
}
