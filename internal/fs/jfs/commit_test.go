package jfs

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"ironfs/internal/journal"
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
	var staged []int64
	want := map[int64][]byte{}
	for i := 0; i < fs.tx.Meta.Len(); i++ {
		blk := fs.tx.Meta.Block(i)
		staged = append(staged, blk)
		want[blk] = append([]byte(nil), fs.tx.Meta.Payload(blk)...)
	}
	if len(staged) == 0 {
		fs.mu.Unlock()
		t.Fatal("no dirty metadata to freeze")
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
	// of them — staged through logMeta — cannot fit even after a wrap.
	payload := make([]byte, BlockSize-2*recHdrLen-16)
	for i := 0; i < ringBlocks+2; i++ {
		if err := fs.logMeta(int64(fs.sb.BMapStart), 0, payload, BTBMap); err != nil {
			fs.mu.Unlock()
			t.Fatal(err)
		}
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

// TestLogSuperFormatPinned holds the log superblock's on-disk bytes to what
// this package's own encoder produced before journal.Header's shared codec
// replaced it. (The redo-record encoding is still this package's.)
func TestLogSuperFormatPinned(t *testing.T) {
	b := journal.Header{Magic: jMagic, Version: 1, StartRel: 7, StartSeq: 0x0102030405060708}.Block()
	got := hex.EncodeToString(bytes.TrimRight(b, "\x00"))
	if want := "474f4c4a0100000007000000000000000807060504030201"; got != want || len(b) != BlockSize {
		t.Errorf("log superblock = %s (%d bytes), want %s", got, len(b), want)
	}
}
