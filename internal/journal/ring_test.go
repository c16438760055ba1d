package journal

import (
	"encoding/hex"
	"errors"
	"slices"
	"testing"

	"ironfs/internal/disk"
)

// hexOf renders a block as the hex of everything up to its last nonzero
// byte; the rest of the block is zero.
func hexOf(t *testing.T, b []byte) string {
	t.Helper()
	if len(b) != BlockSize {
		t.Fatalf("block is %d bytes, want %d", len(b), BlockSize)
	}
	end := len(b)
	for end > 0 && b[end-1] == 0 {
		end--
	}
	return hex.EncodeToString(b[:end])
}

// TestOnDiskFormatPinned holds the shared codec to the bytes the four
// per-FS encoders it replaced produced — captured from them, for the same
// inputs, before they were deleted. The on-disk format must not move.
func TestOnDiskFormatPinned(t *testing.T) {
	const startRel, startSeq = 7, 0x0102030405060708
	const seq = 0x1122334455667788
	meta := []disk.Request{{Block: 3}, {Block: 0x0A0B0C0D0E0F}, {Block: 510}}
	for i := range meta {
		meta[i].Data = make([]byte, BlockSize)
	}

	for _, f := range []struct {
		name                           string
		header, version, desc, commit  uint32
		commitCount                    int // what the format stores in the commit block's count field
		wantHeader, wantDesc, wantCmmt string
	}{
		{"ext3", 0xC03B3998, 0, 0xC03B3901, 0xC03B3902, 3,
			"98393bc00000000007000000000000000807060504030201",
			"01393bc003000000887766554433221103000000000000000f0e0d0c0b0a0000fe01",
			"02393bc0030000008877665544332211"},
		{"reiserfs", 0x4A524835, 0, 0x4A524436, 0x4A524337, 3,
			"3548524a0000000007000000000000000807060504030201",
			"3644524a03000000887766554433221103000000000000000f0e0d0c0b0a0000fe01",
			"3743524a030000008877665544332211"},
		{"ntfs", 0x52535452, 0, 0x52435244, 0x434D4954, 0,
			"525453520000000007000000000000000807060504030201",
			"4452435203000000887766554433221103000000000000000f0e0d0c0b0a0000fe01",
			"54494d43000000008877665544332211"},
		{"jfs", 0x4A4C4F47, 1, 0, 0, 0,
			"474f4c4a0100000007000000000000000807060504030201", "", ""},
	} {
		h := Header{Magic: f.header, Version: f.version, StartRel: startRel, StartSeq: startSeq}
		if got := hexOf(t, h.Block()); got != f.wantHeader {
			t.Errorf("%s header = %s, want %s", f.name, got, f.wantHeader)
		}
		if got := ParseHeader(h.Block()); got != h {
			t.Errorf("%s header round trip = %+v, want %+v", f.name, got, h)
		}
		if f.desc == 0 {
			continue // jfs logs records, not block images
		}
		r := &Ring{Base: 1000, Len: 64, Desc: f.desc, Commit: f.commit}
		log, commit := r.Log(5, seq, meta, f.commitCount)
		if got := hexOf(t, log[0].Data); got != f.wantDesc {
			t.Errorf("%s descriptor = %s, want %s", f.name, got, f.wantDesc)
		}
		if got := hexOf(t, commit.Data); got != f.wantCmmt {
			t.Errorf("%s commit = %s, want %s", f.name, got, f.wantCmmt)
		}
		// The descriptor sits at the reserved block, the copies — the very
		// frozen payloads, not copies of them — right behind it, then the
		// commit block.
		var at []int64
		for i, q := range log {
			at = append(at, q.Block)
			if i > 0 && &q.Data[0] != &meta[i-1].Data[0] {
				t.Errorf("%s journaled copy %d is not the frozen payload", f.name, i-1)
			}
		}
		if !slices.Equal(append(at, commit.Block), []int64{1005, 1006, 1007, 1008, 1009}) {
			t.Errorf("%s log placed at %v, commit at %d", f.name, at, commit.Block)
		}
	}

	// ext3's revoke block is the same record shape under its own magic.
	rv := NewRecord(0xC03B3903, 2, seq)
	PutTag(rv, 0, 77)
	PutTag(rv, 1, 0x0102030405)
	if got, want := hexOf(t, rv), "03393bc00200000088776655443322114d000000000000000504030201"; got != want {
		t.Errorf("revoke block = %s, want %s", got, want)
	}
	if m, n, s := RecordHead(rv); m != 0xC03B3903 || n != 2 || s != seq || Tag(rv, 1) != 0x0102030405 {
		t.Errorf("record round trip = %#x %d %#x tag %#x", m, n, s, Tag(rv, 1))
	}
	// The last tag ends exactly at the block's end.
	full := NewRecord(1, MaxTags, 1)
	PutTag(full, MaxTags-1, -1)
	if full[BlockSize-1] != 0xFF {
		t.Error("tag MaxTags-1 does not end at the block's end")
	}
}

// TestRingArithmetic: first use, exact fit, wrap, resume and reset.
func TestRingArithmetic(t *testing.T) {
	r := &Ring{Base: 100, Len: 10} // blocks 1..9 hold records

	if r.Head() != 1 {
		t.Fatalf("unused ring's head = %d, want 1 (block 0 is the header)", r.Head())
	}
	if rel, wrapped := r.Reserve(4); rel != 1 || wrapped || r.Head() != 5 {
		t.Fatalf("first Reserve(4) = %d, %v, head %d; want 1, false, 5", rel, wrapped, r.Head())
	}
	// Exact fit: blocks 5..9 are the last five.
	if !r.Fits(5) || r.Fits(6) {
		t.Fatalf("at head 5 of 10: Fits(5) = %v, Fits(6) = %v; want true, false", r.Fits(5), r.Fits(6))
	}
	if rel, wrapped := r.Reserve(5); rel != 5 || wrapped || r.Head() != 10 {
		t.Fatalf("exact-fit Reserve(5) = %d, %v, head %d; want 5, false, 10", rel, wrapped, r.Head())
	}
	// Full: even one block wraps, and lands right after the header.
	if rel, wrapped := r.Reserve(1); rel != 1 || !wrapped || r.Head() != 2 {
		t.Fatalf("Reserve(1) on a full ring = %d, %v, head %d; want 1, true, 2", rel, wrapped, r.Head())
	}
	// One block too many for what is left wraps rather than spanning the end.
	r.Resume(Header{StartRel: 7})
	if rel, wrapped := r.Reserve(4); rel != 1 || !wrapped {
		t.Fatalf("Reserve(4) at head 7 of 10 = %d, %v; want 1, true", rel, wrapped)
	}
	// A header that never recorded a start resumes like an unused ring.
	r.Resume(Header{})
	if r.Head() != 1 || !r.Fits(9) || r.Fits(10) {
		t.Fatalf("resumed at 0: head %d, Fits(9) %v, Fits(10) %v", r.Head(), r.Fits(9), r.Fits(10))
	}
	r.Resume(Header{StartRel: 6})
	r.Reset()
	if r.Head() != 1 {
		t.Fatalf("head after Reset = %d, want 1", r.Head())
	}
}

// logImage is an in-memory log region for Scan: block number → contents,
// absent blocks read as zeroes, and failAt fails the read of one block.
type logImage struct {
	ring   *Ring
	blocks map[int64][]byte
	failAt int64
	reads  []int64
}

var errRead = errors.New("injected read failure")

func newLogImage() *logImage {
	return &logImage{ring: &Ring{Base: 100, Len: 32, Desc: 0xD0, Commit: 0xC0}, blocks: map[int64][]byte{}, failAt: -1}
}

// put appends transaction seq at rel — n copies filled with its sequence
// number, homes 500+10*seq+i — and returns the next free block.
func (l *logImage) put(rel int64, seq uint64, n int) int64 {
	var meta []disk.Request
	for i := 0; i < n; i++ {
		meta = append(meta, disk.Request{Block: 500 + 10*int64(seq) + int64(i), Data: block(byte(seq))})
	}
	log, commit := l.ring.Log(rel, seq, meta, n)
	for _, q := range append(log, commit) {
		l.blocks[q.Block] = q.Data
	}
	return rel + int64(n) + 2
}

func (l *logImage) read(blk int64, _ Part) ([]byte, error) {
	l.reads = append(l.reads, blk)
	if blk == l.failAt {
		return nil, errRead
	}
	if b := l.blocks[blk]; b != nil {
		return b, nil
	}
	return make([]byte, BlockSize), nil
}

// TestScanAppliesCommittedTransactions: the scan hands over each
// transaction whose commit block checks out, in order, reading descriptor,
// copies and commit in log order, and stops quietly at the first block that
// is not the next descriptor.
func TestScanAppliesCommittedTransactions(t *testing.T) {
	l := newLogImage()
	next := l.put(3, 7, 2)
	next = l.put(next, 8, 0)
	next = l.put(next, 9, 3)

	var applied []int64
	at := Cursor{Rel: 3, Seq: 7}
	why, blk, err := l.ring.Scan(&at, l.read, func(txn Replayed) (bool, error) {
		for _, c := range txn.Copies {
			if c.Data[0] != byte(at.Seq) {
				t.Errorf("seq %d: copy for home %d carries %d", at.Seq, c.Block, c.Data[0])
			}
			applied = append(applied, c.Block)
		}
		if _, n, s := RecordHead(txn.Desc); n != len(txn.Copies) || s != at.Seq {
			t.Errorf("seq %d handed descriptor %d/%d", at.Seq, n, s)
		}
		if m, _, s := RecordHead(txn.Commit); m != 0xC0 || s != at.Seq {
			t.Errorf("seq %d handed commit %#x/%d", at.Seq, m, s)
		}
		return true, nil
	})
	if err != nil || why != StopNotDesc || blk == nil {
		t.Fatalf("Scan = %v, %v, %v; want StopNotDesc with the block that ended it", why, blk != nil, err)
	}
	if at != (Cursor{Rel: next, Seq: 10}) {
		t.Fatalf("cursor = %+v, want {%d 10}", at, next)
	}
	if !slices.Equal(applied, []int64{570, 571, 590, 591, 592}) {
		t.Fatalf("applied homes %v", applied)
	}
	want := []int64{103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114}
	if !slices.Equal(l.reads, want) {
		t.Fatalf("read %v, want %v", l.reads, want)
	}
}

// TestScanStopsWithoutApplying: a sequence break, a torn commit, a count
// out of range and a read error each end the scan before the offending
// transaction reaches apply, with the cursor left on it.
func TestScanStopsWithoutApplying(t *testing.T) {
	for _, c := range []struct {
		name    string
		damage  func(l *logImage, second int64)
		why     Stop
		wantErr bool
	}{
		{"sequence break", func(l *logImage, second int64) {
			l.put(second, 9, 1) // where 8 was expected
		}, StopNotDesc, false},
		{"foreign magic", func(l *logImage, second int64) {
			l.blocks[l.ring.Base+second] = NewRecord(0xBAD, 1, 8)
		}, StopNotDesc, false},
		{"torn commit", func(l *logImage, second int64) {
			delete(l.blocks, l.ring.Base+second+2)
		}, StopNoCommit, false},
		{"commit of another sequence", func(l *logImage, second int64) {
			l.blocks[l.ring.Base+second+2] = NewRecord(0xC0, 1, 7)
		}, StopNoCommit, false},
		{"count past a block's tags", func(l *logImage, second int64) {
			l.blocks[l.ring.Base+second] = NewRecord(0xD0, MaxTags+1, 8)
		}, StopBadCount, false},
		{"count past the region's end", func(l *logImage, second int64) {
			l.blocks[l.ring.Base+second] = NewRecord(0xD0, int(l.ring.Len-second)-1, 8)
		}, StopBadCount, false},
		{"descriptor read error", func(l *logImage, second int64) {
			l.failAt = l.ring.Base + second
		}, StopNotDesc, true},
		{"copy read error", func(l *logImage, second int64) {
			l.failAt = l.ring.Base + second + 1
		}, StopNoCommit, true},
		{"commit read error", func(l *logImage, second int64) {
			l.failAt = l.ring.Base + second + 2
		}, StopNoCommit, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := newLogImage()
			second := l.put(1, 7, 1)
			l.put(second, 8, 1)
			c.damage(l, second)

			var applied []uint64
			at := Cursor{Rel: 1, Seq: 7}
			why, _, err := l.ring.Scan(&at, l.read, func(txn Replayed) (bool, error) {
				applied = append(applied, at.Seq)
				return true, nil
			})
			if (err != nil) != c.wantErr || (err != nil && !errors.Is(err, errRead)) {
				t.Fatalf("err = %v, want error %v", err, c.wantErr)
			}
			if why != c.why {
				t.Fatalf("stopped for %v, want %v", why, c.why)
			}
			if !slices.Equal(applied, []uint64{7}) {
				t.Fatalf("applied sequences %v, want only [7]", applied)
			}
			if at != (Cursor{Rel: second, Seq: 8}) {
				t.Fatalf("cursor = %+v, want it left at the broken transaction {%d 8}", at, second)
			}
		})
	}
}

// TestScanRejectedAndRegionEnd: a transaction apply turns down is not
// counted, an apply error comes back, and a log that runs to the region's
// last block ends the scan there.
func TestScanRejectedAndRegionEnd(t *testing.T) {
	l := newLogImage()
	second := l.put(1, 7, 1)
	l.put(second, 8, 1)
	at := Cursor{Rel: 1, Seq: 7}
	why, _, err := l.ring.Scan(&at, l.read, func(Replayed) (bool, error) { return at.Seq == 7, nil })
	if err != nil || why != StopRejected || at != (Cursor{Rel: second, Seq: 8}) {
		t.Fatalf("rejecting seq 8: %v, %v, cursor %+v", why, err, at)
	}
	errApply := errors.New("home write failed")
	at = Cursor{Rel: 1, Seq: 7}
	if _, _, err := l.ring.Scan(&at, l.read, func(Replayed) (bool, error) { return false, errApply }); !errors.Is(err, errApply) {
		t.Fatalf("apply error came back as %v", err)
	}

	l = newLogImage()
	l.ring.Len = 8
	if end := l.put(l.put(1, 1, 1), 2, 2); end != l.ring.Len {
		t.Fatalf("fixture ends at %d, want %d", end, l.ring.Len)
	}
	at = Cursor{Rel: 1, Seq: 1}
	n := 0
	why, _, err = l.ring.Scan(&at, l.read, func(Replayed) (bool, error) { n++; return true, nil })
	if err != nil || why != StopEnd || n != 2 || at != (Cursor{Rel: 8, Seq: 3}) {
		t.Fatalf("scan to the region's end: %v, %v, applied %d, cursor %+v", why, err, n, at)
	}
}
