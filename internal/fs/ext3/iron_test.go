package ext3

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/namei"
	"ironfs/internal/vfs"
)

// ironStack builds disk + fault layer + resolver + mounted FS with opts.
func ironStack(t *testing.T, opts Options) (*disk.Disk, *faultinject.Device, *iron.Recorder, *FS) {
	t.Helper()
	d, err := disk.New(8192, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fdev := faultinject.New(d, nil)
	if err := Mkfs(fdev, opts); err != nil {
		t.Fatal(err)
	}
	fdev.SetResolver(NewResolver(d))
	rec := iron.NewRecorder()
	fs := New(fdev, opts, rec)
	if err := fs.Mount(); err != nil {
		t.Fatal(err)
	}
	return d, fdev, rec, fs
}

// remountCold swaps in a fresh instance over the same device (cold cache).
func remountCold(t *testing.T, fs *FS) *FS {
	t.Helper()
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2 := New(fs.dev, fs.opts, fs.rec)
	if err := fs2.Mount(); err != nil {
		t.Fatal(err)
	}
	fs2.rec.Reset()
	return fs2
}

// --- Checksums (Mc/Dc) -------------------------------------------------------

func TestChecksumDetectsDataCorruption(t *testing.T) {
	opts := Options{DataChecksum: true, FixBugs: true}
	_, fdev, rec, fs := ironStack(t, opts)
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 2*BlockSize)
	if _, err := fs.Write("/f", 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs = remountCold(t, fs)
	fdev.Arm(&faultinject.Fault{Class: iron.Corruption, Target: BTData, Sticky: true})

	buf := make([]byte, len(payload))
	_, err := fs.Read("/f", 0, buf)
	// Without parity there is detection but no recovery: the read fails.
	if err == nil {
		t.Fatal("corrupt data read succeeded without parity to recover from")
	}
	if !rec.Detections().Has(iron.DRedundancy) {
		t.Errorf("corruption not detected via checksum:\n%s", rec.Summary())
	}
}

func TestChecksumPlusParityRecoversData(t *testing.T) {
	opts := Options{DataChecksum: true, DataParity: true, FixBugs: true}
	_, fdev, rec, fs := ironStack(t, opts)
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 5*BlockSize)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	if _, err := fs.Write("/f", 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs = remountCold(t, fs)
	// One corrupt data block (latched): parity must reconstruct it.
	fdev.Arm(&faultinject.Fault{Class: iron.Corruption, Target: BTData, Sticky: true})

	buf := make([]byte, len(payload))
	if _, err := fs.Read("/f", 0, buf); err != nil {
		t.Fatalf("read with parity available failed: %v", err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("reconstructed content differs")
	}
	if !rec.Recoveries().Has(iron.RRedundancy) {
		t.Errorf("no RRedundancy recorded:\n%s", rec.Summary())
	}
}

func TestParityRecoversEachBlockOfFile(t *testing.T) {
	// Reconstruction must work for every block position, including the
	// indirect range.
	opts := Options{DataParity: true, FixBugs: true}
	_, fdev, _, fs := ironStack(t, opts)
	const nb = 16
	payload := make([]byte, nb*BlockSize)
	for i := range payload {
		payload[i] = byte(i / BlockSize)
	}
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/f", 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	// Locate each block's physical home and fail it, one at a time.
	_, in, err := fs.ResolveLocked("/f", true)
	if err != nil {
		t.Fatal(err)
	}
	for l := int64(0); l < nb; l++ {
		phys, err := fs.bmap(&in, l, false)
		if err != nil || phys == 0 {
			t.Fatalf("bmap %d: %d %v", l, phys, err)
		}
		fs = remountCold(t, fs)
		fdev.Disarm()
		fdev.Arm(&faultinject.Fault{
			Class: iron.ReadFailure, Sticky: true,
			Range: faultinject.BlockRange{Start: phys, End: phys + 1},
		})
		got := make([]byte, BlockSize)
		if _, err := fs.Read("/f", l*BlockSize, got); err != nil {
			t.Fatalf("block %d unrecoverable: %v", l, err)
		}
		if got[0] != byte(l) {
			t.Fatalf("block %d reconstructed wrong: %d", l, got[0])
		}
	}
	fdev.Disarm()
}

func TestParityMaintainedAcrossOverwriteAndTruncate(t *testing.T) {
	opts := Options{DataParity: true, FixBugs: true}
	_, fdev, _, fs := ironStack(t, opts)
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	a := bytes.Repeat([]byte("a"), 6*BlockSize)
	if _, err := fs.Write("/f", 0, a); err != nil {
		t.Fatal(err)
	}
	// Overwrite the middle, truncate the tail, then extend again.
	if _, err := fs.Write("/f", 2*BlockSize+100, bytes.Repeat([]byte("B"), BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate("/f", 4*BlockSize); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/f", 4*BlockSize, bytes.Repeat([]byte("c"), BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	want := make([]byte, 5*BlockSize)
	copy(want, a[:4*BlockSize])
	copy(want[2*BlockSize+100:], bytes.Repeat([]byte("B"), BlockSize))
	want = want[:5*BlockSize]
	copy(want[4*BlockSize:], bytes.Repeat([]byte("c"), BlockSize))

	// Fail each remaining block; parity must still be exact.
	_, in, err := fs.ResolveLocked("/f", true)
	if err != nil {
		t.Fatal(err)
	}
	for l := int64(0); l < 5; l++ {
		phys, err := fs.bmap(&in, l, false)
		if err != nil || phys == 0 {
			t.Fatalf("bmap %d: %v", l, err)
		}
		fs = remountCold(t, fs)
		fdev.Disarm()
		fdev.Arm(&faultinject.Fault{
			Class: iron.ReadFailure, Sticky: true,
			Range: faultinject.BlockRange{Start: phys, End: phys + 1},
		})
		got := make([]byte, BlockSize)
		if _, err := fs.Read("/f", l*BlockSize, got); err != nil {
			t.Fatalf("block %d unrecoverable after overwrite/truncate: %v", l, err)
		}
		if !bytes.Equal(got, want[l*BlockSize:(l+1)*BlockSize]) {
			t.Fatalf("block %d parity stale after overwrite/truncate", l)
		}
	}
	fdev.Disarm()
}

// --- Replicas (Mr) -----------------------------------------------------------

func TestReplicaRecoversEveryMetadataType(t *testing.T) {
	opts := AllIron()
	_, fdev, rec, fs := ironStack(t, opts)
	if err := fs.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 20*BlockSize)
	if err := fs.Create("/d/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/d/f", 0, big); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	for _, bt := range []iron.BlockType{BTInode, BTDir, BTBitmap, BTIBitmap, BTIndirect} {
		for _, class := range []iron.FaultClass{iron.ReadFailure, iron.Corruption} {
			fs = remountCold(t, fs)
			fdev.Disarm()
			fdev.Arm(&faultinject.Fault{Class: class, Target: bt, Sticky: true})
			buf := make([]byte, 4096)
			if _, err := fs.Read("/d/f", 15*BlockSize, buf); err != nil {
				t.Errorf("%v on %s: read failed: %v", class, bt, err)
			}
			if fdev.Fired() == 0 {
				t.Errorf("%v on %s: fault never fired", class, bt)
			}
		}
	}
	if !rec.Recoveries().Has(iron.RRedundancy) {
		t.Error("no replica recovery recorded")
	}
	fdev.Disarm()
}

// --- Phantom and misdirected writes (§2.2) ------------------------------------

func TestDistantChecksumCatchesPhantomWrite(t *testing.T) {
	// "A checksum that is stored along with the data it checksums will
	// not detect misdirected or phantom writes" — ixt3's table is distant,
	// so it does.
	opts := AllIron()
	_, fdev, rec, fs := ironStack(t, opts)
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/f", 0, bytes.Repeat([]byte("1"), BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// The next data-block write evaporates inside the "drive".
	fdev.Arm(&faultinject.Fault{Class: iron.PhantomWrite, Target: BTData})
	if _, err := fs.Write("/f", 0, bytes.Repeat([]byte("2"), BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if fdev.Fired() == 0 {
		t.Fatal("phantom fault never fired")
	}
	fs = remountCold(t, fs)
	buf := make([]byte, BlockSize)
	_, err := fs.Read("/f", 0, buf)
	// The stale block fails its checksum; parity has moved on, so the
	// best ixt3 can do is refuse to return wrong data.
	if err == nil && buf[0] == '1' {
		t.Fatal("phantom write went unnoticed: stale data returned as current")
	}
	if !rec.Detections().Has(iron.DRedundancy) {
		t.Errorf("phantom write not detected:\n%s", rec.Summary())
	}
}

func TestDistantChecksumCatchesMisdirectedWrite(t *testing.T) {
	opts := AllIron()
	_, fdev, rec, fs := ironStack(t, opts)
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/f", 0, bytes.Repeat([]byte("1"), BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fdev.Arm(&faultinject.Fault{Class: iron.MisdirectedWrite, Target: BTData})
	if _, err := fs.Write("/f", 0, bytes.Repeat([]byte("2"), BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if fdev.Fired() == 0 {
		t.Fatal("misdirected fault never fired")
	}
	fs = remountCold(t, fs)
	buf := make([]byte, BlockSize)
	_, err := fs.Read("/f", 0, buf)
	if err == nil && buf[0] == '1' {
		t.Fatal("misdirected write went unnoticed: stale data returned as current")
	}
	if !rec.Detections().Has(iron.DRedundancy) {
		t.Errorf("misdirected write not detected:\n%s", rec.Summary())
	}
}

func TestStockExt3MissesPhantomWrite(t *testing.T) {
	// The contrast case: stock ext3 has no end-to-end check, so the stale
	// block reads back as if current — silent corruption.
	_, fdev, rec, fs := ironStack(t, Options{})
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/f", 0, bytes.Repeat([]byte("1"), BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fdev.Arm(&faultinject.Fault{Class: iron.PhantomWrite, Target: BTData})
	if _, err := fs.Write("/f", 0, bytes.Repeat([]byte("2"), BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs = remountCold(t, fs)
	buf := make([]byte, BlockSize)
	if _, err := fs.Read("/f", 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != '1' {
		t.Fatalf("expected the stale block back, got %q", buf[0])
	}
	if !rec.Detections().Empty() {
		t.Errorf("stock ext3 should detect nothing:\n%s", rec.Summary())
	}
}

// --- Transactional checksums (Tc) ----------------------------------------------

func TestTcReducesCommitTime(t *testing.T) {
	measure := func(opts Options) disk.Duration {
		clk := disk.NewClock()
		d, err := disk.New(8192, disk.DefaultGeometry(), clk)
		if err != nil {
			t.Fatal(err)
		}
		if err := Mkfs(d, opts); err != nil {
			t.Fatal(err)
		}
		fs := New(d, opts, nil)
		if err := fs.Mount(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Create("/f", 0o644); err != nil {
			t.Fatal(err)
		}
		start := clk.Now()
		for i := 0; i < 50; i++ {
			if _, err := fs.Write("/f", int64(i)*64, []byte("sync heavy")); err != nil {
				t.Fatal(err)
			}
			if err := fs.Fsync("/f"); err != nil {
				t.Fatal(err)
			}
		}
		return clk.Now() - start
	}
	plain := measure(Options{})
	tc := measure(Options{TxnChecksum: true})
	if tc >= plain {
		t.Errorf("Tc (%v) not faster than ordered commits (%v)", tc, plain)
	}
	// The paper measures roughly 20% on TPC-B; demand at least 10% here.
	if float64(tc) > 0.9*float64(plain) {
		t.Errorf("Tc saved only %.1f%%", 100*(1-float64(tc)/float64(plain)))
	}
}

// tcTailTxn leaves a Tc volume as a crash would: /committed checkpointed
// home, and a later transaction committed to the journal only.
func tcTailTxn(t *testing.T) (*disk.Disk, *iron.Recorder, *FS) {
	t.Helper()
	d, _, rec, fs := ironStack(t, Options{TxnChecksum: true, FixBugs: true})
	if err := fs.Create("/committed", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/committed", 0, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil { // commits AND checkpoints
		t.Fatal(err)
	}
	if err := fs.Create("/tail-txn", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Fsync("/tail-txn"); err != nil { // commits, no checkpoint
		t.Fatal(err)
	}
	return d, rec, fs
}

// requireTcDiscards recovers the media with a fresh instance and requires
// that Tc flagged the damaged tail transaction and replayed none of it.
func requireTcDiscards(t *testing.T, d *disk.Disk, crashed *FS, rec *iron.Recorder) {
	t.Helper()
	fs2 := New(d, crashed.opts, rec)
	if err := fs2.Mount(); err != nil {
		t.Fatalf("recovery mount: %v", err)
	}
	if !rec.Detections().Has(iron.DRedundancy) {
		t.Errorf("transactional checksum did not flag the damaged journal:\n%s", rec.Summary())
	}
	// The undamaged earlier file is intact; the damaged transaction was
	// not replayed and must not have destroyed anything.
	buf := make([]byte, 5)
	if _, err := fs2.Read("/committed", 0, buf); err != nil || string(buf) != "first" {
		t.Fatalf("checkpointed file damaged: %q %v", buf, err)
	}
	if _, err := fs2.CheckConsistency(); err != nil {
		t.Fatalf("consistency check: %v", err)
	}
}

func TestTcDiscardsCorruptTransactionAtReplay(t *testing.T) {
	d, rec, fs := tcTailTxn(t)
	// Corrupt one journal data block on the media, then "crash".
	jstart := int64(fs.lay.sb.JournalStart)
	garbage := bytes.Repeat([]byte{0x77}, BlockSize)
	res := NewResolver(d)
	found := false
	for rel := int64(1); rel < int64(fs.lay.sb.JournalLen) && !found; rel++ {
		if res.Classify(jstart+rel) == BTJData {
			if err := d.WriteBlock(jstart+rel, garbage); err != nil {
				t.Fatal(err)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no journal data block found to corrupt")
	}
	requireTcDiscards(t, d, fs, rec)
}

// TestTcDetectsSwappedJournalBlocks: two journaled copies of a committed
// transaction trade places in the log (a misdirected pair of writes). Every
// block of the transaction is present and intact, so only a checksum that
// depends on log order can tell; replaying it would write each copy to the
// other's home block.
func TestTcDetectsSwappedJournalBlocks(t *testing.T) {
	d, rec, fs := tcTailTxn(t)
	// The tail transaction is the descriptor with the highest sequence.
	le := binary.LittleEndian
	jstart := int64(fs.lay.sb.JournalStart)
	descBlk, descSeq, n := int64(-1), uint64(0), int64(0)
	hdr := make([]byte, BlockSize)
	for rel := int64(1); rel < int64(fs.lay.sb.JournalLen); rel++ {
		if err := d.ReadRaw(jstart+rel, hdr); err != nil {
			t.Fatal(err)
		}
		if le.Uint32(hdr[0:]) == jMagicDesc && le.Uint64(hdr[8:]) >= descSeq {
			descBlk, descSeq, n = jstart+rel, le.Uint64(hdr[8:]), int64(le.Uint32(hdr[4:]))
		}
	}
	if descBlk < 0 {
		t.Fatal("no descriptor block in the journal")
	}
	// Swap the first journaled copy with the first one that differs from it.
	a, b := make([]byte, BlockSize), make([]byte, BlockSize)
	if err := d.ReadRaw(descBlk+1, a); err != nil {
		t.Fatal(err)
	}
	swapped := false
	for i := int64(2); i <= n && !swapped; i++ {
		if err := d.ReadRaw(descBlk+i, b); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a, b) {
			continue
		}
		if err := d.WriteBlock(descBlk+1, b); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteBlock(descBlk+i, a); err != nil {
			t.Fatal(err)
		}
		swapped = true
	}
	if !swapped {
		t.Fatalf("tail transaction (%d journaled copies) has no two distinct copies to swap", n)
	}
	requireTcDiscards(t, d, fs, rec)
}

// --- Scrub ---------------------------------------------------------------------

func TestScrubCleanVolume(t *testing.T) {
	_, _, _, fs := ironStack(t, AllIron())
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := fs.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatentErrors+rep.Corrupt+rep.Unrecovered != 0 {
		t.Fatalf("clean volume scrub found damage: %+v", rep)
	}
	if rep.Scanned == 0 {
		t.Fatal("scrub scanned nothing")
	}
}

func TestScrubRepairsLatentError(t *testing.T) {
	_, fdev, rec, fs := ironStack(t, AllIron())
	if err := fs.Mkdir("/dir", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/dir/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs = remountCold(t, fs)
	fdev.Arm(&faultinject.Fault{Class: iron.ReadFailure, Target: BTDir, Count: 1})
	rep, err := fs.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatentErrors != 1 || rep.Repaired != 1 || rep.Unrecovered != 0 {
		t.Fatalf("scrub report = %+v", rep)
	}
	if !rec.Recoveries().Has(iron.RRepair) {
		t.Error("RRepair not recorded by scrub")
	}
	// The damage is gone: a later cold read succeeds with no fault armed.
	fs = remountCold(t, fs)
	if _, err := fs.ReadDir("/dir"); err != nil {
		t.Fatalf("post-scrub readdir: %v", err)
	}
}

// --- Marshal round trips ---------------------------------------------------------

func TestInodeMarshalRoundTrip(t *testing.T) {
	f := func(mode, links uint16, uid, gid uint32, size uint64, a, m, c int64, parity uint64) bool {
		in := inode{Parity: parity}
		in.Attr = namei.Attr{Mode: mode, Links: links, UID: uid, GID: gid,
			Size: size, Atime: a, Mtime: m, Ctime: c}
		for i := range in.Direct {
			in.Direct[i] = uint64(i) * 131
		}
		in.Ind, in.DInd, in.TInd = 7, 77, 777
		buf := make([]byte, InodeSize)
		in.marshal(buf)
		var out inode
		out.unmarshal(buf)
		return out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSuperblockMarshalRoundTrip(t *testing.T) {
	f := func(bc, js, jl, rn uint64, gc, bpg, itb, ipg, feat, mounts uint32) bool {
		sb := superblock{
			Magic: sbMagic, Version: 1, BlockCount: bc, GroupCount: gc,
			BlocksPerGroup: bpg, ITableBlocks: itb, InodesPerGroup: ipg,
			RootIno: RootIno, Clean: 1,
			JournalStart: js, JournalLen: jl, CksumStart: bc / 2, CksumLen: 8,
			RMapStart: bc / 3, RMapLen: 8, ReplicaStart: bc / 4, ReplicaLen: 64,
			Features: feat, Mounts: mounts, ReplicaNext: rn,
		}
		buf := make([]byte, BlockSize)
		sb.marshal(buf)
		var out superblock
		out.unmarshal(buf)
		return out == sb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirEntryPackUnpack(t *testing.T) {
	buf := make([]byte, BlockSize)
	writeEntry(buf, 0, 42, BlockSize, "hello.txt", 1)
	ents := iterDirBlock(buf)
	if len(ents) != 1 || ents[0].Ino != 42 || ents[0].Name != "hello.txt" || ents[0].FType != 1 {
		t.Fatalf("parse = %+v", ents)
	}
	// A corrupt recLen terminates parsing without panicking (§5.1: no
	// type checks on directory contents).
	buf[4] = 3 // recLen 3 < header
	if got := iterDirBlock(buf); len(got) != 0 {
		t.Fatalf("corrupt chain yielded %d entries", len(got))
	}
}

// TestCksumBlockDistinguishesContent: equal blocks agree, and blocks drawn
// at random differ. CRC32C leaves a 2^-32 chance per differing pair, far
// below what 200 pairs can hit; the exhaustive guarantees are in
// TestCksumDetectsEverySingleBitFlip.
func TestCksumBlockDistinguishesContent(t *testing.T) {
	f := func(a, b []byte) bool {
		pa := make([]byte, BlockSize)
		pb := make([]byte, BlockSize)
		copy(pa, a)
		copy(pb, b)
		return bytes.Equal(pa, pb) == (cksumBlock(pa) == cksumBlock(pb))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCksumKnownAnswer pins the on-disk value: the CRC32C check value of
// "123456789" in the low word, the fixed tag in the high word.
func TestCksumKnownAnswer(t *testing.T) {
	const want = uint64(0x49524f4e_e3069283)
	if got := cksumBlock([]byte("123456789")); got != want {
		t.Fatalf("cksumBlock(\"123456789\") = %#x, want %#x", got, want)
	}
}

// TestCksumNeverZero: 0 in the checksum table means "never checksummed",
// so no block may hash to it.
func TestCksumNeverZero(t *testing.T) {
	for _, fill := range []byte{0x00, 0xFF} {
		blk := bytes.Repeat([]byte{fill}, BlockSize)
		if cksumBlock(blk) == 0 {
			t.Errorf("cksumBlock of the all-%#02x block is 0", fill)
		}
	}
	if cksumStored(0) == 0 {
		t.Error("a zero CRC is stored as 0")
	}
}

// cksumFixture writes a tree with every covered block type to an all-IRON
// volume, checkpoints it and remounts cold, so every home block matches
// its checksum-table entry.
func cksumFixture(t *testing.T) (faultinject.TypeResolver, *faultinject.Device, *FS) {
	t.Helper()
	d, fdev, _, fs := ironStack(t, AllIron())
	if err := fs.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/d/f", 0o644); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 20*BlockSize)
	rand.New(rand.NewSource(7)).Read(payload)
	if _, err := fs.Write("/d/f", 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	return NewResolver(d), fdev, remountCold(t, fs)
}

// firstBlockOfType returns the lowest checksum-covered block the resolver
// classifies as bt.
func firstBlockOfType(t *testing.T, res faultinject.TypeResolver, fs *FS, bt iron.BlockType) int64 {
	t.Helper()
	for blk := int64(0); blk < int64(fs.lay.sb.CksumStart); blk++ {
		if res.Classify(blk) == bt {
			return blk
		}
	}
	t.Fatalf("no %s block on the fixture volume", bt)
	return 0
}

// TestCksumDetectsEverySingleBitFlip: every single-bit flip of a data block
// fails verification, and so does every flip of the superblock, which
// carries its own checksum — a flip inside that field included.
func TestCksumDetectsEverySingleBitFlip(t *testing.T) {
	res, fdev, fs := cksumFixture(t)
	for _, blk := range []int64{firstBlockOfType(t, res, fs, BTData), sbBlock} {
		data := make([]byte, BlockSize)
		if err := fdev.ReadBlock(blk, data); err != nil {
			t.Fatal(err)
		}
		if ok, err := fs.verifyCksum(blk, data); err != nil || !ok {
			t.Fatalf("intact block %d fails verification: ok=%v err=%v", blk, ok, err)
		}
		for bit := 0; bit < 8*BlockSize; bit++ {
			data[bit/8] ^= 1 << (bit % 8)
			if ok, err := fs.verifyCksum(blk, data); err != nil || ok {
				t.Fatalf("block %d: flip of bit %d undetected: ok=%v err=%v", blk, bit, ok, err)
			}
			data[bit/8] ^= 1 << (bit % 8)
		}
	}
}

func TestCksumDetectsDefaultNoiseOnEveryCoveredType(t *testing.T) {
	res, fdev, fs := cksumFixture(t)
	for _, bt := range []iron.BlockType{
		BTSuper, BTGDesc, BTBitmap, BTIBitmap, BTInode, BTDir, BTIndirect, BTData, BTParity,
	} {
		blk := firstBlockOfType(t, res, fs, bt)
		buf := make([]byte, BlockSize)
		if err := fdev.ReadBlock(blk, buf); err != nil {
			t.Fatal(err)
		}
		if ok, err := fs.verifyCksum(blk, buf); err != nil || !ok {
			t.Errorf("%s block %d: intact copy fails verification: ok=%v err=%v", bt, blk, ok, err)
			continue
		}
		fired := fdev.Fired()
		fdev.Arm(&faultinject.Fault{
			Class: iron.Corruption, Count: 1,
			Range: faultinject.BlockRange{Start: blk, End: blk + 1},
		})
		if err := fdev.ReadBlock(blk, buf); err != nil {
			t.Fatal(err)
		}
		fdev.Disarm()
		if fdev.Fired() != fired+1 {
			t.Fatalf("%s block %d: corruption never fired", bt, blk)
		}
		if ok, err := fs.verifyCksum(blk, buf); err != nil || ok {
			t.Errorf("%s block %d: default noise corruption undetected: ok=%v err=%v", bt, blk, ok, err)
		}
	}
}

func BenchmarkCksumBlock(b *testing.B) {
	blk := make([]byte, BlockSize)
	rand.New(rand.NewSource(7)).Read(blk)
	b.SetBytes(BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += cksumBlock(blk)
	}
	if sink == 0 {
		b.Fatal("checksum of a random block is 0")
	}
}

func TestCksumAllocs(t *testing.T) {
	blk := make([]byte, BlockSize)
	if n := testing.AllocsPerRun(100, func() { cksumBlock(blk) }); n != 0 {
		t.Fatalf("cksumBlock allocates %.0f times per call, want 0", n)
	}
}

// --- No-space behavior -----------------------------------------------------------

func TestOutOfSpace(t *testing.T) {
	d, err := disk.New(1500, disk.DefaultGeometry(), nil) // one tiny group
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(d, Options{}); err != nil {
		t.Fatal(err)
	}
	fs := New(d, Options{}, nil)
	if err := fs.Mount(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/hog", 0o644); err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 64*BlockSize)
	var werr error
	for i := int64(0); i < 64; i++ {
		if _, werr = fs.Write("/hog", i*int64(len(chunk)), chunk); werr != nil {
			break
		}
	}
	if !errors.Is(werr, vfs.ErrNoSpace) {
		t.Fatalf("filling the disk returned %v, want ErrNoSpace", werr)
	}
	// The file system survives: reads still work, stat is sane.
	if _, err := fs.Stat("/hog"); err != nil {
		t.Fatalf("stat after ENOSPC: %v", err)
	}
	st, _ := fs.Statfs()
	if st.FreeBlocks > 2 {
		t.Logf("free blocks after fill: %d", st.FreeBlocks)
	}
}

func TestOutOfInodes(t *testing.T) {
	d, err := disk.New(1500, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(d, Options{}); err != nil {
		t.Fatal(err)
	}
	fs := New(d, Options{}, nil)
	if err := fs.Mount(); err != nil {
		t.Fatal(err)
	}
	var cerr error
	for i := 0; i < 4096 && cerr == nil; i++ {
		cerr = fs.Create(fmt.Sprintf("/i%04d", i), 0o644)
	}
	if !errors.Is(cerr, vfs.ErrNoInodes) && !errors.Is(cerr, vfs.ErrNoSpace) {
		t.Fatalf("exhausting inodes returned %v", cerr)
	}
}
