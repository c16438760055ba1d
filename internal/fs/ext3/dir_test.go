package ext3

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// refDirEntry is a directory entry as parseDirBlock used to decode it.
type refDirEntry struct {
	Ino             uint32
	RecLen          int
	Name            string
	FType           byte
	blkOff, prevOff int
}

// refParseDirBlock is the directory-block decoder as it stood before
// lookups walked the block in place: the reference dirIter must match.
func refParseDirBlock(buf []byte) []refDirEntry {
	var out []refDirEntry
	off, prev := 0, -1
	for off+dirHdrLen <= BlockSize {
		le := binary.LittleEndian
		rec := int(le.Uint16(buf[off+4:]))
		nameLen := int(buf[off+6])
		if rec < dirHdrLen || off+rec > BlockSize || rec%8 != 0 || dirHdrLen+nameLen > rec {
			return out // corrupt chain: stop quietly
		}
		out = append(out, refDirEntry{
			Ino:     le.Uint32(buf[off:]),
			RecLen:  rec,
			FType:   buf[off+7],
			Name:    string(buf[off+dirHdrLen : off+dirHdrLen+nameLen]),
			blkOff:  off,
			prevOff: prev,
		})
		prev = off
		off += rec
	}
	return out
}

// iterDirBlock collects what dirIter yields, in the reference's shape.
func iterDirBlock(buf []byte) []refDirEntry {
	var out []refDirEntry
	it := dirBlockIter(buf)
	for e, ok := it.next(); ok; e, ok = it.next() {
		out = append(out, refDirEntry{e.Ino, e.RecLen, string(e.Name), e.FType, e.blkOff, e.prevOff})
	}
	return out
}

// refDirLookup is dirLookup over the reference decoder.
func refDirLookup(fs *FS, in *inode, name string) (uint32, byte, error) {
	nblocks := int64(in.Size) / BlockSize
	for l := int64(0); l < nblocks; l++ {
		phys, err := fs.bmap(in, l, false)
		if err != nil {
			return 0, 0, err
		}
		if phys == 0 {
			continue
		}
		buf, err := fs.readMeta(phys, BTDir)
		if err != nil {
			return 0, 0, err
		}
		for _, e := range refParseDirBlock(buf) {
			if e.Ino != 0 && e.Name == name {
				return e.Ino, e.FType, nil
			}
		}
	}
	return 0, 0, vfs.ErrNotExist
}

// randomDirBlock packs a valid chain of live and free records.
func randomDirBlock(rng *rand.Rand) []byte {
	buf := make([]byte, BlockSize)
	off := 0
	for off < BlockSize {
		name := fmt.Sprintf("n%0*d", 1+rng.Intn(40), rng.Intn(10))
		rec := entryLen(len(name)) + 8*rng.Intn(4)
		if rng.Intn(12) == 0 || off+rec+dirHdrLen > BlockSize {
			rec = BlockSize - off // the last record chains to the block end
		}
		if entryLen(len(name)) > rec {
			name = ""
		}
		ino := uint32(rng.Intn(500))
		if rng.Intn(5) == 0 {
			ino = 0 // free space
		}
		writeEntry(buf, off, ino, rec, name, byte(rng.Intn(4)))
		off += rec
	}
	return buf
}

// dirCorruptions break the record chain at record k in each way the walk
// checks for.
var dirCorruptions = []struct {
	name string
	do   func(rec []byte)
}{
	{"intact", func([]byte) {}},
	{"zero-length record", func(r []byte) { binary.LittleEndian.PutUint16(r[4:], 0) }},
	{"truncated record", func(r []byte) { binary.LittleEndian.PutUint16(r[4:], dirHdrLen-1) }},
	{"rec_len not a multiple of 8", func(r []byte) {
		binary.LittleEndian.PutUint16(r[4:], binary.LittleEndian.Uint16(r[4:])+4)
	}},
	{"rec_len past the block", func(r []byte) { binary.LittleEndian.PutUint16(r[4:], BlockSize+8) }},
	{"name longer than its record", func(r []byte) { r[6] = 0xFF; binary.LittleEndian.PutUint16(r[4:], 16) }},
}

// TestDirIterMatchesReference: on seeded random directory blocks, intact
// and with the chain broken at a random record in each way the walk checks
// for, dirIter yields exactly the entries the reference decoder returns —
// stopping quietly at the same record.
func TestDirIterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x15))
	stoppedShort := map[string]int{}
	for round := 0; round < 300; round++ {
		pristine := randomDirBlock(rng)
		whole := refParseDirBlock(pristine)
		at := whole[rng.Intn(len(whole))]
		for _, c := range dirCorruptions {
			buf := append([]byte{}, pristine...)
			c.do(buf[at.blkOff:])
			want, got := refParseDirBlock(buf), iterDirBlock(buf)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d %s at offset %d:\ndirIter   %+v\nreference %+v", round, c.name, at.blkOff, got, want)
			}
			if len(want) < len(whole) {
				stoppedShort[c.name]++
			}
		}
		garbage := make([]byte, BlockSize)
		rng.Read(garbage)
		if want, got := refParseDirBlock(garbage), iterDirBlock(garbage); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d garbage: dirIter %+v, reference %+v", round, got, want)
		}
	}
	for _, c := range dirCorruptions[1:] {
		if stoppedShort[c.name] == 0 {
			t.Errorf("corruption %q never cut a walk short: the case tests nothing", c.name)
		}
	}
}

// TestDirLookupStopsQuietlyLikeReference: with a directory block's chain
// broken mid-block on disk, dirLookup finds what the reference finds (the
// entries before the break), misses what it misses, and — stock ext3's
// DZero policy for directory contents — records no event and stays
// healthy, exactly as the reference does.
func TestDirLookupStopsQuietlyLikeReference(t *testing.T) {
	type result struct {
		Ino   uint32
		FType byte
		Err   error
	}
	type outcome struct {
		results []result
		events  []iron.Event
		health  vfs.HealthState
	}
	var names []string
	for i := 0; i < 200; i++ { // two directory blocks' worth
		names = append(names, fmt.Sprintf("a-directory-entry-%04d", i))
	}
	run := func(lookup func(fs *FS, in *inode, name string) (uint32, byte, error)) outcome {
		fs, d := newTestFS(t, Options{})
		if err := fs.Mkdir("/dir", 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if err := fs.Create("/dir/"+name, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		ino, _, err := fs.dirLookup(mustInode(t, fs, RootIno), "dir")
		if err != nil {
			t.Fatal(err)
		}
		in := mustInode(t, fs, ino)
		phys, err := fs.bmap(in, 0, false)
		if err != nil || phys == 0 {
			t.Fatalf("bmap: %d, %v", phys, err)
		}
		// Break the first block's chain at its 20th record, on disk.
		buf := make([]byte, BlockSize)
		if err := d.ReadBlock(phys, buf); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(buf[refParseDirBlock(buf)[20].blkOff+4:], 12)
		if err := d.WriteBlock(phys, buf); err != nil {
			t.Fatal(err)
		}
		fs.DropCaches()
		fs.rec.Reset()

		var o outcome
		for _, name := range append([]string{"no-such-name"}, names...) {
			ino, ft, err := lookup(fs, in, name)
			o.results = append(o.results, result{ino, ft, err})
		}
		o.events, o.health = fs.rec.Events(), fs.Health()
		return o
	}
	got := run((*FS).dirLookup)
	want := run(refDirLookup)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("production and reference disagree:\nproduction %+v\nreference  %+v", got, want)
	}
	found := 0
	for _, r := range want.results {
		if r.Err == nil {
			found++
		}
	}
	if found == 0 || found >= len(names) || len(want.events) != 0 || want.health != vfs.Healthy {
		t.Fatalf("reference found %d of %d names with events %v, health %v: want a quiet partial answer",
			found, len(names), want.events, want.health)
	}
}

func mustInode(t *testing.T, fs *FS, ino uint32) *inode {
	t.Helper()
	in, err := fs.LoadLocked(ino)
	if err != nil {
		t.Fatal(err)
	}
	return in
}
