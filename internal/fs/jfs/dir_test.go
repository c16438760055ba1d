package jfs

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// refDirEnt is a directory entry as parseDir used to decode it.
type refDirEnt struct {
	Ino      uint32
	FType    byte
	Name     string
	off, end int
}

// refParseDir is the directory-block decoder as it stood before lookups
// walked the block in place — entry-count check, remount read-only and all: the
// reference iterDir/dirIter must match.
func refParseDir(fs *FS, buf []byte) ([]refDirEnt, error) {
	count := binary.LittleEndian.Uint32(buf[0:])
	if count > maxEntsDir {
		fs.rec.Detect(iron.DSanity, BTDir, "directory entry count out of range")
		fs.rec.Recover(iron.RPropagate, BTDir, "error propagated")
		fs.remountRO(BTDir, "directory sanity failure")
		return nil, vfs.ErrCorrupt
	}
	var out []refDirEnt
	off := 4
	for i := uint32(0); i < count; i++ {
		if off+dirEntHdr > BlockSize {
			break
		}
		nameLen := int(buf[off+5])
		if off+dirEntHdr+nameLen > BlockSize || nameLen == 0 {
			break
		}
		out = append(out, refDirEnt{
			Ino:   binary.LittleEndian.Uint32(buf[off:]),
			FType: buf[off+4],
			Name:  string(buf[off+dirEntHdr : off+dirEntHdr+nameLen]),
			off:   off,
			end:   off + dirEntHdr + nameLen,
		})
		off += dirEntHdr + nameLen
	}
	return out, nil
}

// all collects the entries the walk has not yet returned.
func (it dirIter) all() []dirEnt {
	var out []dirEnt
	for e, ok := it.next(); ok; e, ok = it.next() {
		out = append(out, e)
	}
	return out
}

// iterParseDir collects what iterDir yields, in the reference's shape.
func iterParseDir(fs *FS, buf []byte) ([]refDirEnt, error) {
	it, err := fs.iterDir(buf)
	if err != nil {
		return nil, err
	}
	var out []refDirEnt
	for _, e := range it.all() {
		out = append(out, refDirEnt{e.Ino, e.FType, string(e.Name), e.off, e.end})
	}
	return out, nil
}

// refDirLookup is dirLookup over the reference decoder.
func refDirLookup(fs *FS, in *inode, name string) (uint32, byte, error) {
	nblocks := (int64(in.Size) + BlockSize - 1) / BlockSize
	for l := int64(0); l < nblocks; l++ {
		blk, err := fs.blockPtr(in, l, false, true)
		if err != nil {
			return 0, 0, err
		}
		if blk == 0 {
			continue
		}
		buf, err := fs.readMeta(blk, BTDir)
		if err != nil {
			return 0, 0, err
		}
		ents, err := refParseDir(fs, buf)
		if err != nil {
			return 0, 0, err
		}
		for _, e := range ents {
			if e.Name == name {
				return e.Ino, e.FType, nil
			}
		}
	}
	return 0, 0, vfs.ErrNotExist
}

// randomDirBlock packs a count header and that many entries; it returns the
// block and the offset of each entry.
func randomDirBlock(rng *rand.Rand) ([]byte, []int) {
	buf := make([]byte, BlockSize)
	var offs []int
	off := 4
	for n := rng.Intn(120); n > 0; n-- {
		name := fmt.Sprintf("n%0*d", 1+rng.Intn(40), rng.Intn(10))
		if off+dirEntHdr+len(name) > BlockSize {
			break
		}
		binary.LittleEndian.PutUint32(buf[off:], uint32(1+rng.Intn(500)))
		buf[off+4] = byte(rng.Intn(4))
		buf[off+5] = byte(len(name))
		copy(buf[off+dirEntHdr:], name)
		offs = append(offs, off)
		off += dirEntHdr + len(name)
	}
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(offs)))
	return buf, offs
}

// dirCorruptions damage a block at the entry starting at off in each way
// the walk checks for.
var dirCorruptions = []struct {
	name string
	do   func(buf []byte, off int)
}{
	{"intact", func([]byte, int) {}},
	{"zero-length record", func(buf []byte, off int) { buf[off+5] = 0 }},
	{"record past the block", func(buf []byte, off int) {
		// Lengthen every name from here on: the chain runs off the block.
		for ; off+dirEntHdr <= BlockSize; off += dirEntHdr + 0xFF {
			buf[off+5] = 0xFF
		}
	}},
	{"count promises more than the block holds", func(buf []byte, _ int) {
		binary.LittleEndian.PutUint32(buf[0:], maxEntsDir)
	}},
	{"count above maxEntsDir", func(buf []byte, _ int) {
		binary.LittleEndian.PutUint32(buf[0:], maxEntsDir+1)
	}},
	{"count garbage", func(buf []byte, _ int) { binary.LittleEndian.PutUint32(buf[0:], 0xFFFFFFFF) }},
}

// sideEffects is what a decode leaves behind besides its result.
type sideEffects struct {
	events []iron.Event
	health vfs.HealthState
	log    []vfs.Transition
}

func effectsOf(fs *FS) sideEffects {
	return sideEffects{fs.rec.Events(), fs.Health(), fs.HealthTransitions()}
}

// TestDirIterMatchesReference: on seeded random directory blocks, intact
// and damaged in each way the walk checks for, iterDir and its iterator
// return exactly the entries and the error the reference decoder returns,
// and leave the same recorder events, health state (ReadOnly once an entry
// count is out of range) and transition log behind.
func TestDirIterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x15))
	prod, _ := newTestFS(t)
	ref, _ := newTestFS(t)
	prod.rec.Reset()
	ref.rec.Reset()
	differed := map[string]int{}
	for round := 0; round < 300; round++ {
		pristine, offs := randomDirBlock(rng)
		if len(offs) == 0 {
			continue
		}
		whole, _ := refParseDir(ref, pristine)
		at := offs[rng.Intn(len(offs))]
		for _, c := range dirCorruptions {
			buf := append([]byte{}, pristine...)
			c.do(buf, at)
			want, werr := refParseDir(ref, buf)
			got, gerr := iterParseDir(prod, buf)
			if gerr != werr || !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d %s at offset %d:\niterDir   %+v %v\nreference %+v %v", round, c.name, at, got, gerr, want, werr)
			}
			if pe, re := effectsOf(prod), effectsOf(ref); !reflect.DeepEqual(pe, re) {
				t.Fatalf("round %d %s: side effects differ:\niterDir   %+v\nreference %+v", round, c.name, pe, re)
			}
			if werr != nil || len(want) != len(whole) {
				differed[c.name]++
			}
		}
	}
	for _, c := range dirCorruptions[1:] {
		if c.name != "count promises more than the block holds" && differed[c.name] == 0 {
			t.Errorf("corruption %q never changed a decode: the case tests nothing", c.name)
		}
	}
	if ref.Health() != vfs.ReadOnly || len(ref.rec.Events()) == 0 {
		t.Fatalf("reference ended %v with %d events: the out-of-range counts were never caught", ref.Health(), len(ref.rec.Events()))
	}
}

// TestDirLookupMatchesReference: with the second block of a directory
// carrying an out-of-range entry count on disk, LookupLocked answers from the
// first block, and past it fails, records and degrades exactly as the
// reference does.
func TestDirLookupMatchesReference(t *testing.T) {
	type result struct {
		ID    uint32
		FType byte
		Err   error
	}
	type outcome struct {
		results []result
		effects sideEffects
	}
	var names []string
	for i := 0; i < 160; i++ { // more than one directory block's worth
		names = append(names, fmt.Sprintf("a-directory-entry-%04d", i))
	}
	probe := []string{names[0], names[1], "no-such-name", names[len(names)-1], names[2]}
	run := func(lookup func(fs *FS, in *inode, name string) (uint32, byte, error)) outcome {
		fs, d := newTestFS(t)
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
		root, err := fs.LoadLocked(RootIno)
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := fs.LookupLocked(0, root, "dir")
		if err != nil {
			t.Fatal(err)
		}
		dir, err := fs.LoadLocked(id)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := fs.blockPtr(&dir, 1, false, true)
		if err != nil || blk == 0 {
			t.Fatalf("blockPtr: %d, %v", blk, err)
		}
		buf := make([]byte, BlockSize)
		if err := d.ReadBlock(blk, buf); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(buf[0:], maxEntsDir+1)
		if err := d.WriteBlock(blk, buf); err != nil {
			t.Fatal(err)
		}
		fs.DropCaches()
		fs.rec.Reset()

		var o outcome
		for _, name := range probe {
			id, ft, err := lookup(fs, &dir, name)
			o.results = append(o.results, result{id, ft, err})
		}
		o.effects = effectsOf(fs)
		return o
	}
	got := run(func(fs *FS, n *inode, name string) (uint32, byte, error) {
		return fs.LookupLocked(0, *n, name)
	})
	want := run(refDirLookup)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("production and reference disagree:\nproduction %+v\nreference  %+v", got, want)
	}
	if want.results[0].Err != nil || want.results[2].Err != vfs.ErrCorrupt || want.effects.health != vfs.ReadOnly {
		t.Fatalf("reference outcome %+v: want a hit in the first block, then ErrCorrupt and %v", want, vfs.ReadOnly)
	}
}
