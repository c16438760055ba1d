package reiser

import (
	"encoding/binary"
	"math"

	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// Objects are identified by a (DirID, ObjID) key prefix assigned at
// creation: DirID is the parent directory's ObjID, ObjID is fresh. The
// prefix never changes (rename rewrites directory entries, which store the
// full prefix).

// objRef names one file-system object.
type objRef struct {
	DirID, ObjID uint32
}

// rootRef is the root directory's reference.
func rootRef() objRef { return objRef{DirID: RootDirID, ObjID: RootObjID} }

func (r objRef) statKey() key          { return key{r.DirID, r.ObjID, 0, itemStat} }
func (r objRef) directKey() key        { return key{r.DirID, r.ObjID, 1, itemDirect} }
func (r objRef) firstKey() key         { return key{r.DirID, r.ObjID, 0, 0} }
func (r objRef) lastKey() key          { return key{r.DirID, r.ObjID, math.MaxUint64, 0xFF} }
func (r objRef) dirKey(off uint64) key { return key{r.DirID, r.ObjID, off, itemDir} }

// indirectKey returns the key of the indirect item covering file block idx.
func (r objRef) indirectKey(itemIdx int64) key {
	return key{r.DirID, r.ObjID, uint64(itemIdx)*maxIndirectPtrs*BlockSize + 1, itemIndirect}
}

// LoadLocked implements namei.Store: it loads an object's stat item,
// sanity-checking its format (§5.2: "inodes and directory blocks have known
// formats" that ReiserFS verifies).
func (fs *FS) LoadLocked(r objRef) (statData, error) {
	var sd statData
	it, err := fs.findItem(r.statKey())
	if err != nil {
		return sd, err
	}
	if err := sd.unmarshal(it.Body); err != nil {
		fs.rec.Detect(iron.DSanity, BTStat, err.Error())
		fs.panicFS(BTStat, "stat item format check failed")
		return statData{}, vfs.ErrPanicked
	}
	return sd, nil
}

// StoreLocked implements namei.Store: it stores an object's stat item.
func (fs *FS) StoreLocked(r objRef, sd statData) error {
	return fs.replaceItem(r.statKey(), sd.marshal())
}

// ---------------------------------------------------------------------------
// Directory entries.
// ---------------------------------------------------------------------------

// dirEnt is one parsed directory entry.
type dirEnt struct {
	Child objRef
	FType byte
	Name  string
}

const dirEntHdr = 10 // childDirID(4) childObjID(4) ftype(1) nameLen(1)

func appendEnt(body []byte, e dirEnt) []byte {
	var h [dirEntHdr]byte
	binary.LittleEndian.PutUint32(h[0:], e.Child.DirID)
	binary.LittleEndian.PutUint32(h[4:], e.Child.ObjID)
	h[8] = e.FType
	h[9] = byte(len(e.Name))
	return append(append(body, h[:]...), e.Name...)
}

// entIter walks the records of a directory item body in place. next stops
// at the body's end or at a malformed record — a format violation
// ReiserFS's sanity checks catch, which it reports in bad.
type entIter struct {
	body []byte
	off  int
	bad  bool
}

// next returns the next entry and its name, which aliases the body; the
// entry's Name is left empty so a scan builds no string.
func (it *entIter) next() (e dirEnt, name []byte, ok bool) {
	body, off := it.body, it.off
	if off >= len(body) {
		return dirEnt{}, nil, false
	}
	end := off + dirEntHdr
	if end > len(body) || body[off+9] == 0 || end+int(body[off+9]) > len(body) {
		it.bad = true
		return dirEnt{}, nil, false
	}
	end += int(body[off+9])
	it.off = end
	return dirEnt{
		Child: objRef{
			DirID: binary.LittleEndian.Uint32(body[off:]),
			ObjID: binary.LittleEndian.Uint32(body[off+4:]),
		},
		FType: body[off+8],
	}, body[off+dirEntHdr : end], true
}

// parseEnts decodes a directory item body; false reports a malformed
// record (the entries before it are still returned).
func parseEnts(body []byte) ([]dirEnt, bool) {
	var out []dirEnt
	it := entIter{body: body}
	for e, name, ok := it.next(); ok; e, name, ok = it.next() {
		e.Name = string(name)
		out = append(out, e)
	}
	return out, !it.bad
}

// dirItems returns the directory's items in order. Their bodies are views:
// callers derive what they stage from them before staging it.
func (fs *FS) dirItems(r objRef) ([]item, error) {
	var items []item
	err := fs.rangeItems(r.dirKey(1), r.dirKey(math.MaxUint64), func(it item) error {
		if it.K.Type == itemDir {
			items = append(items, it)
		}
		return nil
	})
	return items, err
}

// dirItemCorrupt is the reaction to a directory item that fails its format
// check: ReiserFS panics.
func (fs *FS) dirItemCorrupt() error {
	fs.rec.Detect(iron.DSanity, BTDirItem, "directory item format violation")
	fs.panicFS(BTDirItem, "directory item corrupt")
	return vfs.ErrPanicked
}

// dirEntries parses every entry of a directory.
func (fs *FS) dirEntries(r objRef) ([]dirEnt, error) {
	items, err := fs.dirItems(r)
	if err != nil {
		return nil, err
	}
	var out []dirEnt
	for _, it := range items {
		ents, ok := parseEnts(it.Body)
		if !ok {
			return nil, fs.dirItemCorrupt()
		}
		out = append(out, ents...)
	}
	return out, nil
}

// dirLookup finds a name in a directory, scanning its items in place. It
// answers as dirEntries would: only once the whole walk has succeeded and
// every item — those past the match too — has passed its format check.
func (fs *FS) dirLookup(r objRef, name string) (dirEnt, error) {
	var hit dirEnt
	found, bad := false, false
	err := fs.rangeItems(r.dirKey(1), r.dirKey(math.MaxUint64), func(it item) error {
		if it.K.Type != itemDir || bad {
			return nil
		}
		ents := entIter{body: it.Body}
		for e, n, ok := ents.next(); ok; e, n, ok = ents.next() {
			if !found && string(n) == name {
				hit, found = e, true
			}
		}
		bad = ents.bad
		return nil
	})
	switch {
	case err != nil:
		return dirEnt{}, err
	case bad:
		return dirEnt{}, fs.dirItemCorrupt()
	case !found:
		return dirEnt{}, vfs.ErrNotExist
	}
	hit.Name = name
	return hit, nil
}

// DirAddLocked implements namei.Store: it appends an entry, extending the
// last directory item or opening a new one when it is full.
func (fs *FS) DirAddLocked(r objRef, sd statData, name string, child objRef, ftype byte) (statData, error) {
	if len(name) > vfs.MaxNameLen {
		return sd, vfs.ErrNameTooLong
	}
	items, err := fs.dirItems(r)
	if err != nil {
		return sd, err
	}
	e := dirEnt{Child: child, FType: ftype, Name: name}
	if n := len(items); n > 0 && len(items[n-1].Body) < dirItemMax {
		last := items[n-1]
		return sd, fs.replaceItem(last.K, appendEnt(last.Body, e))
	}
	off := uint64(1)
	if n := len(items); n > 0 {
		off = items[n-1].K.Offset + 1
	}
	return sd, fs.insertItem(item{K: r.dirKey(off), Body: appendEnt(nil, e)})
}

// DirRemoveLocked implements namei.Store: an emptied directory item leaves
// the tree.
func (fs *FS) DirRemoveLocked(r objRef, _ statData, name string) error {
	items, err := fs.dirItems(r)
	if err != nil {
		return err
	}
	for _, it := range items {
		ents, ok := parseEnts(it.Body)
		if !ok {
			return fs.dirItemCorrupt()
		}
		for i, e := range ents {
			if e.Name != name {
				continue
			}
			var body []byte
			for j, o := range ents {
				if j != i {
					body = appendEnt(body, o)
				}
			}
			if len(body) == 0 {
				return fs.deleteItem(it.K)
			}
			return fs.replaceItem(it.K, body)
		}
	}
	return vfs.ErrNotExist
}

// DirEmptyLocked implements namei.Store.
func (fs *FS) DirEmptyLocked(r objRef, _ statData) (bool, error) {
	ents, err := fs.dirEntries(r)
	return len(ents) == 0, err
}

// DirListLocked implements namei.Store.
func (fs *FS) DirListLocked(r objRef, _ statData) ([]vfs.DirEntry, error) {
	ents, err := fs.dirEntries(r)
	if err != nil {
		return nil, err
	}
	out := make([]vfs.DirEntry, 0, len(ents))
	for _, e := range ents {
		out = append(out, vfs.DirEntry{Name: e.Name, Ino: e.Child.ObjID, Type: vfs.FileType(e.FType)})
	}
	return out, nil
}

// DirChangedLocked implements namei.Store: ReiserFS records nothing on the
// parent of a changed entry.
func (fs *FS) DirChangedLocked(_ objRef, sd statData) (statData, error) { return sd, nil }

// ---------------------------------------------------------------------------
// File bodies: direct items (tails) and indirect items.
// ---------------------------------------------------------------------------

// ptrsOf decodes an indirect item body into block pointers.
func ptrsOf(body []byte) []int64 {
	out := make([]int64, len(body)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(body[i*8:]))
	}
	return out
}

func ptrsBody(ptrs []int64) []byte {
	body := make([]byte, len(ptrs)*8)
	for i, p := range ptrs {
		binary.LittleEndian.PutUint64(body[i*8:], uint64(p))
	}
	return body
}

// hasTail reports whether the file stores its body as a tail (a view of it).
func (fs *FS) hasTail(r objRef) (bool, []byte, error) {
	it, err := fs.findItem(r.directKey())
	if err == nil {
		return true, it.Body, nil
	}
	if err == vfs.ErrNotExist {
		return false, nil, nil
	}
	return false, nil, err
}

// blockPtr resolves file block idx; with alloc, the pointer (and item) is
// created, and fresh reports that the block was allocated here. Returns 0
// for holes when alloc is false.
func (fs *FS) blockPtr(r objRef, idx int64, alloc bool) (ptr int64, fresh bool, err error) {
	itemIdx := idx / maxIndirectPtrs
	within := int(idx % maxIndirectPtrs)
	k := r.indirectKey(itemIdx)
	it, err := fs.findItem(k)
	switch {
	case err == nil:
		if within < len(it.Body)/8 {
			if p := int64(binary.LittleEndian.Uint64(it.Body[within*8:])); p != 0 {
				return p, false, nil
			}
		}
		if !alloc {
			return 0, false, nil
		}
		ptrs := ptrsOf(it.Body)
		for len(ptrs) <= within {
			ptrs = append(ptrs, 0)
		}
		blk, aerr := fs.allocBlock(BTData)
		if aerr != nil {
			return 0, false, aerr
		}
		ptrs[within] = blk
		return blk, true, fs.replaceItem(k, ptrsBody(ptrs))
	case err == vfs.ErrNotExist:
		if !alloc {
			return 0, false, nil
		}
		ptrs := make([]int64, within+1)
		blk, aerr := fs.allocBlock(BTData)
		if aerr != nil {
			return 0, false, aerr
		}
		ptrs[within] = blk
		return blk, true, fs.insertItem(item{K: k, Body: ptrsBody(ptrs)})
	default:
		return 0, false, err
	}
}

// convertTail migrates a tail (direct item) into block 0 of an indirect
// representation, as ReiserFS does when a file outgrows its tail.
func (fs *FS) convertTail(r objRef) error {
	has, tail, err := fs.hasTail(r)
	if err != nil || !has {
		return err
	}
	buf := make([]byte, BlockSize)
	copy(buf, tail)
	blk, _, err := fs.blockPtr(r, 0, true)
	if err != nil {
		return err
	}
	fs.tx.StageData(blk, buf, BTData)
	return fs.deleteItem(r.directKey())
}

// freeFileBlocks releases every unformatted block and indirect item of a
// file past newSize (0 frees everything, tail included).
//
// Reproduced bug (§5.2): an indirect read failure during the free is
// detected (and retried once) but then ignored — the walk continues,
// bitmaps and superblock are updated for whatever was reachable, and the
// unreachable blocks leak.
func (fs *FS) freeFileBlocks(r objRef, newSize int64) error {
	if newSize == 0 {
		if has, _, err := fs.hasTail(r); err == nil && has {
			if derr := fs.deleteItem(r.directKey()); derr != nil {
				return derr
			}
		} else if err != nil {
			fs.noteIgnoredIndirectFailure()
		}
	}
	keep := (newSize + BlockSize - 1) / BlockSize
	var items []item
	err := fs.rangeItems(r.firstKey(), r.lastKey(), func(it item) error {
		if it.K.Type == itemIndirect {
			it.Body = append([]byte{}, it.Body...) // held across the frees below
			items = append(items, it)
		}
		return nil
	})
	if err != nil {
		// The reproduced leak: pretend all is well.
		fs.noteIgnoredIndirectFailure()
		return nil
	}
	for _, it := range items {
		base := int64((it.K.Offset - 1) / BlockSize)
		ptrs := ptrsOf(it.Body)
		changed := false
		live := 0
		for i, p := range ptrs {
			if p == 0 {
				continue
			}
			if base+int64(i) >= keep {
				if ferr := fs.freeBlock(p); ferr != nil {
					fs.noteIgnoredIndirectFailure()
					continue
				}
				ptrs[i] = 0
				changed = true
			} else {
				live++
			}
		}
		if live == 0 && base >= keep {
			if derr := fs.deleteItem(it.K); derr != nil {
				return derr
			}
		} else if changed {
			if rerr := fs.replaceItem(it.K, ptrsBody(ptrs)); rerr != nil {
				return rerr
			}
		}
	}
	return nil
}

// FreeLocked implements namei.Store: it deletes an object outright, body
// blocks, then every item under its key prefix.
func (fs *FS) FreeLocked(r objRef, _ statData) error {
	if err := fs.freeFileBlocks(r, 0); err != nil {
		return err
	}
	var keys []key
	err := fs.rangeItems(r.firstKey(), r.lastKey(), func(it item) error {
		keys = append(keys, it.K)
		return nil
	})
	if err != nil {
		return err
	}
	for _, k := range keys {
		if derr := fs.deleteItem(k); derr != nil {
			return derr
		}
	}
	return nil
}
