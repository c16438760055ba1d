package journal

import (
	"encoding/binary"

	"ironfs/internal/bcache"
	"ironfs/internal/disk"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// Header is the block that fronts a log region — ext3's journal
// superblock, ReiserFS's journal header, JFS's log superblock, NTFS's
// restart area. It records where the oldest record that is not yet home
// begins and the sequence number expected there; the four differ in their
// magic numbers, and JFS also stores a format version.
type Header struct {
	Magic    uint32
	Version  uint32 // JFS only; the other three leave the field zero
	StartRel uint64 // region-relative block of the oldest live record
	StartSeq uint64 // sequence number expected at StartRel
}

// Block returns h encoded in a fresh log block.
func (h Header) Block() []byte { return h.Encode(make([]byte, BlockSize)) }

// Encode writes h into b, a zeroed log block, and returns it.
func (h Header) Encode(b []byte) []byte {
	le := binary.LittleEndian
	le.PutUint32(b[0:], h.Magic)
	le.PutUint32(b[4:], h.Version)
	le.PutUint64(b[8:], h.StartRel)
	le.PutUint64(b[16:], h.StartSeq)
	return b
}

// ParseHeader decodes a header block. Whether its magic and version are
// the right ones is the caller's check, and the caller's §5 reaction.
func ParseHeader(b []byte) Header {
	le := binary.LittleEndian
	return Header{
		Magic:    le.Uint32(b[0:]),
		Version:  le.Uint32(b[4:]),
		StartRel: le.Uint64(b[8:]),
		StartSeq: le.Uint64(b[16:]),
	}
}

// The block-image formats (ext3, ReiserFS, NTFS) frame a transaction with
// record blocks of one shape: magic @0, count @4, sequence @8, then count
// 8-byte tags from @16. A descriptor's tags are the home blocks of the
// journaled copies that follow it, a commit block has none, and ext3's
// revoke blocks list freed blocks the same way.
const recHead = 16

// MaxTags is the hard capacity of one record block: one more tag would
// scribble past it. A frozen transaction gets exactly one descriptor, so
// this also bounds its journaled metadata (see Txn.Full).
const MaxTags = (BlockSize - recHead) / 8

// Record writes a record block's head into b, a zeroed block, and returns
// it.
func Record(b []byte, magic uint32, count int, seq uint64) []byte {
	le := binary.LittleEndian
	le.PutUint32(b[0:], magic)
	le.PutUint32(b[4:], uint32(count))
	le.PutUint64(b[8:], seq)
	return b
}

// RecordHead decodes a record block's head.
func RecordHead(b []byte) (magic uint32, count int, seq uint64) {
	le := binary.LittleEndian
	return le.Uint32(b[0:]), int(le.Uint32(b[4:])), le.Uint64(b[8:])
}

// PutTag stores the i'th tag of a record block.
func PutTag(b []byte, i int, blk int64) {
	binary.LittleEndian.PutUint64(b[recHead+8*i:], uint64(blk))
}

// Tag returns the i'th tag of a record block.
func Tag(b []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(b[recHead+8*i:]))
}

// Ring is a log region: the header at block Base, then Len-1 blocks that
// records fill front to back. No record spans the region's end — one that
// does not fit before it starts over right after the header, once what the
// ring held is home. Positions are region-relative.
type Ring struct {
	Base int64 // device block of the header
	Len  int64 // region length in blocks, the header included
	// Desc and Commit are the magic numbers of a block-image format's
	// descriptor and commit blocks.
	Desc, Commit uint32
	// head is the next free block; zero until the first use or Resume.
	head int64
}

// Head returns the next free block.
func (r *Ring) Head() int64 {
	if r.head == 0 {
		return 1 // block 0 of the region is the header
	}
	return r.head
}

// Resume positions the head where a header read at mount says the log
// stood.
func (r *Ring) Resume(h Header) { r.head = int64(h.StartRel) }

// Reset empties the ring: the next record goes right after the header.
func (r *Ring) Reset() { r.head = 1 }

// Fits reports whether n more blocks fit before the region's end.
func (r *Ring) Fits(n int64) bool { return r.Head()+n <= r.Len }

// Reserve takes n blocks at the head and returns where they start. When
// they do not fit, the ring starts over and wrapped is set: the caller
// must make what the ring held dead — point the header at the new start,
// or checkpoint — before the new record is written.
func (r *Ring) Reserve(n int64) (rel int64, wrapped bool) {
	if wrapped = !r.Fits(n); wrapped {
		r.Reset()
	}
	rel = r.Head()
	r.head = rel + n
	return rel, wrapped
}

// Log lays block-image transaction seq out at rel, as device writes: its
// descriptor, tagged with the home of each frozen metadata block, then the
// journaled copies — the same frozen payloads, aimed at the log — and,
// apart, because it is written only once those are durable, the commit
// block that follows them. The writes are appended to log, which a plan
// keeps across commits (Txn.Reqs). commitCount is what the format stores
// in the commit block's count field. desc and commit are zeroed blocks the
// two records are written into.
func (r *Ring) Log(log []disk.Request, rel int64, seq uint64, meta []disk.Request, commitCount int, desc, commit []byte) ([]disk.Request, disk.Request) {
	Record(desc, r.Desc, len(meta), seq)
	log = append(log, disk.Request{Block: r.Base + rel, Data: desc})
	for i, m := range meta {
		PutTag(desc, i, m.Block)
		log = append(log, disk.Request{Block: r.Base + rel + 1 + int64(i), Data: m.Data})
	}
	return log, disk.Request{Block: r.Base + rel + 1 + int64(len(meta)), Data: Record(commit, r.Commit, commitCount, seq)}
}

// Part names the block of a transaction a replay read is for, so the
// file system's reader can attribute a failure to the right block type.
type Part int

const (
	PartDesc Part = iota
	PartCopy
	PartCommit
)

// Stop says why a replay scan ended.
type Stop int

const (
	// StopEnd: the scan reached the region's end.
	StopEnd Stop = iota
	// StopNotDesc: the block at the cursor is not the expected sequence's
	// descriptor — the usual end of the log.
	StopNotDesc
	// StopBadCount: the descriptor's count exceeds a block's tags or the
	// region's end.
	StopBadCount
	// StopNoCommit: the transaction's commit block is missing or belongs
	// to another sequence — a torn transaction.
	StopNoCommit
	// StopRejected: apply turned the transaction down, or failed.
	StopRejected
)

// Cursor is a replay scan's position: the next transaction is expected at
// block Rel carrying sequence Seq.
type Cursor struct {
	Rel int64
	Seq uint64
}

// Replayed is one committed transaction as a scan found it in the log: the
// journaled copies as device writes aimed at the homes the descriptor
// names, with the descriptor and commit blocks that framed them.
type Replayed struct {
	Desc   []byte
	Copies []disk.Request
	Commit []byte
}

// Scan walks (descriptor, n copies, commit) transactions from the cursor,
// handing each to apply once its commit block has checked out, until the
// sequence breaks. It only reads, and only through read — the file system's
// own reader, with its retries and its Detect/Recover record, given a
// device block number — and every write happens inside apply; so what
// recovery does to the disk stays inside the file system. A transaction
// apply returns false for is not counted. The cursor is left at the block
// that ended the scan; that block is returned with the reason, for the
// file system's §5 reaction.
func (r *Ring) Scan(at *Cursor, read func(blk int64, part Part) ([]byte, error),
	apply func(Replayed) (bool, error)) (Stop, []byte, error) {
	for at.Rel < r.Len {
		desc, err := read(r.Base+at.Rel, PartDesc)
		if err != nil {
			return StopNotDesc, nil, err
		}
		magic, n, seq := RecordHead(desc)
		if magic != r.Desc || seq != at.Seq {
			return StopNotDesc, desc, nil
		}
		if n > MaxTags || at.Rel+int64(n)+1 >= r.Len {
			return StopBadCount, desc, nil
		}
		txn := Replayed{Desc: desc, Copies: make([]disk.Request, n)}
		for i := range txn.Copies {
			data, err := read(r.Base+at.Rel+1+int64(i), PartCopy)
			if err != nil {
				return StopNoCommit, nil, err
			}
			txn.Copies[i] = disk.Request{Block: Tag(desc, i), Data: data}
		}
		if txn.Commit, err = read(r.Base+at.Rel+1+int64(n), PartCommit); err != nil {
			return StopNoCommit, nil, err
		}
		if magic, _, seq := RecordHead(txn.Commit); magic != r.Commit || seq != at.Seq {
			return StopNoCommit, txn.Commit, nil
		}
		if ok, err := apply(txn); err != nil || !ok {
			return StopRejected, nil, err
		}
		at.Rel += int64(n) + 2
		at.Seq++
	}
	return StopEnd, nil, nil
}

// LogReader returns Scan's reader for a block-image log on dev (ext3,
// ReiserFS). It reads each log block into a frame from the process's pool
// (bcache.TakeFrame), which the file system gives back with bcache.GiveFrame
// once it has applied what the block carries. A failed read of any log block
// fails the mount: rec records it against types[part] — the descriptor's, a
// copy's and the commit block's types, in Part order.
func LogReader(dev disk.Device, rec *iron.Recorder, types [3]iron.BlockType) func(blk int64, part Part) ([]byte, error) {
	details := [3]string{"journal read failed during recovery", "journal data read failed during recovery", "commit block read failed during recovery"}
	return func(blk int64, part Part) ([]byte, error) {
		buf := bcache.TakeFrame()
		if err := dev.ReadBlock(blk, buf); err == nil {
			return buf, nil
		}
		bcache.GiveFrame(buf)
		rec.Detect(iron.DErrorCode, types[part], details[part])
		rec.Recover(iron.RPropagate, types[part], "mount fails")
		rec.Recover(iron.RStop, types[part], "recovery aborted")
		return nil, vfs.ErrIO
	}
}

// GiveBack hands every block of txn back to the process's pool, once its
// copies are home: frames a LogReader read them into.
func (txn Replayed) GiveBack() {
	bcache.GiveFrame(txn.Desc, txn.Commit)
	bcache.GiveFrames(txn.Copies)
}
