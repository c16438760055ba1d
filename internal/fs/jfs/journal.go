package jfs

import (
	"encoding/binary"
	"slices"

	"ironfs/internal/bcache"
	"ironfs/internal/disk"
	"ironfs/internal/iron"
	"ironfs/internal/journal"
	"ironfs/internal/trace"
	"ironfs/internal/vfs"
)

// JFS journaling is record-level (§5.3: "JFS uses record-level journaling
// to reduce journal traffic"): instead of whole-block images, the log
// carries small redo records (home block, offset, payload) packed into log
// blocks, followed by a commit record. Checkpointing of the full dirty
// blocks is immediate after commit.

// record types within log blocks.
const (
	recRedo   = uint8(1)
	recCommit = uint8(2)
	recHdrLen = 16
)

// redoRec is one sub-block redo record.
type redoRec struct {
	Blk  int64
	Off  int
	Data []byte
}

// txMeta reads metadata block blk with readMeta's policy and stages the
// buffer it returns (or the image already staged) to edit in place.
func (fs *FS) txMeta(blk int64, bt iron.BlockType) ([]byte, error) {
	buf, err := fs.readMeta(blk, bt)
	if err != nil {
		return nil, err
	}
	if img := fs.tx.Meta.Payload(blk); img != nil {
		buf = img
	}
	fs.tx.StageMeta(blk, buf, bt)
	return buf, nil
}

// logMeta applies a sub-block mutation to the block's staged full image,
// the checkpoint's, and logs a redo record of just the mutated bytes.
func (fs *FS) logMeta(blk int64, off int, data []byte, bt iron.BlockType) error {
	img, err := fs.txMeta(blk, bt)
	if err != nil {
		return err
	}
	copy(img[off:], data)
	copy(fs.logRedo(blk, off, len(data)), data)
	return nil
}

// logRedo appends an n-byte redo record at blk+off; it returns the payload.
func (fs *FS) logRedo(blk int64, off, n int) []byte {
	at := len(fs.redo)
	fs.redo = slices.Grow(fs.redo, n)[:at+n]
	clear(fs.redo[at:])
	fs.records = append(fs.records, redoRec{Blk: blk, Off: off, Data: fs.redo[at:]})
	return fs.redo[at:]
}

// maxRedoLen is the largest redo payload one log block carries.
const maxRedoLen = BlockSize - recHdrLen

// logNewMeta stages a zeroed image for blk, a block just allocated for
// metadata, and logs the whole of it, so that neither the checkpoint nor a
// replay leaves the bytes of the block's previous life under the new
// structure: a freed file's data would read as pointers. Nothing is read
// from the block.
func (fs *FS) logNewMeta(blk int64, bt iron.BlockType) {
	fs.tx.StageMeta(blk, make([]byte, BlockSize), bt)
	for off := 0; off < BlockSize; off += maxRedoLen {
		fs.logRedo(blk, off, min(maxRedoLen, BlockSize-off))
	}
}

// maxTxnRecords bounds a transaction's redo records before auto-commit.
const maxTxnRecords = 256

//iron:commitpoint the operation-facing commit funnel; its error means the transaction did not reach disk
func (fs *FS) MaybeCommitLocked() error {
	if len(fs.records) >= maxTxnRecords {
		return fs.commitLocked()
	}
	return nil
}

// commitPlan is JFS's journal.Plan: the frozen transaction as packed redo
// records plus a commit record in log blocks, and its immediate checkpoint.
type commitPlan struct {
	// fz is the frozen transaction: the ordered data, and — the immediate
	// checkpoint — frozen copies of the full dirty images, never the live
	// cache buffers, which the running transaction may be mutating.
	fz journal.Frozen
	// wrapSuper, when non-nil, points the log superblock at the ring's new
	// start; it must reach disk (with a barrier) before the log blocks.
	// It, the log blocks and advSuper are frames of the transaction's,
	// like fz's payloads, and go back with them.
	wrapSuper []byte
	logReqs   []disk.Request
	advSuper  []byte // log-superblock advance after the checkpoint
}

// commitLocked writes ordered data, streams the redo records plus a commit
// record into the log, checkpoints the dirty blocks, and advances the log
// superblock. Write errors on data, log-data and checkpoint writes are all
// ignored (the §5.3 DZero finding); only the log-superblock write is
// checked — and crashes on failure. The engine runs the freeze/write/finish
// protocol and releases fs.mu around the writes.
//
//iron:txentry commit machinery: jfs group commit writes log records then checkpoints home blocks
//iron:commitpoint the group-commit body; its error means the journal write or barrier failed
func (fs *FS) commitLocked() error { return fs.jn.Commit(fs) }

// SyncLocked implements namei.Store: sync(2) is one group commit, whose
// immediate checkpoint brings every block home.
//
//iron:commitpoint sync is the group commit; its error means the journal write or barrier failed
func (fs *FS) SyncLocked() error { return fs.commitLocked() }

// DirtyLocked implements journal.Committer.
func (fs *FS) DirtyLocked() bool { return !fs.tx.Empty() }

// TouchedLocked implements journal.Committer; key is an inode number.
func (fs *FS) TouchedLocked(key uint64) bool { return fs.tx.Touched(uint32(key)) }

// FreezeLocked implements journal.Committer: it packs the running
// transaction's records into log blocks at the log head, which advances
// here.
func (fs *FS) FreezeLocked(seq uint64) (journal.Plan, error) {
	t := fs.tx
	if t.Empty() {
		return nil, nil
	}
	fs.jn.Committed(seq, trace.F("records", len(fs.records)), trace.F("data", t.Data.Len()))

	// Pack records into log blocks, frames of the transaction's. The redo
	// payloads were copied when the records were logged, so the packed
	// blocks are already frozen. Their log addresses are set once the
	// ring has reserved room for them.
	logReqs := t.Reqs()
	cur := t.Frame()
	off := 0
	le := binary.LittleEndian
	emit := func(typ uint8, blk int64, boff int, payload []byte) {
		need := recHdrLen + len(payload)
		if off+need > BlockSize {
			logReqs = append(logReqs, disk.Request{Data: cur})
			cur = t.Frame()
			off = 0
		}
		cur[off] = typ
		le.PutUint16(cur[off+2:], uint16(len(payload)))
		le.PutUint64(cur[off+4:], uint64(blk))
		le.PutUint16(cur[off+12:], uint16(boff))
		copy(cur[off+recHdrLen:], payload)
		off += need
	}
	for _, r := range fs.records {
		emit(recRedo, r.Blk, r.Off, r.Data)
	}
	var seqb [8]byte
	le.PutUint64(seqb[:], seq)
	emit(recCommit, 0, 0, seqb[:])
	logReqs = append(logReqs, disk.Request{Data: cur})

	if int64(len(logReqs))+1 > fs.ring.Len {
		// Unreachable by construction — maxTxnRecords keeps a transaction
		// far below the ring's capacity even while a commit is in flight
		// — but a transaction larger than the whole ring would scribble
		// past the log region, and JFS's answer to a log-structural
		// hazard is an explicit crash.
		fs.crash(BTJData, "transaction overflows log ring")
		return nil, vfs.ErrPanicked
	}
	plan := &commitPlan{fz: t.Freeze()}
	fs.records, fs.redo = fs.records[:0], fs.redo[:0] // packed: both start over
	rel, wrapped := fs.ring.Reserve(int64(len(logReqs)))
	if wrapped {
		// Wrap: point the log superblock at the new start first.
		plan.wrapSuper = journal.Header{Magic: jMagic, Version: 1, StartRel: 1, StartSeq: seq}.Encode(t.Frame())
	}
	for i := range logReqs {
		logReqs[i].Block = fs.ring.Base + rel + int64(i)
	}
	plan.logReqs = logReqs
	plan.advSuper = journal.Header{Magic: jMagic, Version: 1, StartRel: uint64(fs.ring.Head()), StartSeq: seq + 1}.Encode(t.Frame())
	return plan, nil
}

// commitBarrier is an ordering point inside the commit path. A barrier
// failure means the commit's durability cannot be vouched for; JFS's
// milder stop applies — propagate and remount read-only. Without the
// degrade, an fsync waiter would see the durable sequence advance with
// health still Healthy and report durability for a commit whose ordering
// barrier failed.
func (fs *FS) commitBarrier(bt iron.BlockType) error {
	if err := fs.dev.Barrier(); err != nil {
		fs.rec.Detect(iron.DErrorCode, bt, "barrier failed")
		fs.remountRO(bt, "commit barrier failure")
		return vfs.ErrIO
	}
	return nil
}

// WritePlan implements journal.Committer.
//
//iron:txentry commit machinery: writes the frozen commit plan (ordered data, log records, checkpoint) and advances the log superblock
func (fs *FS) WritePlan(p journal.Plan) error {
	plan := p.(*commitPlan)

	// Ordered data first.
	if len(plan.fz.Data) > 0 {
		fs.devWriteBatch(plan.fz.Data)
		if err := fs.commitBarrier(BTData); err != nil {
			return err
		}
	}

	if plan.wrapSuper != nil {
		if err := fs.devWrite(fs.ring.Base, plan.wrapSuper, BTJSuper); err != nil {
			return err
		}
		if err := fs.commitBarrier(BTJSuper); err != nil {
			return err
		}
	}

	fs.devWriteBatch(plan.logReqs) // log write errors ignored — reproduced bug class
	if err := fs.commitBarrier(BTJData); err != nil {
		return err
	}

	// Checkpoint full dirty images (write errors ignored).
	fs.devWriteBatch(plan.fz.Meta)
	if err := fs.commitBarrier(BTData); err != nil {
		return err
	}

	return fs.devWrite(fs.ring.Base, plan.advSuper, BTJSuper)
}

// FinishLocked implements journal.Committer: the plan's blocks are
// checkpointed, so their dirty pins come off and their frames, with the
// log's, go back to the transaction.
func (fs *FS) FinishLocked(p journal.Plan) error {
	plan := p.(*commitPlan)
	fs.tx.Unpin(plan.fz.Meta, plan.fz.Data)
	bcache.GiveFrames(plan.fz.Meta, plan.fz.Data, plan.logReqs)
	bcache.GiveFrame(plan.advSuper, plan.wrapSuper)
	fs.tx.Reuse(plan.fz, plan.logReqs, nil)
	return nil
}

// loadLogSuper initializes the ring and the sequence space from the log
// superblock, sanity-checking its magic and version (§5.3).
func (fs *FS) loadLogSuper() error {
	fs.ring = &journal.Ring{Base: int64(fs.sb.LogStart), Len: int64(fs.sb.LogLen)}
	buf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(fs.ring.Base, buf); err != nil {
		fs.rec.Detect(iron.DErrorCode, BTJSuper, "log superblock read failed")
		fs.rec.Recover(iron.RPropagate, BTJSuper, "mount fails")
		fs.rec.Recover(iron.RStop, BTJSuper, "mount aborted")
		return vfs.ErrIO
	}
	ls := journal.ParseHeader(buf)
	if ls.Magic != jMagic || ls.Version != 1 {
		fs.rec.Detect(iron.DSanity, BTJSuper, "log superblock bad magic/version")
		fs.rec.Recover(iron.RPropagate, BTJSuper, "mount fails")
		fs.rec.Recover(iron.RStop, BTJSuper, "mount aborted")
		return vfs.ErrCorrupt
	}
	if ls.StartSeq > 0 {
		fs.jn.Recovered(ls.StartSeq - 1)
	}
	fs.ring.Resume(ls)
	return nil
}

// replayLog brings committed record sets home after an unclean shutdown, in
// two passes. A sanity-check failure during replay aborts the replay (§5.3:
// "during journal replay, a sanity-check failure causes the replay to
// abort").
//
// Pass 1 scans the log and only collects: a transaction's redo records
// count as committed once its commit record checks out, and nothing is
// written while the scan runs. A log read that fails therefore leaves the
// volume as the crash left it — no transaction applied, the log intact — and
// fails the mount.
//
// Pass 2 walks the committed records in log order, reads each home block
// once, at its first touch, patches every record into that image in memory,
// and then writes each image once, in ascending block order; its reads all
// come before its writes, so a home read that fails leaves the volume
// untouched too. Patching record by record through the device instead costs
// a read and a write per record, and under a write-behind queue every one
// of those reads names a block whose write is still queued, so each record
// drains the queue as a one-block batch (docs/PERF.md, "Recovery cost").
// The writes stay one devWrite per block rather than one batch: devWrite is
// where §5.3's ignore-the-write-error policy lives, and a batch would let
// one failed block decide what happens to its neighbours.
//
// Every 4 KiB buffer replay uses — the scan's, each kept log block's and
// each home image — is a frame from the process's pool, given back once
// the home writes have returned.
//
//iron:txentry recovery machinery: mount-time log replay writes committed transactions home
func (fs *FS) replayLog() error {
	fs.jn.Replayed("jfs")
	if err := fs.loadLogSuper(); err != nil {
		return err
	}
	base := fs.ring.Base
	le := binary.LittleEndian
	rel := fs.ring.Head()
	seq := fs.jn.Seq() + 1

	// recs holds every redo record the scan found, in log order; the
	// first committed of them belong to transactions whose commit record
	// checked out.
	var recs []redoRec
	committed := 0
	buf := bcache.TakeFrame()
	frames := [][]byte{buf}
scan:
	for rel < fs.ring.Len {
		if err := fs.dev.ReadBlock(base+rel, buf); err != nil {
			fs.rec.Detect(iron.DErrorCode, BTJData, "log read failed during recovery")
			fs.rec.Recover(iron.RPropagate, BTJData, "mount fails")
			fs.rec.Recover(iron.RStop, BTJData, "recovery aborted")
			return vfs.ErrIO
		}
		// The scan reads every log block into buf; a block that carries
		// redo records is copied once into a frame, and its records alias
		// the copy.
		var kept []byte
		off := 0
		for off+recHdrLen <= BlockSize {
			typ := buf[off]
			if typ == 0 {
				if off == 0 {
					break scan // an untouched block: end of log
				}
				break // end of this block's records; txns continue next block
			}
			plen := int(le.Uint16(buf[off+2:]))
			if off+recHdrLen+plen > BlockSize {
				fs.rec.Detect(iron.DSanity, BTJData, "log record overflows block")
				fs.rec.Recover(iron.RStop, BTJData, "replay aborted")
				break scan
			}
			switch typ {
			case recRedo:
				blk := int64(le.Uint64(buf[off+4:]))
				boff := int(le.Uint16(buf[off+12:]))
				if blk < 0 || blk >= fs.dev.NumBlocks() || boff+plen > BlockSize {
					fs.rec.Detect(iron.DSanity, BTJData, "log record out of range")
					fs.rec.Recover(iron.RStop, BTJData, "replay aborted")
					break scan
				}
				if kept == nil {
					kept = bcache.TakeFrame()
					copy(kept, buf)
					frames = append(frames, kept)
				}
				recs = append(recs, redoRec{Blk: blk, Off: boff, Data: kept[off+recHdrLen:][:plen]})
			case recCommit:
				if plen != 8 || le.Uint64(buf[off+recHdrLen:]) != seq {
					fs.rec.Detect(iron.DSanity, BTJData, "commit record sequence mismatch")
					fs.rec.Recover(iron.RStop, BTJData, "replay aborted")
					break scan
				}
				committed = len(recs)
				seq++
			default:
				fs.rec.Detect(iron.DSanity, BTJData, "unknown log record type")
				fs.rec.Recover(iron.RStop, BTJData, "replay aborted")
				break scan
			}
			off += recHdrLen + plen
		}
		rel++
	}

	images := map[int64][]byte{}
	var homes []int64
	for _, r := range recs[:committed] {
		img := images[r.Blk]
		if img == nil {
			img = bcache.TakeFrame()
			frames = append(frames, img)
			if err := fs.dev.ReadBlock(r.Blk, img); err != nil {
				fs.rec.Detect(iron.DErrorCode, BTJData, "home read failed during replay")
				fs.rec.Recover(iron.RStop, BTJData, "replay aborted")
				return vfs.ErrIO
			}
			images[r.Blk] = img
			homes = append(homes, r.Blk)
		}
		copy(img[r.Off:], r.Data)
	}
	// Mount loaded the allocation counts before this replay; where the log
	// names their blocks, the images above are the counts to mount with.
	if img := images[bmapDescBlk]; img != nil {
		fs.bmd.unmarshal(img)
	}
	if img := images[int64(fs.sb.IMapCtl)]; img != nil {
		fs.imc.unmarshal(img)
	}
	slices.Sort(homes)
	for _, blk := range homes {
		if err := fs.devWrite(blk, images[blk], BTData); err != nil {
			return err
		}
	}
	bcache.GiveFrame(frames...)
	if err := fs.dev.Barrier(); err != nil {
		return vfs.ErrIO
	}
	lb := journal.Header{Magic: jMagic, Version: 1, StartRel: 1, StartSeq: seq}.Block()
	if err := fs.devWrite(base, lb, BTJSuper); err != nil {
		return err
	}
	fs.jn.Recovered(seq - 1)
	fs.ring.Reset()
	return nil
}
