package reiser

import (
	"encoding/binary"
	"fmt"

	"ironfs/internal/disk"
	"ironfs/internal/iron"
	"ironfs/internal/journal"
	"ironfs/internal/vfs"
)

// ReiserFS journaling: a journal header block fronts a ring of
// [descriptor][journaled copies][commit] transactions. Metadata (tree
// nodes, bitmaps, superblock) is journaled; unformatted data is written in
// place before the commit (ordered). Checkpointing is immediate after
// commit, which keeps the ring trivially reusable.
//
// Policy fidelity (§5.2): the descriptor and commit blocks carry magic
// numbers and sequence fields that replay sanity-checks (DSanity) — but
// there is *no* check whatsoever on the journaled payload, so replaying a
// corrupted journal data block destroys whatever home location its
// descriptor names ("e.g., the block is written as the super block").

// jheader is the journal header (first block of the journal region).
type jheader struct {
	Magic    uint32
	StartRel uint64
	StartSeq uint64
}

func (j *jheader) marshal(b []byte) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], j.Magic)
	le.PutUint64(b[8:], j.StartRel)
	le.PutUint64(b[16:], j.StartSeq)
}

func (j *jheader) unmarshal(b []byte) {
	le := binary.LittleEndian
	j.Magic = le.Uint32(b[0:])
	j.StartRel = le.Uint64(b[8:])
	j.StartSeq = le.Uint64(b[16:])
}

// txn is the running transaction: metadata block images plus ordered data.
type txn struct {
	metaOrder []int64
	meta      map[int64][]byte
	metaType  map[int64]iron.BlockType
	dataOrder []int64
	data      map[int64][]byte
	// objs records which objects this transaction touched (any tree item
	// under their key prefix inserted, replaced, or deleted), so fsync of
	// an object whose state already rode an earlier commit is free.
	objs map[objRef]bool
}

func newTxn() *txn {
	return &txn{
		meta:     map[int64][]byte{},
		metaType: map[int64]iron.BlockType{},
		data:     map[int64][]byte{},
		objs:     map[objRef]bool{},
	}
}

func (t *txn) empty() bool { return len(t.metaOrder) == 0 && len(t.dataOrder) == 0 }

// touch records that obj's state changed in this transaction.
func (t *txn) touch(k key) { t.objs[objRef{DirID: k.DirID, ObjID: k.ObjID}] = true }

// touched reports whether obj has uncommitted changes in this transaction.
func (t *txn) touched(r objRef) bool { return t.objs[r] }

// putMeta stages a full metadata block image for journaling.
func (t *txn) putMeta(blk int64, data []byte, bt iron.BlockType) {
	if _, ok := t.meta[blk]; !ok {
		t.metaOrder = append(t.metaOrder, blk)
	}
	t.meta[blk] = data
	t.metaType[blk] = bt
}

// putData stages an ordered data block image.
func (t *txn) putData(blk int64, data []byte) {
	if _, ok := t.data[blk]; !ok {
		t.dataOrder = append(t.dataOrder, blk)
	}
	t.data[blk] = data
}

// drop removes a staged block (used when the block is freed in the same
// transaction).
func (t *txn) drop(blk int64) {
	if _, ok := t.meta[blk]; ok {
		delete(t.meta, blk)
		delete(t.metaType, blk)
		t.metaOrder = journal.RemoveBlock(t.metaOrder, blk)
	}
	if _, ok := t.data[blk]; ok {
		delete(t.data, blk)
		t.dataOrder = journal.RemoveBlock(t.dataOrder, blk)
	}
}

// maxTxnMeta bounds a transaction before auto-commit.
const maxTxnMeta = 48

// maxDescTags is the hard capacity of one descriptor block: more tags
// would scribble past the block. MaybeCommitLocked keeps the running
// transaction far below this even while a commit is in flight.
const maxDescTags = (BlockSize - 16) / 8

// stageMeta records a metadata image in the transaction and the cache, so
// subsequent reads observe it.
func (fs *FS) stageMeta(blk int64, data []byte, bt iron.BlockType) {
	fs.cache.Put(blk, data, true)
	fs.tx.putMeta(blk, data, bt)
}

// stageData records an ordered-data image.
func (fs *FS) stageData(blk int64, data []byte) {
	fs.cache.Put(blk, data, true)
	fs.tx.putData(blk, data)
}

// MaybeCommitLocked commits when the running transaction grows large.
//
//iron:commitpoint the operation-facing commit funnel; its error means the transaction did not reach disk
func (fs *FS) MaybeCommitLocked() error {
	if len(fs.tx.metaOrder) >= maxTxnMeta {
		return fs.commitLocked()
	}
	return nil
}

// commitPlan is ReiserFS's journal.Plan: the frozen transaction as a
// descriptor + journaled copies + commit block at the ring head, plus its
// immediate checkpoint. Writing it with the lock released is what keeps
// clients from stalling behind ReiserFS's commit-under-the-big-lock shape.
type commitPlan struct {
	headEnd int64
	// wrapHdr, when non-nil, is the journal header pointing at the ring's
	// new start; it must reach disk (with a barrier) before the
	// transaction is written, or a crash after the commit would leave
	// replay scanning the stale tail.
	wrapHdr  []byte
	dataReqs []disk.Request
	jReqs    []disk.Request // descriptor + journaled copies
	commit   []byte
	// homeReqs is the immediate checkpoint: the same frozen payloads the
	// journal carries, aimed at their home locations — never the live
	// cache buffers, which the running transaction may be mutating.
	homeReqs  []disk.Request
	advHdr    []byte // header advance after the checkpoint completes
	metaOrder []int64
	dataOrder []int64
}

// commitLocked commits and immediately checkpoints the running
// transaction; the engine runs the freeze/write/finish protocol and
// releases fs.mu around the writes.
//
//iron:txentry commit machinery: reiser whole-metadata group commit writes the journal then checkpoints home blocks
//iron:commitpoint the group-commit body; its error means the journal write or barrier failed
func (fs *FS) commitLocked() error { return fs.jn.Commit(fs) }

// SyncLocked implements namei.Store: sync(2) is one group commit, whose
// immediate checkpoint brings every block home.
//
//iron:commitpoint sync is the group commit; its error means the journal write or barrier failed
func (fs *FS) SyncLocked() error { return fs.commitLocked() }

// DirtyLocked implements journal.Committer.
func (fs *FS) DirtyLocked() bool { return !fs.tx.empty() || fs.sbDirty }

// TouchedLocked implements journal.Committer; key packs an objRef.
func (fs *FS) TouchedLocked(key uint64) bool {
	return fs.tx.touched(objRef{DirID: uint32(key >> 32), ObjID: uint32(key)})
}

// FreezeLocked implements journal.Committer: it encodes the running
// transaction at the ring head, which advances here.
func (fs *FS) FreezeLocked(seq uint64) (journal.Plan, error) {
	t := fs.tx
	if fs.sbDirty {
		sbuf := make([]byte, BlockSize)
		fs.sb.marshal(sbuf)
		t.putMeta(0, sbuf, BTSuper)
		fs.sbDirty = false
	}
	if t.empty() {
		return nil, nil
	}
	fs.tr.Phase("commit", fmt.Sprintf("seq=%d meta=%d", seq, len(t.metaOrder)))
	fs.st.Commits.Inc()
	fs.st.TxnBlocks.Observe(int64(len(t.metaOrder)))
	base := int64(fs.sb.JournalStart)
	if len(t.metaOrder) > maxDescTags {
		// Unreachable by construction — MaybeCommitLocked flushes the running
		// transaction far below one descriptor block's tag capacity, even
		// while a commit is in flight — but an overflow would scribble
		// past the descriptor block, and ReiserFS's answer to a
		// structural write hazard is to panic.
		fs.panicFS(BTJDesc, "transaction overflows descriptor block")
		return nil, vfs.ErrPanicked
	}
	need := int64(len(t.metaOrder) + 2)
	if fs.jhead == 0 {
		fs.jhead = 1
	}
	plan := &commitPlan{metaOrder: t.metaOrder, dataOrder: t.dataOrder}
	if fs.jhead+need > int64(fs.sb.JournalLen) {
		// The ring wraps; prior transactions are checkpointed already.
		fs.jhead = 1
		jh := jheader{Magic: jMagicHeader, StartRel: 1, StartSeq: seq}
		plan.wrapHdr = make([]byte, BlockSize)
		jh.marshal(plan.wrapHdr)
	}
	rel := fs.jhead
	le := binary.LittleEndian

	// Ordered data (frozen copies).
	for _, blk := range t.dataOrder {
		cp := make([]byte, BlockSize)
		copy(cp, t.data[blk])
		plan.dataReqs = append(plan.dataReqs, disk.Request{Block: blk, Data: cp})
	}

	// Descriptor + journaled copies.
	desc := make([]byte, BlockSize)
	le.PutUint32(desc[0:], jMagicDesc)
	le.PutUint32(desc[4:], uint32(len(t.metaOrder)))
	le.PutUint64(desc[8:], seq)
	for i, blk := range t.metaOrder {
		le.PutUint64(desc[16+8*i:], uint64(blk))
	}
	plan.jReqs = append(plan.jReqs, disk.Request{Block: base + rel, Data: desc})
	rel++
	plan.homeReqs = make([]disk.Request, 0, len(t.metaOrder))
	for _, blk := range t.metaOrder {
		cp := make([]byte, BlockSize)
		copy(cp, t.meta[blk])
		plan.jReqs = append(plan.jReqs, disk.Request{Block: base + rel, Data: cp})
		plan.homeReqs = append(plan.homeReqs, disk.Request{Block: blk, Data: cp})
		rel++
	}

	// Commit block.
	plan.commit = make([]byte, BlockSize)
	le.PutUint32(plan.commit[0:], jMagicCommit)
	le.PutUint32(plan.commit[4:], uint32(len(t.metaOrder)))
	le.PutUint64(plan.commit[8:], seq)
	rel++

	// Header advance for after the checkpoint: the transaction is then
	// fully checkpointed and the ring logically empty again.
	jh := jheader{Magic: jMagicHeader, StartRel: uint64(rel), StartSeq: seq + 1}
	plan.advHdr = make([]byte, BlockSize)
	jh.marshal(plan.advHdr)

	plan.headEnd = rel
	fs.jhead = rel
	fs.tx = newTxn()
	return plan, nil
}

// commitBarrier is an ordering point inside the commit path. A barrier
// failure means the commit's durability cannot be vouched for — and
// ReiserFS's policy for any write-path failure is to panic the machine
// (§5.2). Without the degrade, a concurrent fsync waiter would see the
// durable sequence advance with health still Healthy and report durability
// for a commit whose ordering barrier failed.
func (fs *FS) commitBarrier(bt iron.BlockType) error {
	if err := fs.dev.Barrier(); err != nil {
		fs.rec.Detect(iron.DErrorCode, bt, "barrier failed")
		fs.panicFS(bt, "commit barrier failure")
		return vfs.ErrPanicked
	}
	return nil
}

// WritePlan implements journal.Committer.
//
//iron:txentry commit machinery: writes the frozen commit plan (journal descriptor/data/commit blocks) and its immediate checkpoint to disk
func (fs *FS) WritePlan(p journal.Plan) error {
	plan := p.(*commitPlan)
	base := int64(fs.sb.JournalStart)
	hdrEnd := plan.headEnd - 1 // commit block sits just before headEnd

	if plan.wrapHdr != nil {
		if err := fs.devWriteMeta(base, plan.wrapHdr, BTJHeader); err != nil {
			return err
		}
		if err := fs.commitBarrier(BTJHeader); err != nil {
			return err
		}
	}

	// Ordered data first (write errors ignored — reproduced bug).
	if len(plan.dataReqs) > 0 {
		fs.devWriteDataBatch(plan.dataReqs)
		if err := fs.commitBarrier(BTData); err != nil {
			return err
		}
	}

	// Descriptor + journaled copies.
	if err := fs.devWriteMetaBatch(plan.jReqs, BTJDesc); err != nil {
		return err
	}
	if err := fs.commitBarrier(BTJDesc); err != nil {
		return err
	}

	// Commit block.
	if err := fs.devWriteMeta(base+hdrEnd, plan.commit, BTJCommit); err != nil {
		return err
	}
	if err := fs.commitBarrier(BTJCommit); err != nil {
		return err
	}

	// Immediate checkpoint: home locations, from the frozen payloads.
	if err := fs.devWriteMetaBatch(plan.homeReqs, BTInternal); err != nil {
		return err
	}
	if err := fs.commitBarrier(BTInternal); err != nil {
		return err
	}

	// Advance the header: the transaction is fully checkpointed.
	return fs.devWriteMeta(base, plan.advHdr, BTJHeader)
}

// FinishLocked implements journal.Committer: the plan's blocks are
// checkpointed, so their dirty pins come off.
func (fs *FS) FinishLocked(p journal.Plan) error {
	plan := p.(*commitPlan)
	journal.Unpin(fs.cache, plan.metaOrder, fs.tx.meta, fs.tx.data)
	journal.Unpin(fs.cache, plan.dataOrder, fs.tx.meta, fs.tx.data)
	return nil
}

// loadJournalHeader initializes the sequence space on a clean mount.
func (fs *FS) loadJournalHeader() error {
	buf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(int64(fs.sb.JournalStart), buf); err != nil {
		fs.rec.Detect(iron.DErrorCode, BTJHeader, "journal header read failed")
		fs.rec.Recover(iron.RPropagate, BTJHeader, "mount fails")
		fs.rec.Recover(iron.RStop, BTJHeader, "mount aborted")
		return vfs.ErrIO
	}
	var jh jheader
	jh.unmarshal(buf)
	if jh.Magic != jMagicHeader {
		fs.rec.Detect(iron.DSanity, BTJHeader, "journal header bad magic")
		fs.rec.Recover(iron.RPropagate, BTJHeader, "mount fails")
		fs.rec.Recover(iron.RStop, BTJHeader, "mount aborted")
		return vfs.ErrCorrupt
	}
	if jh.StartSeq > 0 {
		fs.jn.Recovered(jh.StartSeq - 1)
	}
	fs.jhead = int64(jh.StartRel)
	if fs.jhead == 0 {
		fs.jhead = 1
	}
	return nil
}

// replayJournal applies any committed-but-uncheckpointed transaction. The
// payload is replayed with no integrity check — the reproduced §5.2 flaw.
//
//iron:txentry recovery machinery: mount-time journal replay writes committed transactions home
func (fs *FS) replayJournal() error {
	fs.tr.Phase("replay", "reiser")
	fs.st.Replays.Inc()
	base := int64(fs.sb.JournalStart)
	if err := fs.loadJournalHeader(); err != nil {
		return err
	}
	le := binary.LittleEndian
	rel := fs.jhead
	seq := fs.jn.Seq() + 1

	for rel < int64(fs.sb.JournalLen) {
		hdr := make([]byte, BlockSize)
		if err := fs.dev.ReadBlock(base+rel, hdr); err != nil {
			fs.rec.Detect(iron.DErrorCode, BTJDesc, "journal read failed during recovery")
			fs.rec.Recover(iron.RPropagate, BTJDesc, "mount fails")
			fs.rec.Recover(iron.RStop, BTJDesc, "recovery aborted")
			return vfs.ErrIO
		}
		if le.Uint32(hdr[0:]) != jMagicDesc || le.Uint64(hdr[8:]) != seq {
			break // end of log (or a crash tore the descriptor)
		}
		n := int(le.Uint32(hdr[4:]))
		if n < 0 || 16+8*n > BlockSize || rel+int64(n)+1 >= int64(fs.sb.JournalLen) {
			fs.rec.Detect(iron.DSanity, BTJDesc, "descriptor count out of range")
			break
		}
		payload := make([][]byte, n)
		homes := make([]int64, n)
		for i := 0; i < n; i++ {
			homes[i] = int64(le.Uint64(hdr[16+8*i:]))
			pb := make([]byte, BlockSize)
			if err := fs.dev.ReadBlock(base+rel+1+int64(i), pb); err != nil {
				fs.rec.Detect(iron.DErrorCode, BTJData, "journal data read failed during recovery")
				fs.rec.Recover(iron.RPropagate, BTJData, "mount fails")
				fs.rec.Recover(iron.RStop, BTJData, "recovery aborted")
				return vfs.ErrIO
			}
			payload[i] = pb
		}
		cb := make([]byte, BlockSize)
		if err := fs.dev.ReadBlock(base+rel+1+int64(n), cb); err != nil {
			fs.rec.Detect(iron.DErrorCode, BTJCommit, "commit read failed during recovery")
			fs.rec.Recover(iron.RPropagate, BTJCommit, "mount fails")
			fs.rec.Recover(iron.RStop, BTJCommit, "recovery aborted")
			return vfs.ErrIO
		}
		if le.Uint32(cb[0:]) != jMagicCommit || le.Uint64(cb[8:]) != seq {
			break // uncommitted tail: correctly discarded
		}
		// Replay verbatim: no sanity or type check on the payload (§5.2).
		// A corrupt journal data block lands on its home location as-is —
		// including home 0, the superblock.
		for i := 0; i < n; i++ {
			if homes[i] < 0 || homes[i] >= fs.dev.NumBlocks() {
				continue // bound only to keep the simulator in its arena
			}
			if err := fs.devWriteMeta(homes[i], payload[i], BTJData); err != nil {
				return err
			}
		}
		rel += int64(n) + 2
		seq++
	}
	if err := fs.dev.Barrier(); err != nil {
		return vfs.ErrIO
	}

	jh := jheader{Magic: jMagicHeader, StartRel: 1, StartSeq: seq}
	hbuf := make([]byte, BlockSize)
	jh.marshal(hbuf)
	if err := fs.devWriteMeta(base, hbuf, BTJHeader); err != nil {
		return err
	}
	fs.jn.Recovered(seq - 1)
	fs.jhead = 1

	// The replayed superblock may have changed under us; reload it. If the
	// journal replayed garbage over it, the next sanity check will see it.
	sbuf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(0, sbuf); err != nil {
		fs.rec.Detect(iron.DErrorCode, BTSuper, "superblock reread failed")
		return vfs.ErrIO
	}
	fs.sb.unmarshal(sbuf)
	if err := fs.sb.sane(fs.dev.NumBlocks()); err != nil {
		fs.rec.Detect(iron.DSanity, BTSuper, "superblock corrupt after replay: "+err.Error())
		fs.rec.Recover(iron.RStop, BTSuper, "file system unusable")
		return vfs.ErrCorrupt
	}
	fs.cache.Reset()
	return nil
}
