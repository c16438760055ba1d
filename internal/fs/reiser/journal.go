package reiser

import (
	"ironfs/internal/bcache"
	"ironfs/internal/disk"
	"ironfs/internal/iron"
	"ironfs/internal/journal"
	"ironfs/internal/trace"
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

// maxTxnMeta bounds a transaction's journaled metadata before auto-commit;
// unformatted data is not capped.
const maxTxnMeta = 48

// MaybeCommitLocked commits when the running transaction grows large.
//
//iron:commitpoint the operation-facing commit funnel; its error means the transaction did not reach disk
func (fs *FS) MaybeCommitLocked() error {
	if fs.tx.Full(maxTxnMeta, journal.NoCap) {
		return fs.commitLocked()
	}
	return nil
}

// commitPlan is ReiserFS's journal.Plan: the frozen transaction as a
// descriptor + journaled copies + commit block at the ring head, plus its
// immediate checkpoint. Writing it with the lock released is what keeps
// clients from stalling behind ReiserFS's commit-under-the-big-lock shape.
type commitPlan struct {
	// fz is the frozen transaction. Its metadata payloads go out twice:
	// into the log, and — the immediate checkpoint — to their home
	// locations, never from the live cache buffers, which the running
	// transaction may be mutating.
	fz journal.Frozen
	// wrapHdr, when non-nil, is the journal header pointing at the ring's
	// new start; it must reach disk (with a barrier) before the
	// transaction is written, or a crash after the commit would leave
	// replay scanning the stale tail. It, advHdr and the descriptor and
	// commit blocks are frames of the transaction's, like fz's payloads,
	// and go back with them.
	wrapHdr []byte
	jReqs   []disk.Request // descriptor + journaled copies
	commit  disk.Request
	advHdr  []byte // header advance after the checkpoint completes
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
func (fs *FS) DirtyLocked() bool { return !fs.tx.Empty() || fs.sbDirty }

// TouchedLocked implements journal.Committer; key packs an objRef.
func (fs *FS) TouchedLocked(key uint64) bool {
	return fs.tx.Touched(refOf(key))
}

// FreezeLocked implements journal.Committer: it encodes the running
// transaction at the ring head, which advances here.
func (fs *FS) FreezeLocked(seq uint64) (journal.Plan, error) {
	t := fs.tx
	n := t.Meta.Len()
	if fs.sbDirty {
		n++ // the superblock image joins below
	}
	if n == 0 && t.Data.Len() == 0 {
		return nil, nil
	}
	fs.jn.Committed(seq, trace.F("meta", n))
	if n > journal.MaxTags {
		// Unreachable by construction — MaybeCommitLocked flushes the running
		// transaction far below one descriptor block's tag capacity, even
		// while a commit is in flight — but an overflow would scribble
		// past the descriptor block, and ReiserFS's answer to a
		// structural write hazard is to panic.
		fs.panicFS(BTJDesc, "transaction overflows descriptor block")
		return nil, vfs.ErrPanicked
	}
	plan := &commitPlan{fz: t.Freeze()}
	if fs.sbDirty {
		// The superblock lives in fs.sb, not in the cache: its image is
		// marshalled here, into a frame of the transaction's like every
		// frozen payload, and journaled last.
		sbuf := t.Frame()
		fs.sb.marshal(sbuf)
		plan.fz.Meta = append(plan.fz.Meta, disk.Request{Block: 0, Data: sbuf})
		fs.sbDirty = false
	}
	rel, wrapped := fs.ring.Reserve(int64(n) + 2)
	if wrapped {
		// The ring wraps; prior transactions are checkpointed already.
		plan.wrapHdr = journal.Header{Magic: jMagicHeader, StartRel: 1, StartSeq: seq}.Encode(t.Frame())
	}
	plan.jReqs, plan.commit = fs.ring.Log(t.Reqs(), rel, seq, plan.fz.Meta, n, t.Frame(), t.Frame())

	// Header advance for after the checkpoint: the transaction is then
	// fully checkpointed and the ring logically empty again.
	plan.advHdr = journal.Header{Magic: jMagicHeader, StartRel: uint64(fs.ring.Head()), StartSeq: seq + 1}.Encode(t.Frame())
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

	if plan.wrapHdr != nil {
		if err := fs.devWriteMeta(fs.ring.Base, plan.wrapHdr, BTJHeader); err != nil {
			return err
		}
		if err := fs.commitBarrier(BTJHeader); err != nil {
			return err
		}
	}

	// Ordered data first (write errors ignored — reproduced bug).
	if len(plan.fz.Data) > 0 {
		fs.devWriteDataBatch(plan.fz.Data)
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
	if err := fs.devWriteMeta(plan.commit.Block, plan.commit.Data, BTJCommit); err != nil {
		return err
	}
	if err := fs.commitBarrier(BTJCommit); err != nil {
		return err
	}

	// Immediate checkpoint: home locations, from the frozen payloads.
	if err := fs.devWriteMetaBatch(plan.fz.Meta, BTInternal); err != nil {
		return err
	}
	if err := fs.commitBarrier(BTInternal); err != nil {
		return err
	}

	// Advance the header: the transaction is fully checkpointed.
	return fs.devWriteMeta(fs.ring.Base, plan.advHdr, BTJHeader)
}

// FinishLocked implements journal.Committer: the plan's blocks are
// checkpointed, so their dirty pins come off and their frames, with the
// log's, go back to the transaction.
func (fs *FS) FinishLocked(p journal.Plan) error {
	plan := p.(*commitPlan)
	fs.tx.Unpin(plan.fz.Meta, plan.fz.Data)
	bcache.GiveFrames(plan.fz.Meta, plan.fz.Data)
	bcache.GiveFrame(plan.jReqs[0].Data, plan.commit.Data, plan.advHdr, plan.wrapHdr)
	fs.tx.Reuse(plan.fz, plan.jReqs, nil)
	return nil
}

// loadJournalHeader initializes the ring and the sequence space from the
// journal header.
func (fs *FS) loadJournalHeader() error {
	fs.ring = &journal.Ring{Base: int64(fs.sb.JournalStart), Len: int64(fs.sb.JournalLen),
		Desc: jMagicDesc, Commit: jMagicCommit}
	buf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(fs.ring.Base, buf); err != nil {
		fs.rec.Detect(iron.DErrorCode, BTJHeader, "journal header read failed")
		fs.rec.Recover(iron.RPropagate, BTJHeader, "mount fails")
		fs.rec.Recover(iron.RStop, BTJHeader, "mount aborted")
		return vfs.ErrIO
	}
	jh := journal.ParseHeader(buf)
	if jh.Magic != jMagicHeader {
		fs.rec.Detect(iron.DSanity, BTJHeader, "journal header bad magic")
		fs.rec.Recover(iron.RPropagate, BTJHeader, "mount fails")
		fs.rec.Recover(iron.RStop, BTJHeader, "mount aborted")
		return vfs.ErrCorrupt
	}
	if jh.StartSeq > 0 {
		fs.jn.Recovered(jh.StartSeq - 1)
	}
	fs.ring.Resume(jh)
	return nil
}

// replayJournal applies any committed-but-uncheckpointed transaction. The
// payload is replayed with no integrity check — the reproduced §5.2 flaw.
//
//iron:txentry recovery machinery: mount-time journal replay writes committed transactions home
func (fs *FS) replayJournal() error {
	fs.jn.Replayed("reiser")
	if err := fs.loadJournalHeader(); err != nil {
		return err
	}
	at := journal.Cursor{Rel: fs.ring.Head(), Seq: fs.jn.Seq() + 1}
	// A descriptor or commit block that is not the expected one ends the
	// log quietly: the end of the log, or a tail the crash tore, correctly
	// discarded. Only the descriptor's count is sanity-checked.
	readLog := journal.LogReader(fs.dev, fs.rec, [3]iron.BlockType{BTJDesc, BTJData, BTJCommit})
	why, _, err := fs.ring.Scan(&at, readLog, func(txn journal.Replayed) (bool, error) {
		// Replay verbatim: no sanity or type check on the payload (§5.2).
		// A corrupt journal data block lands on its home location as-is —
		// including home 0, the superblock.
		for _, c := range txn.Copies {
			if c.Block < 0 || c.Block >= fs.dev.NumBlocks() {
				continue // bound only to keep the simulator in its arena
			}
			if err := fs.devWriteMeta(c.Block, c.Data, BTJData); err != nil {
				return false, err
			}
		}
		txn.GiveBack()
		return true, nil
	})
	if err != nil {
		return err
	}
	if why == journal.StopBadCount {
		fs.rec.Detect(iron.DSanity, BTJDesc, "descriptor count out of range")
	}
	if err := fs.dev.Barrier(); err != nil {
		return vfs.ErrIO
	}

	hbuf := journal.Header{Magic: jMagicHeader, StartRel: 1, StartSeq: at.Seq}.Block()
	if err := fs.devWriteMeta(fs.ring.Base, hbuf, BTJHeader); err != nil {
		return err
	}
	fs.jn.Recovered(at.Seq - 1)
	fs.ring.Reset()

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
