package ext3

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"ironfs/internal/disk"
	"ironfs/internal/iron"
	"ironfs/internal/journal"
	"ironfs/internal/vfs"
)

// Journal block magics (the "type information" stock ext3 sanity-checks on
// its journal blocks, §5.1).
const (
	jMagicSuper  = uint32(0xC03B3998)
	jMagicDesc   = uint32(0xC03B3901)
	jMagicCommit = uint32(0xC03B3902)
	jMagicRevoke = uint32(0xC03B3903)
)

// maxTxnMeta caps the metadata blocks of one transaction; the running
// transaction auto-commits beyond this.
const maxTxnMeta = 64

// checkpointHighWater forces a full checkpoint once this many home blocks
// are awaiting checkpoint, bounding pinned cache.
const checkpointHighWater = 256

// The running transaction (fs.tx) stages blocks through these four. ext3
// hands its callers the pinned cache buffer itself, to mutate in place; the
// transaction registers that same buffer.

// txMeta returns a mutable buffer for metadata block blk, reading it with
// full policy on first touch and staging it for journaling.
func (fs *FS) txMeta(blk int64, bt iron.BlockType) ([]byte, error) {
	buf, err := fs.readMeta(blk, bt)
	if err != nil {
		return nil, err
	}
	// The fresh read may already have been evicted (it can be the only
	// clean block in a dirty-saturated cache); staging re-inserts this
	// exact buffer, pinned for the transaction.
	fs.tx.StageMeta(blk, buf, bt)
	return buf, nil
}

// txMetaNew installs a zeroed buffer for a freshly allocated metadata
// block, skipping the read of its stale contents.
func (fs *FS) txMetaNew(blk int64, bt iron.BlockType) []byte {
	buf := make([]byte, BlockSize)
	fs.tx.StageMeta(blk, buf, bt)
	return buf
}

// txData returns a mutable buffer for an ordered-data block, reading the
// old contents on first touch (needed for partial overwrites and parity).
func (fs *FS) txData(blk int64, bt iron.BlockType) ([]byte, error) {
	buf := fs.cache.Get(blk)
	if buf == nil {
		buf = make([]byte, BlockSize)
		if err := fs.dev.ReadBlock(blk, buf); err != nil {
			fs.rec.Detect(iron.DErrorCode, bt, "data read for modify failed")
			fs.rec.Recover(iron.RPropagate, bt, "write aborted")
			return nil, vfs.ErrIO
		}
	}
	fs.tx.StageData(blk, buf, bt)
	return buf, nil
}

// txDataNew installs a zeroed buffer for a freshly allocated data block.
func (fs *FS) txDataNew(blk int64, bt iron.BlockType) []byte {
	buf := make([]byte, BlockSize)
	fs.tx.StageData(blk, buf, bt)
	return buf
}

// revoke records that blk was freed: replay must not resurrect it from any
// earlier journaled copy. The block leaves the transaction and the cache.
func (fs *FS) revoke(blk int64) {
	fs.revokes = append(fs.revokes, blk)
	fs.tx.Drop(blk)
}

// checkpointEntry is one committed home block awaiting its final write.
// data is the payload frozen at commit time: the checkpoint must write the
// *committed* image, never the live cache buffer, which the running
// transaction may since have re-dirtied with uncommitted state. A nil data
// marks an entry killed by a later committed revoke.
// (Replica copies are written at commit time, not at checkpoint.)
type checkpointEntry struct {
	home int64
	bt   iron.BlockType
	data []byte
}

// pending tracks committed-but-not-checkpointed state. seen maps a home
// block to its index in entries, so a later commit of the same block
// refreshes the frozen payload in place.
type pendingState struct {
	entries []checkpointEntry
	seen    map[int64]int
}

// ---------------------------------------------------------------------------
// Commit.
// ---------------------------------------------------------------------------

// maxTxnData bounds dirty ordered data before an auto-commit, keeping the
// pinned set well under the cache capacity.
const maxTxnData = 768

// MaybeCommitLocked commits the running transaction if it has grown large. While
// a commit is writing, the running transaction keeps absorbing operations —
// but not without bound: a frozen transaction gets exactly one descriptor
// block (journal.MaxTags tags), so once the running transaction reaches the
// commit threshold it must wait out the in-flight commit (commitLocked
// does) instead of growing past the descriptor's capacity.
//
//iron:commitpoint the operation-facing commit funnel; its error means the transaction did not reach disk
func (fs *FS) MaybeCommitLocked() error {
	if fs.tx.Full(maxTxnMeta, maxTxnData) {
		return fs.commitLocked()
	}
	return nil
}

// commitPlan is ext3's journal.Plan: the frozen transaction as JBD records
// (revoke blocks, descriptor, journaled copies, commit block) plus the
// ordered data that must reach home first.
type commitPlan struct {
	// fz is the frozen transaction: fz.Data goes home before the journal
	// is written; fz.Meta holds the payloads the journal carries and the
	// checkpoint later writes home — never the live cache buffers.
	fz      journal.Frozen
	jReqs   []disk.Request
	jTypes  []iron.BlockType
	commit  disk.Request // written apart, after a barrier — unless Tc put it in jReqs
	revokes []int64
}

// commitLocked commits the running transaction: ordered data first, then
// the transaction's blocks into the journal, then the commit record. With
// transactional checksums (Tc) the commit block carries a checksum of the
// whole transaction and is issued in the same batch — no ordering barrier
// (§6.1). Checkpointing of home locations is deferred until the journal
// fills, sync is *not* required to checkpoint. The engine runs the
// freeze/write/finish protocol and releases fs.mu around the writes.
//
//iron:commitpoint the group-commit body; its error means the journal write or barrier failed
func (fs *FS) commitLocked() error { return fs.jn.Commit(fs) }

// DirtyLocked implements journal.Committer.
func (fs *FS) DirtyLocked() bool { return !fs.tx.Empty() || len(fs.revokes) > 0 }

// TouchedLocked implements journal.Committer; key is an inode number.
func (fs *FS) TouchedLocked(key uint64) bool { return fs.tx.Touched(uint32(key)) }

// tcFold extends the transactional checksum with the next block of the
// transaction. Tc is one running CRC32C over the descriptor and the
// journaled copies in log order — at freeze and again at replay — so a
// swapped or duplicated journal block changes it. Without Tc nothing is
// hashed.
func (fs *FS) tcFold(tc uint32, blk []byte) uint32 {
	if !fs.opts.TxnChecksum {
		return tc
	}
	return crc32.Update(tc, castagnoli, blk)
}

// FreezeLocked implements journal.Committer: it encodes the running
// transaction as JBD records at the journal head, which advances here.
func (fs *FS) FreezeLocked(seq uint64) (journal.Plan, error) {
	t := fs.tx
	fs.tr.Phase("commit", fmt.Sprintf("seq=%d meta=%d data=%d", seq, t.Meta.Len(), t.Data.Len()))
	fs.st.Commits.Inc()
	fs.st.TxnBlocks.Observe(int64(t.Meta.Len() + t.Data.Len()))

	// Fold checksum-table updates into the transaction so the entries
	// commit atomically with the blocks they cover. New checksum blocks
	// appended by the update are themselves uncovered, so one pass over a
	// growing list terminates.
	if fs.opts.needsCksum() {
		for i := 0; i < t.Data.Len(); i++ {
			blk := t.Data.Block(i)
			if fs.opts.DataChecksum && fs.cksumCovers(blk) {
				if err := fs.updateCksumTxn(blk, fs.cache.Get(blk)); err != nil {
					return nil, err
				}
			}
		}
		for i := 0; i < t.Meta.Len(); i++ {
			blk := t.Meta.Block(i)
			if fs.opts.MetaChecksum && fs.cksumCovers(blk) {
				if err := fs.updateCksumTxn(blk, fs.cache.Get(blk)); err != nil {
					return nil, err
				}
			}
		}
	}

	// Assign replica locations for replicated metadata; the map updates
	// journal with this same transaction.
	replicaOf := map[int64]int64{}
	if fs.opts.MetaReplica {
		for i := 0; i < t.Meta.Len(); i++ {
			blk := t.Meta.Block(i)
			if fs.replicaCovers(blk) {
				rep, err := fs.ensureReplica(blk)
				if err == nil && rep != 0 {
					replicaOf[blk] = rep
				}
			}
		}
	}

	// Operations mutated the staged blocks through the pinned cache buffer,
	// so the image to freeze is the one the cache holds now: each block is
	// looked up there and that buffer registered for the freeze to copy.
	// (The lookups are traced and touch the LRU: data here, metadata after
	// the space check below, is an order the goldens hold.)
	for i := 0; i < t.Data.Len(); i++ {
		blk := t.Data.Block(i)
		t.Data.Bind(blk, fs.cache.Get(blk))
	}

	// The journal records. Layout: revoke blocks, descriptor, journaled
	// copies, commit.
	nJData := t.Meta.Len()
	if nJData > journal.MaxTags {
		// Unreachable by construction — MaybeCommitLocked flushes the running
		// transaction far below one descriptor block's tag capacity, even
		// while a commit is in flight — but an overflow would scribble
		// past the descriptor block, so fail the commit instead.
		fs.abortJournal(BTJDesc, "transaction overflows descriptor block")
		return nil, vfs.ErrIO
	}
	nRevoke := (len(fs.revokes) + journal.MaxTags - 1) / journal.MaxTags
	txnLen := int64(nRevoke + 1 + nJData + 1) // revokes + desc + data + commit
	if !fs.ring.Fits(txnLen) {
		// Checkpoint everything, freeing the whole journal.
		if err := fs.checkpointLocked(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nJData; i++ {
		blk := t.Meta.Block(i)
		data := fs.cache.Get(blk)
		if data == nil {
			// A staged metadata block stays pinned dirty until its commit
			// checkpoints; losing it from the cache would journal a stale
			// image, so fail the commit instead.
			fs.abortJournal(t.Meta.Type(blk), "journaled metadata lost from cache")
			return nil, vfs.ErrIO
		}
		t.Meta.Bind(blk, data)
	}
	plan := &commitPlan{fz: t.Freeze(), revokes: fs.revokes}
	fs.revokes = nil
	rel, _ := fs.ring.Reserve(txnLen)
	plan.jReqs = make([]disk.Request, 0, int(txnLen)+len(replicaOf))
	plan.jTypes = make([]iron.BlockType, 0, cap(plan.jReqs))

	// Revoke blocks: record blocks whose tags are the freed blocks.
	for lo := 0; lo < len(plan.revokes); lo += journal.MaxTags {
		chunk := plan.revokes[lo:min(lo+journal.MaxTags, len(plan.revokes))]
		b := journal.NewRecord(jMagicRevoke, len(chunk), seq)
		for j, blk := range chunk {
			journal.PutTag(b, j, blk)
		}
		plan.jReqs = append(plan.jReqs, disk.Request{Block: fs.ring.Base + rel, Data: b})
		plan.jTypes = append(plan.jTypes, BTJRevoke)
		rel++
	}

	// Descriptor block and the journaled copies of the metadata; Tc runs
	// over them in log order.
	var tc uint32
	log, commit := fs.ring.Log(rel, seq, plan.fz.Meta, nJData)
	for i, r := range log {
		bt := BTJData
		if i == 0 {
			bt = BTJDesc
		}
		plan.jReqs = append(plan.jReqs, r)
		plan.jTypes = append(plan.jTypes, bt)
		tc = fs.tcFold(tc, r.Data)
	}

	// Replica log (Mr): the journaled metadata is also written to its
	// replica location in the distant replica area as part of the commit
	// (§6.1: "all metadata blocks are written to a separate replica log"),
	// so every commit pays the extra seek and writes — the cost Table 6
	// charges to Mr.
	for _, m := range plan.fz.Meta {
		if rep := replicaOf[m.Block]; rep != 0 {
			plan.jReqs = append(plan.jReqs, disk.Request{Block: rep, Data: m.Data})
			plan.jTypes = append(plan.jTypes, BTReplica)
		}
	}

	// Commit block.
	if fs.opts.TxnChecksum {
		// Tc: the whole transaction, commit included, goes out in one
		// batch — the checksum, not ordering, proves atomicity.
		binary.LittleEndian.PutUint64(commit.Data[16:], cksumStored(tc))
		plan.jReqs = append(plan.jReqs, commit)
		plan.jTypes = append(plan.jTypes, BTJCommit)
	} else {
		plan.commit = commit
	}
	return plan, nil
}

// WritePlan implements journal.Committer.
//
//iron:txentry commit machinery: writes the frozen commit plan (journal descriptor/data/commit blocks) to disk
func (fs *FS) WritePlan(p journal.Plan) error {
	plan := p.(*commitPlan)
	// Barrier failures, unlike write failures, are not part of the
	// reproduced stock-ext3 bug surface: a failed ordering point means the
	// commit's durability cannot be vouched for, so the journal aborts —
	// otherwise a concurrent fsync waiter would see the durable sequence
	// advance with health still Healthy and report durability for a commit
	// whose ordering barrier failed.
	if len(plan.fz.Data) > 0 {
		if err := fs.devWriteBatch(plan.fz.Data, plan.fz.DataType); err != nil {
			return err // FixBugs only: stock ext3 sails on
		}
		if err := fs.dev.Barrier(); err != nil {
			fs.abortJournal(BTData, "ordered-data barrier failed")
			return vfs.ErrIO
		}
	}
	if fs.opts.TxnChecksum {
		if err := fs.devWriteBatch(plan.jReqs, plan.jTypes); err != nil {
			return err
		}
	} else {
		// Stock ordering: journal payload, barrier (an extra rotational
		// wait), then the commit block. Note the reproduced bug: if the
		// journal payload write fails, stock ext3 still writes the
		// commit block (§5.1) — devWriteBatch has already swallowed the
		// error unless FixBugs is set. Under NoBarrier the ordering point
		// is omitted (write cache with flushes disabled, §6.2), so a
		// crash may land the commit without its payload.
		if err := fs.devWriteBatch(plan.jReqs, plan.jTypes); err != nil {
			return err
		}
		if !fs.opts.NoBarrier {
			if err := fs.dev.Barrier(); err != nil {
				fs.abortJournal(BTJCommit, "pre-commit barrier failed")
				return vfs.ErrIO
			}
		}
		if err := fs.devWrite(plan.commit.Block, plan.commit.Data, BTJCommit); err != nil {
			return err
		}
	}
	if err := fs.dev.Barrier(); err != nil {
		fs.abortJournal(BTJCommit, "post-commit barrier failed")
		return vfs.ErrIO
	}
	return nil
}

// FinishLocked implements journal.Committer: it queues the durable
// transaction's home writes for checkpoint and unpins its ordered data.
func (fs *FS) FinishLocked(p journal.Plan) error {
	plan := p.(*commitPlan)
	if fs.pending.seen == nil {
		fs.pending.seen = map[int64]int{}
	}
	// A committed revoke kills any checkpoint queued by an *earlier*
	// commit: that image describes a block this transaction freed, and
	// writing it home could clobber a reallocation. The kills run before
	// the adds so a block revoked and then re-journaled within this same
	// transaction keeps its fresh entry.
	for _, blk := range plan.revokes {
		if j, ok := fs.pending.seen[blk]; ok {
			fs.pending.entries[j].data = nil
			delete(fs.pending.seen, blk)
		}
	}
	for i, m := range plan.fz.Meta {
		e := checkpointEntry{home: m.Block, bt: plan.fz.MetaType[i], data: m.Data}
		if j, ok := fs.pending.seen[m.Block]; ok {
			// A newer committed image supersedes the queued one.
			fs.pending.entries[j] = e
			continue
		}
		fs.pending.seen[m.Block] = len(fs.pending.entries)
		fs.pending.entries = append(fs.pending.entries, e)
	}
	// Ordered data is already home.
	fs.tx.Unpin(plan.fz.Data)

	if len(fs.pending.entries) >= checkpointHighWater {
		return fs.checkpointLocked()
	}
	return nil
}

// checkpointLocked writes every committed home block (and its replica) to
// its final location, then advances the journal tail, logically emptying
// the journal.
//
//iron:txentry commit machinery: checkpoints committed journal payloads to their home locations
func (fs *FS) checkpointLocked() error {
	fs.tr.Phase("checkpoint", fmt.Sprintf("pending=%d", len(fs.pending.entries)))
	fs.st.Checkpoints.Inc()
	if len(fs.pending.entries) > 0 {
		reqs := make([]disk.Request, 0, len(fs.pending.entries))
		types := make([]iron.BlockType, 0, cap(reqs))
		for _, e := range fs.pending.entries {
			if e.data == nil {
				// Killed by a later committed revoke.
				continue
			}
			reqs = append(reqs, disk.Request{Block: e.home, Data: e.data})
			types = append(types, e.bt)
		}
		// Checkpoint writes: stock ext3 ignores failures here too, which
		// is how committed transactions rot on disk (§5.1, §5.6).
		if err := fs.devWriteBatch(reqs, types); err != nil {
			return err
		}
		if err := fs.dev.Barrier(); err != nil {
			return vfs.ErrIO
		}
		// The home writes above used the payloads frozen at commit; a cache
		// buffer may carry the running transaction's uncommitted state on
		// top of its, in which case the dirty pin now belongs to that
		// transaction and survives the checkpoint.
		fs.tx.Unpin(reqs)
	}
	fs.pending = pendingState{}

	// Advance the tail: everything up to the head is dead.
	buf := journal.Header{Magic: jMagicSuper, StartRel: 1, StartSeq: fs.jn.Seq() + 1}.Block()
	if err := fs.devWrite(fs.ring.Base, buf, BTJSuper); err != nil {
		return err
	}
	fs.ring.Reset()
	return nil
}

// ---------------------------------------------------------------------------
// Replay (mount-time recovery).
// ---------------------------------------------------------------------------

// openJournal initializes the ring from the layout and reads the block
// that should hold the journal superblock; judging it is the caller's.
func (fs *FS) openJournal() ([]byte, error) {
	fs.ring = &journal.Ring{Base: int64(fs.lay.sb.JournalStart), Len: int64(fs.lay.sb.JournalLen),
		Desc: jMagicDesc, Commit: jMagicCommit}
	buf := make([]byte, BlockSize)
	return buf, fs.dev.ReadBlock(fs.ring.Base, buf)
}

// readLog is replay's reader: a failed read of any journal block fails the
// mount.
func (fs *FS) readLog(blk int64, part journal.Part) ([]byte, error) {
	buf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(blk, buf); err == nil {
		return buf, nil
	}
	switch part {
	case journal.PartDesc:
		fs.rec.Detect(iron.DErrorCode, BTJDesc, "journal read failed during recovery")
		fs.rec.Recover(iron.RPropagate, BTJDesc, "mount fails")
		fs.rec.Recover(iron.RStop, BTJDesc, "recovery aborted")
	case journal.PartCopy:
		fs.rec.Detect(iron.DErrorCode, BTJData, "journal data read failed during recovery")
		fs.rec.Recover(iron.RPropagate, BTJData, "mount fails")
		fs.rec.Recover(iron.RStop, BTJData, "recovery aborted")
	case journal.PartCommit:
		fs.rec.Detect(iron.DErrorCode, BTJCommit, "commit block read failed during recovery")
		fs.rec.Recover(iron.RPropagate, BTJCommit, "mount fails")
		fs.rec.Recover(iron.RStop, BTJCommit, "recovery aborted")
	}
	return nil, vfs.ErrIO
}

// replayJournal recovers committed transactions after an unclean shutdown.
// Policy notes reproduced from §5.1/§5.2: journal block magic numbers are
// sanity-checked (DSanity); without Tc there is no integrity check on the
// journaled *payload*, so a corrupt journal data block is replayed verbatim
// and can corrupt the file system.
//
//iron:txentry recovery machinery: mount-time journal replay writes committed transactions home
func (fs *FS) replayJournal() error {
	fs.tr.Phase("replay", fs.variantName())
	fs.st.Replays.Inc()
	buf, err := fs.openJournal()
	if err != nil {
		fs.rec.Detect(iron.DErrorCode, BTJSuper, "journal superblock read failed")
		fs.rec.Recover(iron.RPropagate, BTJSuper, "mount fails")
		fs.rec.Recover(iron.RStop, BTJSuper, "recovery aborted")
		return vfs.ErrIO
	}
	js := journal.ParseHeader(buf)
	if js.Magic != jMagicSuper {
		fs.rec.Detect(iron.DSanity, BTJSuper, "journal superblock bad magic")
		fs.rec.Recover(iron.RPropagate, BTJSuper, "mount fails")
		fs.rec.Recover(iron.RStop, BTJSuper, "recovery aborted")
		return vfs.ErrCorrupt
	}
	fs.ring.Resume(js)
	at := journal.Cursor{Rel: fs.ring.Head(), Seq: js.StartSeq}

	// The scan collects; nothing is applied until the whole log has been
	// read, because a revoke in a later transaction cancels an earlier
	// one's copy.
	var txns []journal.Replayed
	revoked := map[int64]uint64{} // home -> latest revoking sequence
	collect := func(txn journal.Replayed) (bool, error) {
		if fs.opts.TxnChecksum {
			tc := fs.tcFold(0, txn.Desc)
			for _, c := range txn.Copies {
				tc = fs.tcFold(tc, c.Data)
			}
			if binary.LittleEndian.Uint64(txn.Commit[16:]) != cksumStored(tc) {
				// Transactional checksum mismatch: either a crash
				// mid-commit (Tc's whole point) or corrupt journal
				// payload; the transaction is reliably discarded.
				fs.rec.Detect(iron.DRedundancy, BTJData, "transactional checksum mismatch")
				fs.rec.Recover(iron.RStop, BTJData, "transaction not replayed")
				return false, nil
			}
		}
		txns = append(txns, txn)
		return true, nil
	}
	for {
		why, blk, err := fs.ring.Scan(&at, fs.readLog, collect)
		if err != nil {
			return err
		}
		// What ended the scan is the end of the log unless it is a revoke
		// block of the expected sequence; a block that is none of ext3's
		// own fails the journal type check (§5.1) rather than looking like
		// a clean tail.
		switch why {
		case journal.StopNotDesc:
			magic, n, seq := journal.RecordHead(blk)
			switch {
			case magic == jMagicRevoke && seq != at.Seq, magic == jMagicDesc, magic == 0:
			case magic != jMagicRevoke:
				fs.rec.Detect(iron.DSanity, BTJDesc, "journal block fails type check")
				fs.rec.Recover(iron.RStop, BTJDesc, "recovery ends at corrupt record")
			case n > journal.MaxTags:
				fs.rec.Detect(iron.DSanity, BTJRevoke, "revoke count out of range")
			default:
				for i := 0; i < n; i++ {
					if h := journal.Tag(blk, i); revoked[h] < seq {
						revoked[h] = seq
					}
				}
				at.Rel++
				continue
			}
		case journal.StopBadCount:
			// Stock ext3 sanity-checks its journal descriptor fields; a bad
			// count ends recovery quietly.
			fs.rec.Detect(iron.DSanity, BTJDesc, "descriptor count out of range")
		case journal.StopNoCommit:
			// No commit: the crash interrupted this transaction and it is
			// discarded. A *nonzero* foreign magic is not a torn write,
			// though.
			if m, _, _ := journal.RecordHead(blk); m != 0 && m != jMagicCommit {
				fs.rec.Detect(iron.DSanity, BTJCommit, "commit block fails type check")
			}
		}
		break
	}

	// Apply in commit order, honoring revokes from later transactions.
	applySeq := js.StartSeq
	for _, txn := range txns {
		for _, c := range txn.Copies {
			if rv, ok := revoked[c.Block]; ok && rv >= applySeq {
				continue
			}
			if c.Block < 0 || c.Block >= fs.dev.NumBlocks() {
				// NOTE: reproduced vulnerability — stock ext3 performs
				// no sanity check on replayed home locations; we bound
				// them to the device to avoid a simulator fault, but a
				// corrupt in-range tag is replayed verbatim and can
				// overwrite any block (§5.2 shows ReiserFS suffering
				// the same).
				continue
			}
			if err := fs.devWrite(c.Block, c.Data, BTData); err != nil {
				return err
			}
		}
		applySeq++
	}
	if err := fs.dev.Barrier(); err != nil {
		return vfs.ErrIO
	}

	// Reset the journal: recovered transactions are now home.
	reset := journal.Header{Magic: jMagicSuper, StartRel: 1, StartSeq: at.Seq + 1}.Block()
	if err := fs.devWrite(fs.ring.Base, reset, BTJSuper); err != nil {
		return err
	}
	fs.jn.Recovered(at.Seq)
	fs.ring.Reset()
	return nil
}
