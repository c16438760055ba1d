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

// jsuper is the journal superblock, stored in the first block of the
// journal region. It records where the oldest live (committed but not yet
// checkpointed) transaction begins.
type jsuper struct {
	Magic    uint32
	StartRel uint64 // region-relative block of the oldest live txn (1 = none pending at head reset)
	StartSeq uint64 // sequence number expected at StartRel
}

func (j *jsuper) marshal(b []byte) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], j.Magic)
	le.PutUint64(b[8:], j.StartRel)
	le.PutUint64(b[16:], j.StartSeq)
}

func (j *jsuper) unmarshal(b []byte) {
	le := binary.LittleEndian
	j.Magic = le.Uint32(b[0:])
	j.StartRel = le.Uint64(b[8:])
	j.StartSeq = le.Uint64(b[16:])
}

// txn is the running (uncommitted) transaction. Dirty block contents live
// in the buffer cache, pinned; the transaction tracks which blocks are
// journaled metadata versus ordered data, and which were revoked.
type txn struct {
	fs        *FS
	metaOrder []int64
	metaType  map[int64]iron.BlockType
	dataOrder []int64
	dataType  map[int64]iron.BlockType
	revokes   []int64
	// inodes are the inode numbers this transaction has modified (every
	// inode mutation funnels through StoreLocked/clearInode). Fsync uses
	// it for group commit: when another client's commit already carried
	// this file's state to the journal, the inode is absent here and the
	// fsync returns without paying for a commit of strangers' blocks.
	inodes map[uint32]bool
}

func newTxn(fs *FS) *txn {
	return &txn{
		fs:       fs,
		metaType: make(map[int64]iron.BlockType),
		dataType: make(map[int64]iron.BlockType),
		inodes:   make(map[uint32]bool),
	}
}

// touchInode records that ino was modified in this transaction.
func (t *txn) touchInode(ino uint32) { t.inodes[ino] = true }

// touched reports whether ino has uncommitted changes in this transaction.
func (t *txn) touched(ino uint32) bool { return t.inodes[ino] }

func (t *txn) empty() bool {
	return len(t.metaOrder) == 0 && len(t.dataOrder) == 0 && len(t.revokes) == 0
}

// meta returns a mutable buffer for metadata block blk, reading it with
// full policy on first touch and registering it for journaling.
func (t *txn) meta(blk int64, bt iron.BlockType) ([]byte, error) {
	buf, err := t.fs.readMeta(blk, bt)
	if err != nil {
		return nil, err
	}
	// The fresh read may already have been evicted (it can be the only
	// clean block in a dirty-saturated cache); re-inserting as dirty pins
	// this exact buffer for the transaction.
	if !t.fs.cache.MarkDirty(blk) {
		t.fs.cache.Put(blk, buf, true)
	}
	t.registerMeta(blk, bt)
	return buf, nil
}

// metaNew installs a zeroed buffer for a freshly allocated metadata block,
// skipping the read of its stale contents.
func (t *txn) metaNew(blk int64, bt iron.BlockType) []byte {
	buf := make([]byte, BlockSize)
	t.fs.cache.Put(blk, buf, true)
	t.registerMeta(blk, bt)
	return buf
}

func (t *txn) registerMeta(blk int64, bt iron.BlockType) {
	t.fs.cache.MarkDirty(blk)
	if _, ok := t.metaType[blk]; !ok {
		t.metaOrder = append(t.metaOrder, blk)
		t.metaType[blk] = bt
	}
}

// data returns a mutable buffer for an ordered-data block, reading the old
// contents on first touch (needed for partial overwrites and parity).
func (t *txn) data(blk int64, bt iron.BlockType) ([]byte, error) {
	buf := t.fs.cache.Get(blk)
	if buf == nil {
		buf = make([]byte, BlockSize)
		if err := t.fs.dev.ReadBlock(blk, buf); err != nil {
			t.fs.rec.Detect(iron.DErrorCode, bt, "data read for modify failed")
			t.fs.rec.Recover(iron.RPropagate, bt, "write aborted")
			return nil, vfs.ErrIO
		}
	}
	t.fs.cache.Put(blk, buf, true) // pin this buffer for the transaction
	t.registerData(blk, bt)
	return buf, nil
}

// dataNew installs a zeroed buffer for a freshly allocated data block.
func (t *txn) dataNew(blk int64, bt iron.BlockType) []byte {
	buf := make([]byte, BlockSize)
	t.fs.cache.Put(blk, buf, true)
	t.registerData(blk, bt)
	return buf
}

func (t *txn) registerData(blk int64, bt iron.BlockType) {
	t.fs.cache.MarkDirty(blk)
	if _, ok := t.dataType[blk]; !ok {
		t.dataOrder = append(t.dataOrder, blk)
		t.dataType[blk] = bt
	}
}

// revoke records that blk was freed: replay must not resurrect it from any
// earlier journaled copy. The block leaves the dirty sets and the cache.
func (t *txn) revoke(blk int64) {
	t.revokes = append(t.revokes, blk)
	if _, ok := t.metaType[blk]; ok {
		delete(t.metaType, blk)
		t.metaOrder = journal.RemoveBlock(t.metaOrder, blk)
	}
	if _, ok := t.dataType[blk]; ok {
		delete(t.dataType, blk)
		t.dataOrder = journal.RemoveBlock(t.dataOrder, blk)
	}
	t.fs.cache.Drop(blk)
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
// block (PtrsPerBlock-2 tags), so once the running transaction reaches the
// commit threshold it must wait out the in-flight commit (commitLocked
// does) instead of growing past the descriptor's capacity.
//
//iron:commitpoint the operation-facing commit funnel; its error means the transaction did not reach disk
func (fs *FS) MaybeCommitLocked() error {
	if len(fs.tx.metaOrder) < maxTxnMeta && len(fs.tx.dataOrder) < maxTxnData {
		return nil
	}
	return fs.commitLocked()
}

// commitPlan is ext3's journal.Plan: the frozen transaction as JBD records
// (revoke blocks, descriptor, journaled copies, commit block) plus the
// ordered data that must reach home first.
type commitPlan struct {
	dataReqs  []disk.Request
	dataTypes []iron.BlockType
	jReqs     []disk.Request
	jTypes    []iron.BlockType
	commitBlk int64
	commit    []byte
	metaOrder []int64
	metaType  map[int64]iron.BlockType
	// metaCopies holds the frozen payload of each metaOrder block; the
	// checkpoint writes these, not the live cache buffers.
	metaCopies [][]byte
	dataOrder  []int64
	revokes    []int64
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
func (fs *FS) DirtyLocked() bool { return !fs.tx.empty() }

// TouchedLocked implements journal.Committer; key is an inode number.
func (fs *FS) TouchedLocked(key uint64) bool { return fs.tx.touched(uint32(key)) }

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
	fs.tr.Phase("commit", fmt.Sprintf("seq=%d meta=%d data=%d", seq, len(t.metaOrder), len(t.dataOrder)))
	fs.st.Commits.Inc()
	fs.st.TxnBlocks.Observe(int64(len(t.metaOrder) + len(t.dataOrder)))

	// Fold checksum-table updates into the transaction so the entries
	// commit atomically with the blocks they cover. New checksum blocks
	// appended by the update are themselves uncovered, so one pass over a
	// growing list terminates.
	if fs.opts.needsCksum() {
		for i := 0; i < len(t.dataOrder); i++ {
			blk := t.dataOrder[i]
			if fs.opts.DataChecksum && fs.cksumCovers(blk) {
				if err := fs.updateCksumTxn(blk, fs.cache.Get(blk)); err != nil {
					return nil, err
				}
			}
		}
		for i := 0; i < len(t.metaOrder); i++ {
			blk := t.metaOrder[i]
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
		for i := 0; i < len(t.metaOrder); i++ {
			blk := t.metaOrder[i]
			if fs.replicaCovers(blk) {
				rep, err := fs.ensureReplica(blk)
				if err == nil && rep != 0 {
					replicaOf[blk] = rep
				}
			}
		}
	}

	// Ordered data to its home location (written before the metadata that
	// references it commits). The payloads are frozen copies.
	plan := &commitPlan{
		metaOrder: t.metaOrder, metaType: t.metaType, dataOrder: t.dataOrder,
		revokes: t.revokes,
	}
	for _, blk := range t.dataOrder {
		cp := make([]byte, BlockSize)
		copy(cp, fs.cache.Get(blk))
		plan.dataReqs = append(plan.dataReqs, disk.Request{Block: blk, Data: cp})
		plan.dataTypes = append(plan.dataTypes, t.dataType[blk])
	}

	// The journal records. Layout: revoke blocks, descriptor, journaled
	// copies, commit.
	nJData := len(t.metaOrder)
	if nJData > PtrsPerBlock-2 {
		// Unreachable by construction — MaybeCommitLocked flushes the running
		// transaction far below one descriptor block's tag capacity, even
		// while a commit is in flight — but an overflow would scribble
		// past the descriptor block, so fail the commit instead.
		fs.abortJournal(BTJDesc, "transaction overflows descriptor block")
		return nil, vfs.ErrIO
	}
	nRevoke := 0
	if len(t.revokes) > 0 {
		nRevoke = (len(t.revokes) + PtrsPerBlock - 3) / (PtrsPerBlock - 2)
	}
	txnLen := int64(nRevoke + 1 + nJData + 1) // revokes + desc + data + commit
	if err := fs.ensureJournalSpace(txnLen); err != nil {
		return nil, err
	}
	base := int64(fs.lay.sb.JournalStart)
	rel := fs.jhead

	le := binary.LittleEndian

	// Revoke blocks.
	for i := 0; i < nRevoke; i++ {
		b := make([]byte, BlockSize)
		le.PutUint32(b[0:], jMagicRevoke)
		le.PutUint64(b[8:], seq)
		lo := i * (PtrsPerBlock - 2)
		hi := min(lo+(PtrsPerBlock-2), len(t.revokes))
		le.PutUint32(b[4:], uint32(hi-lo))
		for j, blk := range t.revokes[lo:hi] {
			le.PutUint64(b[16+8*j:], uint64(blk))
		}
		plan.jReqs = append(plan.jReqs, disk.Request{Block: base + rel, Data: b})
		plan.jTypes = append(plan.jTypes, BTJRevoke)
		rel++
	}

	// Descriptor block: magic, count, seq, then one tag (home block
	// number) per journaled block.
	desc := make([]byte, BlockSize)
	le.PutUint32(desc[0:], jMagicDesc)
	le.PutUint32(desc[4:], uint32(nJData))
	le.PutUint64(desc[8:], seq)
	for i, blk := range t.metaOrder {
		le.PutUint64(desc[16+8*i:], uint64(blk))
	}
	plan.jReqs = append(plan.jReqs, disk.Request{Block: base + rel, Data: desc})
	plan.jTypes = append(plan.jTypes, BTJDesc)
	rel++

	// Journaled copies of the metadata.
	tc := fs.tcFold(0, desc)
	for _, blk := range t.metaOrder {
		data := fs.cache.Get(blk)
		if data == nil {
			// A registered metadata block stays pinned dirty until its
			// commit checkpoints; losing it from the cache would journal
			// a zero block, so fail the commit instead.
			fs.abortJournal(t.metaType[blk], "journaled metadata lost from cache")
			return nil, vfs.ErrIO
		}
		cp := make([]byte, BlockSize)
		copy(cp, data)
		plan.jReqs = append(plan.jReqs, disk.Request{Block: base + rel, Data: cp})
		plan.jTypes = append(plan.jTypes, BTJData)
		plan.metaCopies = append(plan.metaCopies, cp)
		tc = fs.tcFold(tc, cp)
		rel++
	}

	// Replica log (Mr): the journaled metadata is also written to its
	// replica location in the distant replica area as part of the commit
	// (§6.1: "all metadata blocks are written to a separate replica log"),
	// so every commit pays the extra seek and writes — the cost Table 6
	// charges to Mr.
	for i, blk := range t.metaOrder {
		if rep := replicaOf[blk]; rep != 0 {
			plan.jReqs = append(plan.jReqs, disk.Request{Block: rep, Data: plan.metaCopies[i]})
			plan.jTypes = append(plan.jTypes, BTReplica)
		}
	}

	// Commit block.
	commit := make([]byte, BlockSize)
	le.PutUint32(commit[0:], jMagicCommit)
	le.PutUint32(commit[4:], uint32(nJData))
	le.PutUint64(commit[8:], seq)
	if fs.opts.TxnChecksum {
		le.PutUint64(commit[16:], cksumStored(tc))
	}

	if fs.opts.TxnChecksum {
		// Tc: the whole transaction, commit included, goes out in one
		// batch — the checksum, not ordering, proves atomicity.
		plan.jReqs = append(plan.jReqs, disk.Request{Block: base + rel, Data: commit})
		plan.jTypes = append(plan.jTypes, BTJCommit)
		rel++
	} else {
		plan.commitBlk = base + rel
		plan.commit = commit
		rel++
	}

	fs.jhead = rel
	fs.tx = newTxn(fs)
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
	if len(plan.dataReqs) > 0 {
		if err := fs.devWriteBatch(plan.dataReqs, plan.dataTypes); err != nil {
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
		if err := fs.devWrite(plan.commitBlk, plan.commit, BTJCommit); err != nil {
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
	for i, blk := range plan.metaOrder {
		if j, ok := fs.pending.seen[blk]; ok {
			// A newer committed image supersedes the queued one.
			fs.pending.entries[j].bt = plan.metaType[blk]
			fs.pending.entries[j].data = plan.metaCopies[i]
			continue
		}
		fs.pending.seen[blk] = len(fs.pending.entries)
		fs.pending.entries = append(fs.pending.entries,
			checkpointEntry{home: blk, bt: plan.metaType[blk], data: plan.metaCopies[i]})
	}
	// Ordered data is already home.
	journal.Unpin(fs.cache, plan.dataOrder, fs.tx.metaType, fs.tx.dataType)

	if len(fs.pending.entries) >= checkpointHighWater {
		return fs.checkpointLocked()
	}
	return nil
}

// ensureJournalSpace checkpoints everything (freeing the whole journal)
// when the next transaction would not fit before the region's end.
func (fs *FS) ensureJournalSpace(txnLen int64) error {
	if fs.jhead == 0 {
		fs.jhead = 1 // block 0 of the region is the journal superblock
	}
	if fs.jhead+txnLen <= int64(fs.lay.sb.JournalLen) {
		return nil
	}
	return fs.checkpointLocked()
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
		for _, e := range fs.pending.entries {
			// The home write above used the payload frozen at commit; the
			// cache buffer may carry the running transaction's uncommitted
			// state on top of it, in which case the dirty pin now belongs
			// to that transaction and must survive the checkpoint.
			if _, live := fs.tx.metaType[e.home]; live {
				continue
			}
			if _, live := fs.tx.dataType[e.home]; live {
				continue
			}
			fs.cache.MarkClean(e.home)
		}
	}
	fs.pending = pendingState{}

	// Advance the tail: everything up to the head is dead.
	js := jsuper{Magic: jMagicSuper, StartRel: 1, StartSeq: fs.jn.Seq() + 1}
	buf := make([]byte, BlockSize)
	js.marshal(buf)
	if err := fs.devWrite(int64(fs.lay.sb.JournalStart), buf, BTJSuper); err != nil {
		return err
	}
	fs.jhead = 1
	return nil
}

// ---------------------------------------------------------------------------
// Replay (mount-time recovery).
// ---------------------------------------------------------------------------

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
	base := int64(fs.lay.sb.JournalStart)
	buf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(base, buf); err != nil {
		fs.rec.Detect(iron.DErrorCode, BTJSuper, "journal superblock read failed")
		fs.rec.Recover(iron.RPropagate, BTJSuper, "mount fails")
		fs.rec.Recover(iron.RStop, BTJSuper, "recovery aborted")
		return vfs.ErrIO
	}
	var js jsuper
	js.unmarshal(buf)
	if js.Magic != jMagicSuper {
		fs.rec.Detect(iron.DSanity, BTJSuper, "journal superblock bad magic")
		fs.rec.Recover(iron.RPropagate, BTJSuper, "mount fails")
		fs.rec.Recover(iron.RStop, BTJSuper, "recovery aborted")
		return vfs.ErrCorrupt
	}

	le := binary.LittleEndian
	rel := int64(js.StartRel)
	if rel == 0 {
		rel = 1
	}
	seq := js.StartSeq

	type txnRec struct {
		homes   []int64
		payload [][]byte
	}
	var txns []txnRec
	revoked := map[int64]uint64{} // home -> latest revoking sequence

	for rel < int64(fs.lay.sb.JournalLen) {
		hdr := make([]byte, BlockSize)
		if err := fs.dev.ReadBlock(base+rel, hdr); err != nil {
			fs.rec.Detect(iron.DErrorCode, BTJDesc, "journal read failed during recovery")
			fs.rec.Recover(iron.RPropagate, BTJDesc, "mount fails")
			fs.rec.Recover(iron.RStop, BTJDesc, "recovery aborted")
			return vfs.ErrIO
		}
		magic := le.Uint32(hdr[0:])
		switch magic {
		case jMagicRevoke:
			if le.Uint64(hdr[8:]) != seq {
				rel = int64(fs.lay.sb.JournalLen) // end of log
				continue
			}
			n := int(le.Uint32(hdr[4:]))
			if n < 0 || n > PtrsPerBlock-2 {
				fs.rec.Detect(iron.DSanity, BTJRevoke, "revoke count out of range")
				rel = int64(fs.lay.sb.JournalLen)
				continue
			}
			for i := 0; i < n; i++ {
				h := int64(le.Uint64(hdr[16+8*i:]))
				if revoked[h] < seq {
					revoked[h] = seq
				}
			}
			rel++
		case jMagicDesc:
			if le.Uint64(hdr[8:]) != seq {
				rel = int64(fs.lay.sb.JournalLen)
				continue
			}
			n := int(le.Uint32(hdr[4:]))
			if n < 0 || n > PtrsPerBlock-2 || rel+int64(n)+1 >= int64(fs.lay.sb.JournalLen) {
				// Stock ext3 sanity-checks its journal descriptor
				// fields; a bad count ends recovery quietly.
				fs.rec.Detect(iron.DSanity, BTJDesc, "descriptor count out of range")
				rel = int64(fs.lay.sb.JournalLen)
				continue
			}
			rec := txnRec{}
			tc := fs.tcFold(0, hdr)
			ok := true
			for i := 0; i < n; i++ {
				rec.homes = append(rec.homes, int64(le.Uint64(hdr[16+8*i:])))
				pb := make([]byte, BlockSize)
				if err := fs.dev.ReadBlock(base+rel+1+int64(i), pb); err != nil {
					fs.rec.Detect(iron.DErrorCode, BTJData, "journal data read failed during recovery")
					fs.rec.Recover(iron.RPropagate, BTJData, "mount fails")
					fs.rec.Recover(iron.RStop, BTJData, "recovery aborted")
					return vfs.ErrIO
				}
				tc = fs.tcFold(tc, pb)
				rec.payload = append(rec.payload, pb)
			}
			cb := make([]byte, BlockSize)
			if err := fs.dev.ReadBlock(base+rel+1+int64(n), cb); err != nil {
				fs.rec.Detect(iron.DErrorCode, BTJCommit, "commit block read failed during recovery")
				fs.rec.Recover(iron.RPropagate, BTJCommit, "mount fails")
				fs.rec.Recover(iron.RStop, BTJCommit, "recovery aborted")
				return vfs.ErrIO
			}
			if le.Uint32(cb[0:]) != jMagicCommit || le.Uint64(cb[8:]) != seq {
				// No commit: the crash interrupted this transaction and
				// it is discarded. A *nonzero* foreign magic is not a
				// torn write, though — it fails ext3's journal type
				// check (§5.1).
				if m := le.Uint32(cb[0:]); m != 0 && m != jMagicCommit {
					fs.rec.Detect(iron.DSanity, BTJCommit, "commit block fails type check")
				}
				ok = false
			} else if fs.opts.TxnChecksum {
				if le.Uint64(cb[16:]) != cksumStored(tc) {
					// Transactional checksum mismatch: either a crash
					// mid-commit (Tc's whole point) or corrupt journal
					// payload; the transaction is reliably discarded.
					fs.rec.Detect(iron.DRedundancy, BTJData, "transactional checksum mismatch")
					fs.rec.Recover(iron.RStop, BTJData, "transaction not replayed")
					ok = false
				}
			}
			if !ok {
				rel = int64(fs.lay.sb.JournalLen)
				continue
			}
			txns = append(txns, rec)
			rel += int64(n) + 2
			seq++
		default:
			// Unrecognized block where a descriptor was expected: the end
			// of the log — but a nonzero foreign magic fails the journal
			// type check (§5.1) rather than looking like a clean tail.
			if magic != 0 {
				fs.rec.Detect(iron.DSanity, BTJDesc, "journal block fails type check")
				fs.rec.Recover(iron.RStop, BTJDesc, "recovery ends at corrupt record")
			}
			rel = int64(fs.lay.sb.JournalLen)
		}
	}

	// Apply in commit order, honoring revokes from later transactions.
	applySeq := js.StartSeq
	for _, rec := range txns {
		for i, home := range rec.homes {
			if rv, ok := revoked[home]; ok && rv >= applySeq {
				continue
			}
			if home < 0 || home >= fs.dev.NumBlocks() {
				// NOTE: reproduced vulnerability — stock ext3 performs
				// no sanity check on replayed home locations; we bound
				// them to the device to avoid a simulator fault, but a
				// corrupt in-range tag is replayed verbatim and can
				// overwrite any block (§5.2 shows ReiserFS suffering
				// the same).
				continue
			}
			if err := fs.devWrite(home, rec.payload[i], BTData); err != nil {
				return err
			}
		}
		applySeq++
	}
	if err := fs.dev.Barrier(); err != nil {
		return vfs.ErrIO
	}

	// Reset the journal: recovered transactions are now home.
	js = jsuper{Magic: jMagicSuper, StartRel: 1, StartSeq: seq + 1}
	reset := make([]byte, BlockSize)
	js.marshal(reset)
	if err := fs.devWrite(base, reset, BTJSuper); err != nil {
		return err
	}
	fs.jn.Recovered(seq)
	fs.jhead = 1
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
