package ntfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"ironfs/internal/bcache"
	"ironfs/internal/disk"
	"ironfs/internal/fsck"
	"ironfs/internal/iron"
	"ironfs/internal/journal"
	"ironfs/internal/namei"
	"ironfs/internal/trace"
	"ironfs/internal/vfs"
)

// FS is an NTFS instance bound to a block device.
type FS struct {
	dev disk.Device
	rec *iron.Recorder
	tr  *trace.Tracer
	// st holds the journal path's live-metrics handles, resolved at
	// construction.
	st vfs.FSMetrics

	//iron:lockorder 10 the per-FS big lock is always outermost
	mu      sync.Mutex
	health  vfs.Health
	boot    boot
	cache   *bcache.Cache
	tx      *txn
	mounted bool
	noatime bool
	jhead   int64
	// jn owns the commit sequence space and coordinates the committer
	// with its fsync waiters; FS implements its journal.Committer.
	jn *journal.Engine
	// ra is the sequential read-ahead detector for data reads (nil =
	// read-ahead off, the default). Set before Mount via SetReadAhead.
	ra *bcache.Prefetcher

	// Driver is the check-and-repair sequence (fs.Repairer); FS implements
	// its fsck.Target. It sits last so the fields the read path touches
	// keep the cache lines they had.
	fsck.Driver

	// Namespace is the path walk and the lookup and attribute operations
	// of vfs.FileSystem; FS implements its namei.Store. Last, like Driver.
	namei.Namespace[uint32, *mftRecord]
}

var _ vfs.FileSystem = (*FS)(nil)

// New binds an NTFS instance to a formatted device. Mount before use.
func New(dev disk.Device, rec *iron.Recorder) *FS {
	fs := &FS{dev: dev, rec: rec, tr: trace.Of(dev), cache: bcache.New(2048),
		st: vfs.NewFSMetrics("ntfs")}
	fs.cache.SetTracer(fs.tr)
	fs.jn = journal.New(&fs.mu, &fs.health, disk.ClockOf(dev), fs.st.FsyncWait)
	fs.Driver = fsck.New(fs, fsck.Volume{Label: "ntfs", Mu: &fs.mu, Health: &fs.health, Tracer: fs.tr, Cache: fs.cache})
	fs.Namespace = namei.New[uint32, *mftRecord](fs, namei.Volume{Mu: &fs.mu, RMu: &fs.mu, Health: &fs.health, Journal: fs.jn})
	return fs
}

// SetNoAtime suppresses the atime journal update on Read (the noatime
// mount option). Set before Mount.
func (fs *FS) SetNoAtime(on bool) { fs.noatime = on }

// SetReadAhead enables sequential read-ahead on data reads, prefetching up
// to window blocks once a scan is detected (0 disables). Set before Mount.
func (fs *FS) SetReadAhead(window int) { fs.ra = bcache.NewPrefetcher(window) }

// unmountable is NTFS's reaction to corrupt metadata: the volume goes
// read-only and stays that way (§5.4: "the file system becomes
// unmountable if any of its metadata blocks (except the journal) are
// corrupted").
func (fs *FS) unmountable(bt iron.BlockType, why string) {
	if fs.health.State() == vfs.Healthy {
		fs.rec.Recover(iron.RStop, bt, "volume marked unusable: "+why)
	}
	fs.health.Degrade(vfs.ReadOnly, string(bt), errors.New(why))
}

// readBlockRetry reads a block with NTFS's famous persistence: up to seven
// retries before giving up (§5.4).
func (fs *FS) readBlockRetry(blk int64, bt iron.BlockType) ([]byte, error) {
	if data := fs.cache.Get(blk); data != nil {
		return data, nil
	}
	return fs.fillBlockRetry(blk, bt)
}

// fillBlockRetry is readBlockRetry's miss path: device read under the
// retry budget, cache insert, and — for data blocks with read-ahead
// enabled — a sequential prefetch of the blocks the access pattern
// predicts.
func (fs *FS) fillBlockRetry(blk int64, bt iron.BlockType) ([]byte, error) {
	buf := make([]byte, BlockSize)
	err := fs.dev.ReadBlock(blk, buf)
	if err != nil {
		fs.rec.Detect(iron.DErrorCode, bt, "read failed")
		for i := 0; i < readRetries && err != nil; i++ {
			fs.rec.Recover(iron.RRetry, bt, "read retry")
			err = fs.dev.ReadBlock(blk, buf)
		}
	}
	if err != nil {
		fs.rec.Recover(iron.RPropagate, bt, "read error propagated")
		return nil, vfs.ErrIO
	}
	fs.cache.Put(blk, buf, false)
	if bt == BTData {
		for _, pb := range fs.ra.Note(blk) {
			// Prefetch is advisory: out-of-range or failing blocks just
			// end the window; prefetched blocks enter the cache clean.
			if pb <= 0 || pb >= fs.dev.NumBlocks() {
				break
			}
			pbuf := make([]byte, BlockSize)
			if fs.dev.ReadBlock(pb, pbuf) != nil {
				break
			}
			fs.cache.Put(pb, pbuf, false)
		}
	}
	return buf, nil
}

// writeRetry writes a block, retrying per NTFS's per-type budgets. For
// data blocks the exhausted error is recorded but not used — the §5.4
// DZero finding; for metadata it propagates and the volume degrades.
//
//iron:txentry ntfs has no journal: per the paper its machinery is in-place writes with retry plus the MFT mirror, and this funnel is that machinery
func (fs *FS) writeRetry(blk int64, data []byte, bt iron.BlockType) error {
	retries := mftWriteRetries
	if bt == BTData {
		retries = dataWriteRetry
	}
	err := fs.dev.WriteBlock(blk, data)
	if err != nil {
		fs.rec.Detect(iron.DErrorCode, bt, "write failed")
		for i := 0; i < retries && err != nil; i++ {
			fs.rec.Recover(iron.RRetry, bt, "write retry")
			err = fs.dev.WriteBlock(blk, data)
		}
	}
	if err == nil {
		return nil
	}
	if bt == BTData {
		// Recorded but never consulted: the write is lost silently.
		return nil
	}
	fs.rec.Recover(iron.RPropagate, bt, "write error propagated")
	fs.unmountable(bt, "metadata write failure")
	return vfs.ErrIO
}

// ---------------------------------------------------------------------------
// Logfile: whole-block redo transactions, checkpointed immediately.
// ---------------------------------------------------------------------------

type txn struct {
	metaOrder []int64
	meta      map[int64][]byte
	metaType  map[int64]iron.BlockType
	dataOrder []int64
	data      map[int64][]byte
	// recs tracks which MFT records this transaction has updated, so
	// fsync can tell "needs this commit" from "only needs earlier
	// commits".
	recs map[uint32]bool
}

func newTxn() *txn {
	return &txn{meta: map[int64][]byte{}, metaType: map[int64]iron.BlockType{}, data: map[int64][]byte{},
		recs: map[uint32]bool{}}
}

func (t *txn) touch(rec uint32)        { t.recs[rec] = true }
func (t *txn) touched(rec uint32) bool { return t.recs[rec] }

func (t *txn) empty() bool { return len(t.metaOrder) == 0 && len(t.dataOrder) == 0 }

func (fs *FS) stageMeta(blk int64, data []byte, bt iron.BlockType) {
	fs.cache.Put(blk, data, true)
	if _, ok := fs.tx.meta[blk]; !ok {
		fs.tx.metaOrder = append(fs.tx.metaOrder, blk)
	}
	fs.tx.meta[blk] = data
	fs.tx.metaType[blk] = bt
}

func (fs *FS) stageData(blk int64, data []byte) {
	fs.cache.Put(blk, data, true)
	if _, ok := fs.tx.data[blk]; !ok {
		fs.tx.dataOrder = append(fs.tx.dataOrder, blk)
	}
	fs.tx.data[blk] = data
}

func (fs *FS) dropBlock(blk int64) {
	if _, ok := fs.tx.meta[blk]; ok {
		delete(fs.tx.meta, blk)
		delete(fs.tx.metaType, blk)
		fs.tx.metaOrder = journal.RemoveBlock(fs.tx.metaOrder, blk)
	}
	if _, ok := fs.tx.data[blk]; ok {
		delete(fs.tx.data, blk)
		fs.tx.dataOrder = journal.RemoveBlock(fs.tx.dataOrder, blk)
	}
	fs.cache.Drop(blk)
}

const maxTxnMeta = 48

// maxDescTags is the hard capacity of one logfile descriptor block: more
// tags would scribble past the block. MaybeCommitLocked keeps the running
// transaction far below this even while a commit is in flight.
const maxDescTags = (BlockSize - 16) / 8

//iron:commitpoint the operation-facing commit funnel; its error means the transaction did not reach disk
func (fs *FS) MaybeCommitLocked() error {
	if len(fs.tx.metaOrder) >= maxTxnMeta {
		return fs.commitLocked()
	}
	return nil
}

// commitPlan is NTFS's journal.Plan: the frozen transaction as a logfile
// descriptor + journaled copies + commit block, with the restart-area
// updates that bracket it, and its immediate checkpoint.
type commitPlan struct {
	seq     uint64
	headEnd int64
	// wrap is set when the logfile ring wrapped: the restart area must
	// point at the new start (with a barrier) before the transaction is
	// written.
	wrap     bool
	dataReqs []disk.Request
	jReqs    []disk.Request // descriptor + journaled copies, all BTLogfile
	commit   []byte
	// homeReqs is the immediate checkpoint: the same frozen payloads the
	// logfile carries, aimed at their home locations — never the live
	// cache buffers, which the running transaction may be mutating.
	// homeType keeps each home block's type for writeRetry's per-type
	// retry budget and degrade attribution.
	homeReqs  []disk.Request
	homeType  []iron.BlockType
	metaOrder []int64
	dataOrder []int64
}

// commitLocked writes ordered data, the logfile transaction, then
// checkpoints home locations; the engine runs the freeze/write/finish
// protocol and releases fs.mu around the writes.
//
//iron:commitpoint the group-commit body; its error means the journal write or barrier failed
func (fs *FS) commitLocked() error { return fs.jn.Commit(fs) }

// SyncLocked implements namei.Store: sync(2) is one group commit, whose
// immediate checkpoint brings every block home.
//
//iron:commitpoint sync is the group commit; its error means the journal write or barrier failed
func (fs *FS) SyncLocked() error { return fs.commitLocked() }

// DirtyLocked implements journal.Committer.
func (fs *FS) DirtyLocked() bool { return !fs.tx.empty() }

// TouchedLocked implements journal.Committer; key is an MFT record number.
func (fs *FS) TouchedLocked(key uint64) bool { return fs.tx.touched(uint32(key)) }

// FreezeLocked implements journal.Committer: it encodes the running
// transaction at the logfile head, which advances here.
func (fs *FS) FreezeLocked(seq uint64) (journal.Plan, error) {
	t := fs.tx
	if t.empty() {
		return nil, nil
	}
	fs.tr.Phase("commit", fmt.Sprintf("seq=%d meta=%d data=%d", seq, len(t.metaOrder), len(t.dataOrder)))
	fs.st.Commits.Inc()
	fs.st.TxnBlocks.Observe(int64(len(t.metaOrder) + len(t.dataOrder)))
	base := int64(fs.boot.LogStart)
	le := binary.LittleEndian

	if len(t.metaOrder) > maxDescTags {
		// Unreachable by construction — MaybeCommitLocked flushes the running
		// transaction far below one descriptor block's tag capacity — but
		// an overflow would scribble past the descriptor block, and
		// NTFS's reaction to a metadata-structural hazard is to mark the
		// volume unusable.
		fs.unmountable(BTLogfile, "transaction overflows descriptor block")
		return nil, vfs.ErrIO
	}

	plan := &commitPlan{seq: seq, metaOrder: t.metaOrder, dataOrder: t.dataOrder}
	for _, blk := range t.dataOrder {
		cp := make([]byte, BlockSize)
		copy(cp, t.data[blk])
		plan.dataReqs = append(plan.dataReqs, disk.Request{Block: blk, Data: cp})
	}

	need := int64(len(t.metaOrder) + 2)
	if fs.jhead == 0 {
		fs.jhead = 1
	}
	if fs.jhead+need > int64(fs.boot.LogLen) {
		fs.jhead = 1
		plan.wrap = true
	}
	rel := fs.jhead

	desc := make([]byte, BlockSize)
	le.PutUint32(desc[0:], logDesc)
	le.PutUint32(desc[4:], uint32(len(t.metaOrder)))
	le.PutUint64(desc[8:], seq)
	for i, blk := range t.metaOrder {
		le.PutUint64(desc[16+8*i:], uint64(blk))
	}
	plan.jReqs = append(plan.jReqs, disk.Request{Block: base + rel, Data: desc})
	rel++
	plan.homeReqs = make([]disk.Request, 0, len(t.metaOrder))
	plan.homeType = make([]iron.BlockType, 0, len(t.metaOrder))
	for _, blk := range t.metaOrder {
		cp := make([]byte, BlockSize)
		copy(cp, t.meta[blk])
		plan.jReqs = append(plan.jReqs, disk.Request{Block: base + rel, Data: cp})
		plan.homeReqs = append(plan.homeReqs, disk.Request{Block: blk, Data: cp})
		plan.homeType = append(plan.homeType, t.metaType[blk])
		rel++
	}

	plan.commit = make([]byte, BlockSize)
	le.PutUint32(plan.commit[0:], logCommit)
	le.PutUint64(plan.commit[8:], seq)
	rel++

	plan.headEnd = rel
	fs.jhead = rel
	fs.tx = newTxn()
	return plan, nil
}

// commitBarrier is an ordering point inside the commit path. A barrier
// failure means the commit's durability cannot be vouched for; NTFS's
// reaction to an unrecoverable write-path failure applies — the volume is
// marked unusable. Without the degrade, an fsync waiter would see the
// durable sequence advance with health still Healthy and report durability
// for a commit whose ordering barrier failed.
func (fs *FS) commitBarrier(bt iron.BlockType) error {
	if err := fs.dev.Barrier(); err != nil {
		fs.rec.Detect(iron.DErrorCode, bt, "barrier failed")
		fs.rec.Recover(iron.RPropagate, bt, "barrier error propagated")
		fs.unmountable(bt, "commit barrier failure")
		return vfs.ErrIO
	}
	return nil
}

// WritePlan implements journal.Committer. Every block keeps NTFS's
// per-type writeRetry persistence.
func (fs *FS) WritePlan(p journal.Plan) error {
	plan := p.(*commitPlan)
	base := int64(fs.boot.LogStart)
	hdrEnd := plan.headEnd - 1 // commit block sits just before headEnd

	if len(plan.dataReqs) > 0 {
		for _, r := range plan.dataReqs {
			if err := fs.writeRetry(r.Block, r.Data, BTData); err != nil {
				return err
			}
		}
		if err := fs.commitBarrier(BTData); err != nil {
			return err
		}
	}

	if plan.wrap {
		if err := fs.writeRestart(plan.seq, 1); err != nil {
			return err
		}
		if err := fs.commitBarrier(BTLogfile); err != nil {
			return err
		}
	}

	for _, r := range plan.jReqs {
		if err := fs.writeRetry(r.Block, r.Data, BTLogfile); err != nil {
			return err
		}
	}
	if err := fs.commitBarrier(BTLogfile); err != nil {
		return err
	}
	if err := fs.writeRetry(base+hdrEnd, plan.commit, BTLogfile); err != nil {
		return err
	}
	if err := fs.commitBarrier(BTLogfile); err != nil {
		return err
	}

	for i, r := range plan.homeReqs {
		if err := fs.writeRetry(r.Block, r.Data, plan.homeType[i]); err != nil {
			return err
		}
	}
	if err := fs.commitBarrier(BTMFT); err != nil {
		return err
	}
	return fs.writeRestart(plan.seq+1, plan.headEnd)
}

// FinishLocked implements journal.Committer: the plan's blocks are
// checkpointed, so their dirty pins come off.
func (fs *FS) FinishLocked(p journal.Plan) error {
	plan := p.(*commitPlan)
	journal.Unpin(fs.cache, plan.metaOrder, fs.tx.meta, fs.tx.data)
	journal.Unpin(fs.cache, plan.dataOrder, fs.tx.meta, fs.tx.data)
	return nil
}

// writeRestart updates the logfile restart area.
func (fs *FS) writeRestart(nextSeq uint64, startRel int64) error {
	buf := make([]byte, BlockSize)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], logMagic)
	le.PutUint64(buf[8:], uint64(startRel))
	le.PutUint64(buf[16:], nextSeq)
	return fs.writeRetry(int64(fs.boot.LogStart), buf, BTLogfile)
}

// loadRestart reads the restart area, sanity-checking its magic.
func (fs *FS) loadRestart() (startRel int64, nextSeq uint64, err error) {
	buf, rerr := fs.readBlockRetry(int64(fs.boot.LogStart), BTLogfile)
	if rerr != nil {
		return 0, 0, rerr
	}
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != logMagic {
		fs.rec.Detect(iron.DSanity, BTLogfile, "restart area bad magic")
		fs.rec.Recover(iron.RPropagate, BTLogfile, "mount fails")
		fs.rec.Recover(iron.RStop, BTLogfile, "mount aborted")
		return 0, 0, vfs.ErrCorrupt
	}
	startRel = int64(le.Uint64(buf[8:]))
	nextSeq = le.Uint64(buf[16:])
	if startRel == 0 {
		startRel = 1
	}
	return startRel, nextSeq, nil
}

// replayLog applies committed logfile transactions after a crash.
func (fs *FS) replayLog() error {
	fs.tr.Phase("replay", "ntfs")
	fs.st.Replays.Inc()
	startRel, nextSeq, err := fs.loadRestart()
	if err != nil {
		return err
	}
	base := int64(fs.boot.LogStart)
	le := binary.LittleEndian
	rel := startRel
	seq := nextSeq

	for rel < int64(fs.boot.LogLen) {
		hdr, rerr := fs.readBlockRetry(base+rel, BTLogfile)
		if rerr != nil {
			fs.rec.Recover(iron.RStop, BTLogfile, "recovery aborted")
			return rerr
		}
		if le.Uint32(hdr[0:]) != logDesc || le.Uint64(hdr[8:]) != seq {
			break
		}
		n := int(le.Uint32(hdr[4:]))
		if n < 0 || 16+8*n > BlockSize || rel+int64(n)+1 >= int64(fs.boot.LogLen) {
			fs.rec.Detect(iron.DSanity, BTLogfile, "descriptor count out of range")
			break
		}
		homes := make([]int64, n)
		payload := make([][]byte, n)
		for i := 0; i < n; i++ {
			homes[i] = int64(le.Uint64(hdr[16+8*i:]))
			pb, perr := fs.readBlockRetry(base+rel+1+int64(i), BTLogfile)
			if perr != nil {
				fs.rec.Recover(iron.RStop, BTLogfile, "recovery aborted")
				return perr
			}
			payload[i] = pb
		}
		cb, cerr := fs.readBlockRetry(base+rel+1+int64(n), BTLogfile)
		if cerr != nil {
			fs.rec.Recover(iron.RStop, BTLogfile, "recovery aborted")
			return cerr
		}
		if le.Uint32(cb[0:]) != logCommit || le.Uint64(cb[8:]) != seq {
			break // torn transaction: discarded
		}
		for i := 0; i < n; i++ {
			if homes[i] < 0 || homes[i] >= fs.dev.NumBlocks() {
				continue
			}
			if werr := fs.writeRetry(homes[i], payload[i], BTMFT); werr != nil {
				return werr
			}
		}
		rel += int64(n) + 2
		seq++
	}
	if err := fs.dev.Barrier(); err != nil {
		return vfs.ErrIO
	}
	if err := fs.writeRestart(seq, 1); err != nil {
		return err
	}
	fs.jn.Recovered(seq - 1)
	fs.jhead = 1
	fs.cache.Reset()
	return nil
}

// ---------------------------------------------------------------------------
// Mount / unmount / statfs.
// ---------------------------------------------------------------------------

// Mount reads and checks the boot file, then runs logfile recovery if the
// volume is dirty.
//
//iron:lockok mount is single-entry: fs.mu serializes API callers, and no other operation can run until Mount returns
func (fs *FS) Mount() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.mounted {
		return nil
	}
	fs.tr.Phase("mount", "ntfs")
	fs.health.Reset()
	fs.cache.Reset()

	buf := make([]byte, BlockSize)
	err := fs.dev.ReadBlock(0, buf)
	if err != nil {
		fs.rec.Detect(iron.DErrorCode, BTBoot, "boot file read failed")
		for i := 0; i < readRetries && err != nil; i++ {
			fs.rec.Recover(iron.RRetry, BTBoot, "read retry")
			err = fs.dev.ReadBlock(0, buf)
		}
	}
	if err != nil {
		fs.rec.Recover(iron.RPropagate, BTBoot, "mount fails")
		fs.rec.Recover(iron.RStop, BTBoot, "mount aborted")
		return vfs.ErrIO
	}
	fs.boot.unmarshal(buf)
	if serr := fs.boot.sane(fs.dev.NumBlocks()); serr != nil {
		fs.rec.Detect(iron.DSanity, BTBoot, serr.Error())
		fs.rec.Recover(iron.RPropagate, BTBoot, "volume unmountable: "+serr.Error())
		fs.rec.Recover(iron.RStop, BTBoot, "mount aborted")
		return vfs.ErrCorrupt
	}

	if fs.boot.Clean == 0 {
		if err := fs.replayLog(); err != nil {
			return err
		}
	} else {
		startRel, nextSeq, lerr := fs.loadRestart()
		if lerr != nil {
			return lerr
		}
		fs.jhead = startRel
		if nextSeq > 0 {
			fs.jn.Recovered(nextSeq - 1)
		}
	}

	fs.tx = newTxn()
	fs.boot.Clean = 0
	bbuf := make([]byte, BlockSize)
	fs.boot.marshal(bbuf)
	if err := fs.writeRetry(0, bbuf, BTBoot); err != nil {
		return err
	}
	fs.mounted = true
	return nil
}

// Unmount commits and writes a clean boot file.
func (fs *FS) Unmount() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.mounted {
		return vfs.ErrNotMounted
	}
	if fs.health.State() == vfs.Healthy {
		if err := fs.commitLocked(); err != nil {
			return err
		}
		fs.boot.Clean = 1
		bbuf := make([]byte, BlockSize)
		fs.boot.marshal(bbuf)
		if err := fs.writeRetry(0, bbuf, BTBoot); err != nil {
			return err
		}
	}
	fs.mounted = false
	fs.cache.Reset()
	return fs.dev.Barrier()
}

// Statfs implements vfs.FileSystem.
func (fs *FS) Statfs() (vfs.StatFS, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.GuardReadLocked(); err != nil {
		return vfs.StatFS{}, err
	}
	// NTFS propagates metadata read failures (§5.4); a bitmap read error
	// surfaces instead of reporting fabricated counts.
	free, err := fs.countFreeBlocks()
	if err != nil {
		return vfs.StatFS{}, err
	}
	recs := int64(fs.boot.MFTLen) * RecsPB
	freeRecs, err := fs.countFreeRecords()
	if err != nil {
		return vfs.StatFS{}, err
	}
	return vfs.StatFS{
		BlockSize:   BlockSize,
		TotalBlocks: int64(fs.boot.BlockCount),
		FreeBlocks:  free,
		TotalInodes: recs,
		FreeInodes:  freeRecs,
	}, nil
}

// DropCaches empties the buffer cache, modeling a cold-cache restart for
// experiments. Callers should Sync first.
func (fs *FS) DropCaches() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cache.Reset()
}
