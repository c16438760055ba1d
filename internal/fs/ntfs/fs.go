package ntfs

import (
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
	tx      *journal.Txn[uint32]
	mounted bool
	noatime bool
	ring    *journal.Ring
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

// maxTxnMeta bounds a transaction's journaled metadata before auto-commit;
// file data is not capped.
const maxTxnMeta = 48

//iron:commitpoint the operation-facing commit funnel; its error means the transaction did not reach disk
func (fs *FS) MaybeCommitLocked() error {
	if fs.tx.Full(maxTxnMeta, journal.NoCap) {
		return fs.commitLocked()
	}
	return nil
}

// commitPlan is NTFS's journal.Plan: the frozen transaction as a logfile
// descriptor + journaled copies + commit block, with the restart-area
// updates that bracket it, and its immediate checkpoint.
type commitPlan struct {
	seq uint64
	// fz is the frozen transaction. Its metadata payloads go out twice:
	// into the logfile, and — the immediate checkpoint — to their home
	// locations, never from the live cache buffers, which the running
	// transaction may be mutating. fz.MetaType keeps each home block's
	// type for writeRetry's per-type retry budget and degrade attribution.
	fz journal.Frozen
	// wrap is set when the logfile ring wrapped: the restart area must
	// point at the new start (with a barrier) before the transaction is
	// written.
	wrap    bool
	jReqs   []disk.Request // descriptor + journaled copies, all BTLogfile
	commit  disk.Request
	headEnd int64 // where the restart area points once the checkpoint is done
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
func (fs *FS) DirtyLocked() bool { return !fs.tx.Empty() }

// TouchedLocked implements journal.Committer; key is an MFT record number.
func (fs *FS) TouchedLocked(key uint64) bool { return fs.tx.Touched(uint32(key)) }

// FreezeLocked implements journal.Committer: it encodes the running
// transaction at the logfile head, which advances here.
func (fs *FS) FreezeLocked(seq uint64) (journal.Plan, error) {
	t := fs.tx
	if t.Empty() {
		return nil, nil
	}
	fs.tr.Phase("commit", fmt.Sprintf("seq=%d meta=%d data=%d", seq, t.Meta.Len(), t.Data.Len()))
	fs.st.Commits.Inc()
	fs.st.TxnBlocks.Observe(int64(t.Meta.Len() + t.Data.Len()))

	if t.Meta.Len() > journal.MaxTags {
		// Unreachable by construction — MaybeCommitLocked flushes the running
		// transaction far below one descriptor block's tag capacity — but
		// an overflow would scribble past the descriptor block, and
		// NTFS's reaction to a metadata-structural hazard is to mark the
		// volume unusable.
		fs.unmountable(BTLogfile, "transaction overflows descriptor block")
		return nil, vfs.ErrIO
	}

	plan := &commitPlan{seq: seq, fz: t.Freeze()}
	var rel int64
	rel, plan.wrap = fs.ring.Reserve(int64(len(plan.fz.Meta)) + 2)
	// The logfile's commit record stores no count.
	plan.jReqs, plan.commit = fs.ring.Log(rel, seq, plan.fz.Meta, 0)
	plan.headEnd = fs.ring.Head()
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

	if len(plan.fz.Data) > 0 {
		for _, r := range plan.fz.Data {
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
	if err := fs.writeRetry(plan.commit.Block, plan.commit.Data, BTLogfile); err != nil {
		return err
	}
	if err := fs.commitBarrier(BTLogfile); err != nil {
		return err
	}

	for i, r := range plan.fz.Meta {
		if err := fs.writeRetry(r.Block, r.Data, plan.fz.MetaType[i]); err != nil {
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
	fs.tx.Unpin(plan.fz.Meta, plan.fz.Data)
	return nil
}

// writeRestart updates the logfile restart area.
func (fs *FS) writeRestart(nextSeq uint64, startRel int64) error {
	buf := journal.Header{Magic: logMagic, StartRel: uint64(startRel), StartSeq: nextSeq}.Block()
	return fs.writeRetry(fs.ring.Base, buf, BTLogfile)
}

// loadRestart initializes the ring and the sequence space from the restart
// area, sanity-checking its magic.
func (fs *FS) loadRestart() error {
	fs.ring = &journal.Ring{Base: int64(fs.boot.LogStart), Len: int64(fs.boot.LogLen),
		Desc: logDesc, Commit: logCommit}
	buf, err := fs.readBlockRetry(fs.ring.Base, BTLogfile)
	if err != nil {
		return err
	}
	h := journal.ParseHeader(buf)
	if h.Magic != logMagic {
		fs.rec.Detect(iron.DSanity, BTLogfile, "restart area bad magic")
		fs.rec.Recover(iron.RPropagate, BTLogfile, "mount fails")
		fs.rec.Recover(iron.RStop, BTLogfile, "mount aborted")
		return vfs.ErrCorrupt
	}
	if h.StartSeq > 0 {
		fs.jn.Recovered(h.StartSeq - 1)
	}
	fs.ring.Resume(h)
	return nil
}

// replayLog applies committed logfile transactions after a crash.
func (fs *FS) replayLog() error {
	fs.tr.Phase("replay", "ntfs")
	fs.st.Replays.Inc()
	if err := fs.loadRestart(); err != nil {
		return err
	}
	at := journal.Cursor{Rel: fs.ring.Head(), Seq: fs.jn.Seq() + 1}
	// Every log read keeps NTFS's retry persistence. A descriptor or commit
	// block that is not the expected one ends the log quietly — a torn
	// transaction is discarded; only the descriptor's count is
	// sanity-checked.
	why, _, err := fs.ring.Scan(&at, func(blk int64, _ journal.Part) ([]byte, error) {
		buf, err := fs.readBlockRetry(blk, BTLogfile)
		if err != nil {
			fs.rec.Recover(iron.RStop, BTLogfile, "recovery aborted")
		}
		return buf, err
	}, func(txn journal.Replayed) (bool, error) {
		for _, c := range txn.Copies {
			if c.Block < 0 || c.Block >= fs.dev.NumBlocks() {
				continue
			}
			if err := fs.writeRetry(c.Block, c.Data, BTMFT); err != nil {
				return false, err
			}
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	if why == journal.StopBadCount {
		fs.rec.Detect(iron.DSanity, BTLogfile, "descriptor count out of range")
	}
	if err := fs.dev.Barrier(); err != nil {
		return vfs.ErrIO
	}
	if err := fs.writeRestart(at.Seq, 1); err != nil {
		return err
	}
	fs.jn.Recovered(at.Seq - 1)
	fs.ring.Reset()
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
	} else if err := fs.loadRestart(); err != nil {
		return err
	}

	fs.tx = journal.NewTxn[uint32](fs.cache)
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
