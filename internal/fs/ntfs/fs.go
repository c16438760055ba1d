package ntfs

import (
	"cmp"
	"errors"
	"slices"
	"sort"
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

	//iron:lockorder 10 the per-FS big lock is always outermost
	mu      sync.Mutex
	health  vfs.Health
	boot    boot
	cache   *bcache.Cache
	tx      *journal.Txn[uint32]
	mounted bool
	// logged is set by the first commit since mount: the restart area on
	// disk then lags the log, and Unmount must bring it up to date.
	logged bool
	ring   *journal.Ring
	// jn owns the commit sequence space and coordinates the committer
	// with its fsync waiters; FS implements its journal.Committer.
	jn *journal.Engine
	// ra is Read's sequential read-ahead (nil = off, the default). Set
	// before Mount via SetReadAhead.
	ra *bcache.Prefetcher

	// Driver is the check-and-repair sequence (fs.Repairer); FS implements
	// its fsck.Target. It sits last so the fields the read path touches
	// keep the cache lines they had.
	fsck.Driver

	// Namespace is the path walk and the lookup and attribute operations
	// of vfs.FileSystem; FS implements its namei.Store. Last, like Driver.
	namei.Namespace[uint32, mftRecord]
}

var _ vfs.FileSystem = (*FS)(nil)

// New binds an NTFS instance to a formatted device. Mount before use.
func New(dev disk.Device, rec *iron.Recorder) *FS {
	fs := &FS{dev: dev, rec: rec, tr: trace.Of(dev), cache: bcache.New(bcache.DefaultBlocks)}
	fs.cache.SetTracer(fs.tr)
	fs.jn = journal.New(&fs.mu, &fs.health, disk.ClockOf(dev), fs.tr, "ntfs")
	fs.Driver = fsck.New(fs, fsck.Volume{Label: "ntfs", Mu: &fs.mu, Health: &fs.health, Tracer: fs.tr, Cache: fs.cache})
	fs.Namespace = namei.New[uint32, mftRecord](fs, namei.Volume{Mu: &fs.mu, RMu: &fs.mu, Health: &fs.health, Journal: fs.jn, SymlinkMax: BlockSize, MaxFileSize: MaxFileSize})
	return fs
}

// SetReadAhead enables sequential read-ahead on Read, prefetching up to
// window blocks past a miss that continues a stream (0 disables). Set
// before Mount.
func (fs *FS) SetReadAhead(window int) { fs.ra = bcache.NewPrefetcher(fs.cache, window) }

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
	buf := make([]byte, BlockSize)
	if err := fs.loadBlockRetry(blk, bt, buf); err != nil {
		return nil, err
	}
	fs.cache.Put(blk, buf, false)
	return buf, nil
}

// loadBlockRetry is readBlockRetry's device half, and NTFS's data read
// policy behind every data-block miss (bcache.Cache.MissInto and Modify):
// the read into buf under the retry budget.
func (fs *FS) loadBlockRetry(blk int64, bt iron.BlockType, buf []byte) error {
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
		return vfs.ErrIO
	}
	return nil
}

// txMeta reads metadata block blk with readBlockRetry's persistence and
// stages the buffer it returns, for the caller to edit in place.
func (fs *FS) txMeta(blk int64, bt iron.BlockType) ([]byte, error) {
	buf, err := fs.readBlockRetry(blk, bt)
	if err != nil {
		return nil, err
	}
	fs.tx.StageMeta(blk, buf, bt)
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
// descriptor + journaled copies + commit block, the restart-area update
// that names it, and its immediate checkpoint.
type commitPlan struct {
	// fz is the frozen transaction. Its metadata payloads go out twice:
	// into the logfile, and — the immediate checkpoint — to their home
	// locations, never from the live cache buffers, which the running
	// transaction may be mutating. fz.MetaType keeps each home block's
	// type for writeRetry's per-type retry budget and degrade attribution.
	// WritePlan sorts fz into home-block order once the log is laid out.
	fz journal.Frozen
	// restart is the restart-area image naming this transaction — where it
	// starts in the logfile and its sequence — which replay starts from
	// while it is the newest one. It and the descriptor and commit blocks
	// are frames of the transaction's, like fz's payloads, and go back
	// with them.
	restart []byte
	// wrap is set when the logfile ring wrapped: the restart area must
	// point at the new start (with a barrier) before the transaction is
	// written.
	wrap   bool
	jReqs  []disk.Request // descriptor + journaled copies, all BTLogfile
	commit disk.Request
}

// metaByHome sorts a frozen transaction's metadata into ascending block
// order, each block's type kept beside it. It converts the plan's own
// Frozen, so sort.Sort is handed a pointer the plan already owns and the
// sort allocates nothing.
type metaByHome journal.Frozen

func (f *metaByHome) Len() int           { return len(f.Meta) }
func (f *metaByHome) Less(i, j int) bool { return f.Meta[i].Block < f.Meta[j].Block }
func (f *metaByHome) Swap(i, j int) {
	f.Meta[i], f.Meta[j] = f.Meta[j], f.Meta[i]
	f.MetaType[i], f.MetaType[j] = f.MetaType[j], f.MetaType[i]
}

// byBlock orders device writes by block number.
func byBlock(a, b disk.Request) int { return cmp.Compare(a.Block, b.Block) }

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
	fs.jn.Committed(seq, trace.F("meta", t.Meta.Len()), trace.F("data", t.Data.Len()))

	if t.Meta.Len() > journal.MaxTags {
		// Unreachable by construction — MaybeCommitLocked flushes the running
		// transaction far below one descriptor block's tag capacity — but
		// an overflow would scribble past the descriptor block, and
		// NTFS's reaction to a metadata-structural hazard is to mark the
		// volume unusable.
		fs.unmountable(BTLogfile, "transaction overflows descriptor block")
		return nil, vfs.ErrIO
	}

	plan := &commitPlan{fz: t.Freeze()}
	rel, wrap := fs.ring.Reserve(int64(len(plan.fz.Meta)) + 2)
	plan.restart, plan.wrap = restartHeader(seq, rel).Encode(t.Frame()), wrap
	// The logfile's commit record stores no count.
	plan.jReqs, plan.commit = fs.ring.Log(t.Reqs(), rel, seq, plan.fz.Meta, 0, t.Frame(), t.Frame())
	fs.logged = true
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
	// The in-place writes leave in ascending block order, so the scheduler
	// finds each contiguous run whole. The log keeps first-touch order:
	// FreezeLocked laid it out before this sort. ntfs stages all ordered
	// data as BTData, so fz.DataType has nothing to keep paired.
	slices.SortFunc(plan.fz.Data, byBlock)
	sort.Sort((*metaByHome)(&plan.fz))

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

	// The restart area names this transaction, the oldest one replay may
	// need: its predecessor's checkpoint is behind the home barrier that
	// ended the last plan. The write rides the drain of the log blocks it
	// sits in front of. When the ring wrapped, the log is about to
	// overwrite what the restart area named, so it gets a barrier of its
	// own first.
	if err := fs.writeRetry(fs.ring.Base, plan.restart, BTLogfile); err != nil {
		return err
	}
	if plan.wrap {
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
	return fs.commitBarrier(BTMFT)
}

// FinishLocked implements journal.Committer: the plan's blocks are
// checkpointed, so their dirty pins come off and their frames, with the
// log's, go back to the transaction.
func (fs *FS) FinishLocked(p journal.Plan) error {
	plan := p.(*commitPlan)
	fs.tx.Unpin(plan.fz.Meta, plan.fz.Data)
	bcache.GiveFrames(plan.fz.Meta, plan.fz.Data)
	bcache.GiveFrame(plan.restart, plan.jReqs[0].Data, plan.commit.Data)
	fs.tx.Reuse(plan.fz, plan.jReqs, nil)
	return nil
}

// restartHeader is the logfile restart area that has replay start at
// startRel, expecting sequence nextSeq there. A commit writes it with its
// own log blocks, naming itself, so on disk it lags the checkpoints by one
// transaction and replay may redo the newest checkpointed one, which
// whole-block redo makes harmless. Unmount brings it level with the log.
func restartHeader(nextSeq uint64, startRel int64) journal.Header {
	return journal.Header{Magic: logMagic, StartRel: uint64(startRel), StartSeq: nextSeq}
}

// writeRestart writes the restart area outside a commit: replay starts at
// startRel, expecting sequence nextSeq there.
func (fs *FS) writeRestart(nextSeq uint64, startRel int64) error {
	return fs.writeRetry(fs.ring.Base, restartHeader(nextSeq, startRel).Block(), BTLogfile)
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
	fs.jn.Replayed("ntfs")
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
		// Home in ascending block order; stable, so a block a damaged
		// descriptor names twice still ends as its later copy.
		slices.SortStableFunc(txn.Copies, byBlock)
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
	fs.logged = false
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
		// A clean mount resumes the log where the restart area points,
		// which lags the last commit: bring it level first, or the next
		// session would reuse a sequence number, and a torn transaction of
		// its could pair with a stale commit record.
		if fs.logged {
			if err := fs.writeRestart(fs.jn.Seq()+1, fs.ring.Head()); err != nil {
				return err
			}
			if err := fs.commitBarrier(BTLogfile); err != nil {
				return err
			}
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
