package reiser

import (
	"errors"
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

// FS is a ReiserFS instance bound to a block device.
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
	sb      superblock
	sbDirty bool
	cache   *bcache.Cache
	tx      *journal.Txn[objRef]
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
	namei.Namespace[objRef, *statData]
}

var _ vfs.FileSystem = (*FS)(nil)

// New binds a ReiserFS instance to a formatted device. Mount before use.
func New(dev disk.Device, rec *iron.Recorder) *FS {
	fs := &FS{dev: dev, rec: rec, tr: trace.Of(dev), cache: bcache.New(2048),
		st: vfs.NewFSMetrics("reiserfs")}
	fs.cache.SetTracer(fs.tr)
	fs.jn = journal.New(&fs.mu, &fs.health, disk.ClockOf(dev), fs.st.FsyncWait)
	fs.Driver = fsck.New(fs, fsck.Volume{Label: "reiser", Mu: &fs.mu, Health: &fs.health, Tracer: fs.tr, Cache: fs.cache})
	fs.Namespace = namei.New[objRef, *statData](fs, namei.Volume{Mu: &fs.mu, RMu: &fs.mu, Health: &fs.health, Journal: fs.jn})
	return fs
}

// SetNoAtime suppresses the atime journal update on Read (the noatime
// mount option). Set before Mount.
func (fs *FS) SetNoAtime(on bool) { fs.noatime = on }

// SetReadAhead enables sequential read-ahead on data reads, prefetching up
// to window blocks once a scan is detected (0 disables). Set before Mount.
func (fs *FS) SetReadAhead(window int) { fs.ra = bcache.NewPrefetcher(window) }

// panicFS is ReiserFS's signature recovery action (§5.2): on virtually any
// write failure — and on several sanity-check failures — it panics the
// machine to guarantee no corrupted structure ever reaches disk. The
// simulation models the panic as a terminal health state.
func (fs *FS) panicFS(bt iron.BlockType, why string) {
	if fs.health.State() != vfs.Panicked {
		fs.rec.Recover(iron.RStop, bt, "panic: "+why)
	}
	fs.health.Degrade(vfs.Panicked, string(bt), errors.New(why))
}

// readMetaBlock reads a metadata block (tree node, bitmap) with ReiserFS's
// read policy: error codes checked, failure propagated; no panic on reads.
func (fs *FS) readMetaBlock(blk int64, bt iron.BlockType) ([]byte, error) {
	if data := fs.cache.Get(blk); data != nil {
		return data, nil
	}
	buf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(blk, buf); err != nil {
		fs.rec.Detect(iron.DErrorCode, bt, "metadata read failed")
		fs.rec.Recover(iron.RPropagate, bt, "read error propagated")
		return nil, vfs.ErrIO
	}
	fs.cache.Put(blk, buf, false)
	return buf, nil
}

// readDataBlock reads an unformatted data block: on failure ReiserFS
// performs a single retry, then propagates (§5.2).
func (fs *FS) readDataBlock(blk int64) ([]byte, error) {
	if data := fs.cache.Get(blk); data != nil {
		return data, nil
	}
	return fs.fillDataBlock(blk)
}

// fillDataBlock is readDataBlock's miss path: device read (single retry,
// then propagate), cache insert, and — when read-ahead is enabled — a
// sequential prefetch of the blocks the access pattern predicts.
func (fs *FS) fillDataBlock(blk int64) ([]byte, error) {
	buf := make([]byte, BlockSize)
	err := fs.dev.ReadBlock(blk, buf)
	if err != nil {
		fs.rec.Detect(iron.DErrorCode, BTData, "data read failed")
		fs.rec.Recover(iron.RRetry, BTData, "single retry")
		err = fs.dev.ReadBlock(blk, buf)
	}
	if err != nil {
		fs.rec.Recover(iron.RPropagate, BTData, "read error propagated")
		return nil, vfs.ErrIO
	}
	fs.cache.Put(blk, buf, false)
	for _, pb := range fs.ra.Note(blk) {
		// Prefetch is advisory: out-of-range or failing blocks just end
		// the window, and prefetched blocks enter the cache clean.
		if pb <= 0 || pb >= fs.dev.NumBlocks() {
			break
		}
		pbuf := make([]byte, BlockSize)
		if fs.dev.ReadBlock(pb, pbuf) != nil {
			break
		}
		fs.cache.Put(pb, pbuf, false)
	}
	return buf, nil
}

// readIndirectLeafForFree is the failure path used while freeing file
// blocks during unlink/truncate: the read failure is detected and a retry
// attempted, but then — reproduced bug (§5.2) — the error is *ignored*:
// the operation proceeds, leaking the unreachable blocks.
func (fs *FS) noteIgnoredIndirectFailure() {
	fs.rec.Detect(iron.DErrorCode, BTIndirect, "indirect read failed during free")
	fs.rec.Recover(iron.RRetry, BTIndirect, "single retry")
	// No further recovery: space leaks, bitmaps/super updated anyway.
}

// devWriteMeta writes one metadata/journal block: a failure makes ReiserFS
// panic (RStop) to protect its structures.
func (fs *FS) devWriteMeta(blk int64, data []byte, bt iron.BlockType) error {
	if err := fs.dev.WriteBlock(blk, data); err != nil {
		fs.rec.Detect(iron.DErrorCode, bt, "write failed")
		fs.panicFS(bt, "write failure")
		return vfs.ErrPanicked
	}
	return nil
}

// devWriteMetaBatch is devWriteMeta over a batch.
func (fs *FS) devWriteMetaBatch(reqs []disk.Request, bt iron.BlockType) error {
	if err := fs.dev.WriteBatch(reqs); err != nil {
		fs.rec.Detect(iron.DErrorCode, bt, "batched write failed")
		fs.panicFS(bt, "write failure")
		return vfs.ErrPanicked
	}
	return nil
}

// devWriteDataBatch writes ordered data blocks. Reproduced bug (§5.2): the
// error code is observed (DErrorCode) but the transaction commits anyway —
// RZero where RStop was expected — so metadata can end up pointing at
// garbage.
func (fs *FS) devWriteDataBatch(reqs []disk.Request) {
	if err := fs.dev.WriteBatch(reqs); err != nil {
		fs.rec.Detect(iron.DErrorCode, BTData, "ordered data write failed")
		// Ignored: the commit proceeds regardless.
	}
}

// Mount reads and sanity-checks the superblock, then replays the journal
// if the image is dirty.
//
//iron:lockok mount is single-entry: fs.mu serializes API callers, and no other operation can run until Mount returns
//iron:txentry mount machinery: replay plus superblock state transition precede operation traffic
func (fs *FS) Mount() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.mounted {
		return nil
	}
	fs.tr.Phase("mount", "reiser")
	fs.health.Reset()
	fs.cache.Reset()

	buf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(0, buf); err != nil {
		fs.rec.Detect(iron.DErrorCode, BTSuper, "superblock read failed")
		fs.rec.Recover(iron.RPropagate, BTSuper, "mount fails")
		fs.rec.Recover(iron.RStop, BTSuper, "mount aborted")
		return vfs.ErrIO
	}
	fs.sb.unmarshal(buf)
	if err := fs.sb.sane(fs.dev.NumBlocks()); err != nil {
		fs.rec.Detect(iron.DSanity, BTSuper, err.Error())
		fs.rec.Recover(iron.RPropagate, BTSuper, "mount fails: "+err.Error())
		fs.rec.Recover(iron.RStop, BTSuper, "mount aborted")
		return vfs.ErrCorrupt
	}

	if fs.sb.Clean == 0 {
		if err := fs.replayJournal(); err != nil {
			return err
		}
	} else if err := fs.loadJournalHeader(); err != nil {
		return err
	}

	fs.tx = journal.NewTxn[objRef](fs.cache)
	fs.sb.Clean = 0
	fs.sbDirty = true
	sbuf := make([]byte, BlockSize)
	fs.sb.marshal(sbuf)
	if err := fs.devWriteMeta(0, sbuf, BTSuper); err != nil {
		return err
	}
	fs.sbDirty = false
	fs.mounted = true
	return nil
}

// Unmount commits and writes a clean superblock.
//
//iron:txentry unmount machinery: final commit and clean-superblock write after operations quiesce
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
		fs.sb.Clean = 1
		sbuf := make([]byte, BlockSize)
		fs.sb.marshal(sbuf)
		if err := fs.devWriteMeta(0, sbuf, BTSuper); err != nil {
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
	return vfs.StatFS{
		BlockSize:   BlockSize,
		TotalBlocks: int64(fs.sb.BlockCount),
		FreeBlocks:  int64(fs.sb.FreeBlocks),
		TotalInodes: -1, // ReiserFS has no static inode table
		FreeInodes:  -1,
	}, nil
}

// DropCaches empties the buffer cache, modeling a cold-cache restart for
// experiments. Callers should Sync first.
func (fs *FS) DropCaches() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cache.Reset()
}
