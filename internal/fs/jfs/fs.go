package jfs

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

// FS is a JFS instance bound to a block device.
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
	bmd     bmapDesc
	imc     imapCtl
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
	namei.Namespace[uint32, *inode]

	// records are the running transaction's redo records, in the order
	// logMeta appended them: JFS logs these, not block images, and
	// checkpoints the full images fs.tx stages alongside. After the embeds,
	// so the fields before them keep their offsets.
	records []redoRec
}

var _ vfs.FileSystem = (*FS)(nil)

// New binds a JFS instance to a formatted device. Mount before use.
func New(dev disk.Device, rec *iron.Recorder) *FS {
	fs := &FS{dev: dev, rec: rec, tr: trace.Of(dev), cache: bcache.New(2048),
		st: vfs.NewFSMetrics("jfs")}
	fs.cache.SetTracer(fs.tr)
	fs.jn = journal.New(&fs.mu, &fs.health, disk.ClockOf(dev), fs.st.FsyncWait)
	fs.Driver = fsck.New(fs, fsck.Volume{Label: "jfs", Mu: &fs.mu, Health: &fs.health, Tracer: fs.tr, Cache: fs.cache})
	fs.Namespace = namei.New[uint32, *inode](fs, namei.Volume{Mu: &fs.mu, RMu: &fs.mu, Health: &fs.health, Journal: fs.jn})
	return fs
}

// SetNoAtime suppresses the atime journal update on Read (the noatime
// mount option). Set before Mount.
func (fs *FS) SetNoAtime(on bool) { fs.noatime = on }

// SetReadAhead enables sequential read-ahead on data reads, prefetching up
// to window blocks once a scan is detected (0 disables). Set before Mount.
func (fs *FS) SetReadAhead(window int) { fs.ra = bcache.NewPrefetcher(window) }

// crash models JFS's explicit-crash reaction (allocation-map read failure,
// journal-superblock write failure).
func (fs *FS) crash(bt iron.BlockType, why string) {
	if fs.health.State() != vfs.Panicked {
		fs.rec.Recover(iron.RStop, bt, "explicit crash: "+why)
	}
	fs.health.Degrade(vfs.Panicked, string(bt), errors.New(why))
}

// remountRO models JFS's milder stop: propagate and remount read-only.
func (fs *FS) remountRO(bt iron.BlockType, why string) {
	if fs.health.State() == vfs.Healthy {
		fs.rec.Recover(iron.RStop, bt, "remount read-only: "+why)
	}
	fs.health.Degrade(vfs.ReadOnly, string(bt), errors.New(why))
}

// readMeta reads a metadata block with JFS's generic-code policy (§5.3):
// the error code is checked and the read retried once. What happens when
// the retry also fails depends on the block type: allocation maps crash the
// system; directories — via the reproduced bug — have the error dropped
// and a blank block used; everything else propagates.
func (fs *FS) readMeta(blk int64, bt iron.BlockType) ([]byte, error) {
	if data := fs.cache.Get(blk); data != nil {
		return data, nil
	}
	buf := make([]byte, BlockSize)
	err := fs.dev.ReadBlock(blk, buf)
	if err != nil {
		fs.rec.Detect(iron.DErrorCode, bt, "metadata read failed")
		fs.rec.Recover(iron.RRetry, bt, "generic code retries once")
		err = fs.dev.ReadBlock(blk, buf)
	}
	if err != nil {
		switch bt {
		case BTBMap, BTIMap:
			fs.crash(bt, "allocation map read failure")
			return nil, vfs.ErrPanicked
		case BTDir:
			// Reproduced bug: generic code detected the failure but the
			// JFS path ignores it; a zeroed block stands in for the
			// directory, corrupting it on the next update.
			return buf, nil
		default:
			fs.rec.Recover(iron.RPropagate, bt, "read error propagated")
			return nil, vfs.ErrIO
		}
	}
	fs.cache.Put(blk, buf, false)
	return buf, nil
}

// readData reads a user-data block: error code checked, one generic retry,
// then propagate.
func (fs *FS) readData(blk int64) ([]byte, error) {
	if data := fs.cache.Get(blk); data != nil {
		return data, nil
	}
	return fs.fillData(blk)
}

// fillData is readData's miss path: device read (single retry, then
// propagate), cache insert, and — when read-ahead is enabled — a
// sequential prefetch of the blocks the access pattern predicts.
func (fs *FS) fillData(blk int64) ([]byte, error) {
	buf := make([]byte, BlockSize)
	err := fs.dev.ReadBlock(blk, buf)
	if err != nil {
		fs.rec.Detect(iron.DErrorCode, BTData, "data read failed")
		fs.rec.Recover(iron.RRetry, BTData, "generic code retries once")
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

// devWrite performs a block write with JFS's write policy: most write
// errors are ignored outright (DZero) — the lone exception is the journal
// superblock, whose write failure crashes the system (§5.3).
func (fs *FS) devWrite(blk int64, data []byte, bt iron.BlockType) error {
	err := fs.dev.WriteBlock(blk, data)
	if err == nil {
		return nil
	}
	if bt == BTJSuper {
		fs.rec.Detect(iron.DErrorCode, bt, "journal superblock write failed")
		fs.crash(bt, "journal superblock write failure")
		return vfs.ErrPanicked
	}
	// All other write errors: not recorded, not propagated.
	return nil
}

// devWriteBatch applies devWrite's ignore-errors policy to a batch.
func (fs *FS) devWriteBatch(reqs []disk.Request) {
	//iron:policy jfs §5.3:RZero write errors are ignored outright; only the journal superblock write is checked
	_ = fs.dev.WriteBatch(reqs)
}

// Mount reads the superblock (using the alternate copy on a *read failure*
// but — the reproduced inconsistency — not on corruption), the aggregate
// inode table (whose secondary copy is never consulted), the allocation-map
// descriptors, and replays the record log if dirty.
//
//iron:lockok mount is single-entry: fs.mu serializes API callers, and no other operation can run until Mount returns
//iron:txentry mount machinery: replay plus superblock state transition precede operation traffic
func (fs *FS) Mount() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.mounted {
		return nil
	}
	fs.tr.Phase("mount", "jfs")
	fs.health.Reset()
	fs.cache.Reset()

	buf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(sbPrimary, buf); err != nil {
		fs.rec.Detect(iron.DErrorCode, BTSuper, "primary superblock read failed")
		if err2 := fs.dev.ReadBlock(sbSecondary, buf); err2 != nil {
			fs.rec.Detect(iron.DErrorCode, BTSuper, "secondary superblock read failed")
			fs.rec.Recover(iron.RPropagate, BTSuper, "mount fails")
			fs.rec.Recover(iron.RStop, BTSuper, "mount aborted")
			return vfs.ErrIO
		}
		fs.rec.Recover(iron.RRedundancy, BTSuper, "mounted from alternate superblock")
	}
	fs.sb.unmarshal(buf)
	if err := fs.sb.sane(fs.dev.NumBlocks()); err != nil {
		// Inconsistency reproduced from §5.6: a *corrupt* primary is not
		// recovered from the alternate — the mount simply fails.
		fs.rec.Detect(iron.DSanity, BTSuper, err.Error())
		fs.rec.Recover(iron.RPropagate, BTSuper, "mount fails: "+err.Error())
		fs.rec.Recover(iron.RStop, BTSuper, "mount aborted")
		return vfs.ErrCorrupt
	}

	// Aggregate inode table: read error retried by generic code; the
	// secondary copy at block 3 is NOT used (reproduced bug).
	abuf := make([]byte, BlockSize)
	aerr := fs.dev.ReadBlock(aggrPrimary, abuf)
	if aerr != nil {
		fs.rec.Detect(iron.DErrorCode, BTAggr, "aggregate inode read failed")
		fs.rec.Recover(iron.RRetry, BTAggr, "generic code retries once")
		aerr = fs.dev.ReadBlock(aggrPrimary, abuf)
	}
	if aerr != nil {
		fs.rec.Recover(iron.RPropagate, BTAggr, "mount fails (secondary copy unused)")
		fs.rec.Recover(iron.RStop, BTAggr, "mount aborted")
		return vfs.ErrIO
	}
	var at aggrTable
	at.unmarshal(abuf)
	if at.Magic != aggrMagic {
		fs.rec.Detect(iron.DSanity, BTAggr, "aggregate inode bad magic")
		fs.rec.Recover(iron.RPropagate, BTAggr, "mount fails (secondary copy unused)")
		fs.rec.Recover(iron.RStop, BTAggr, "mount aborted")
		return vfs.ErrCorrupt
	}

	// Block-map descriptor with its equality check.
	dbuf := make([]byte, BlockSize)
	derr := fs.dev.ReadBlock(int64(at.BMapDesc), dbuf)
	if derr != nil {
		fs.rec.Detect(iron.DErrorCode, BTBMapDesc, "bmap descriptor read failed")
		fs.rec.Recover(iron.RRetry, BTBMapDesc, "generic code retries once")
		derr = fs.dev.ReadBlock(int64(at.BMapDesc), dbuf)
	}
	if derr != nil {
		fs.rec.Recover(iron.RPropagate, BTBMapDesc, "mount fails")
		fs.rec.Recover(iron.RStop, BTBMapDesc, "mount aborted")
		return vfs.ErrIO
	}
	fs.bmd.unmarshal(dbuf)
	if fs.bmd.Free != fs.bmd.FreeCheck {
		fs.rec.Detect(iron.DSanity, BTBMapDesc, "bmap descriptor equality check failed")
		fs.rec.Recover(iron.RPropagate, BTBMapDesc, "mount fails")
		fs.rec.Recover(iron.RStop, BTBMapDesc, "mount aborted")
		return vfs.ErrCorrupt
	}

	// Inode-map control page.
	cbuf := make([]byte, BlockSize)
	cerr := fs.dev.ReadBlock(int64(at.IMapCtl), cbuf)
	if cerr != nil {
		fs.rec.Detect(iron.DErrorCode, BTIMapCtl, "imap control read failed")
		fs.rec.Recover(iron.RRetry, BTIMapCtl, "generic code retries once")
		cerr = fs.dev.ReadBlock(int64(at.IMapCtl), cbuf)
	}
	if cerr != nil {
		fs.rec.Recover(iron.RPropagate, BTIMapCtl, "mount fails")
		fs.rec.Recover(iron.RStop, BTIMapCtl, "mount aborted")
		return vfs.ErrIO
	}
	fs.imc.unmarshal(cbuf)

	if fs.sb.Clean == 0 {
		if err := fs.replayLog(); err != nil {
			return err
		}
	} else if err := fs.loadLogSuper(); err != nil {
		return err
	}

	fs.tx = journal.NewTxn[uint32](fs.cache)
	fs.records = nil
	fs.sb.Clean = 0
	sbuf := make([]byte, BlockSize)
	fs.sb.marshal(sbuf)
	if err := fs.devWrite(sbPrimary, sbuf, BTSuper); err != nil {
		return err
	}
	fs.mounted = true
	return nil
}

// Unmount commits and writes a clean superblock (the secondary copy is
// also refreshed, as JFS does for the superblock pair).
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
		if err := fs.devWrite(sbPrimary, sbuf, BTSuper); err != nil {
			return err
		}
		if err := fs.devWrite(sbSecondary, sbuf, BTSuper); err != nil {
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
		TotalInodes: int64(fs.imc.TotInodes),
		FreeInodes:  int64(fs.imc.FreeInodes),
	}, nil
}

// DropCaches empties the buffer cache, modeling a cold-cache restart for
// experiments. Callers should Sync first.
func (fs *FS) DropCaches() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cache.Reset()
}
