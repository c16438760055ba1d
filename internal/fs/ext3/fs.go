package ext3

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ironfs/internal/bcache"
	"ironfs/internal/disk"
	"ironfs/internal/fsck"
	"ironfs/internal/iron"
	"ironfs/internal/journal"
	"ironfs/internal/namei"
	"ironfs/internal/trace"
	"ironfs/internal/vfs"
)

// FS is an ext3/ixt3 file system instance bound to a block device.
// Mutating operations are serialized by a write lock, which models the
// single-threaded journal commit path; read-only operations (Stat, Open,
// ReadDir, and — with Options.NoAtime — Read) share a read lock, so
// concurrent clients' lookups and reads proceed in parallel through the
// sharded buffer cache. Everything a read path touches is either immutable
// after mount (layout, options) or internally synchronized (bcache,
// iron.Recorder, vfs.Health, the retries counter).
type FS struct {
	dev  disk.Device
	opts Options
	rec  *iron.Recorder
	tr   *trace.Tracer

	//iron:lockorder 10 the per-FS big lock is always outermost
	mu          sync.RWMutex
	health      vfs.Health
	lay         layout
	gds         []groupDesc
	cache       *bcache.Cache
	tx          *journal.Txn[uint32]
	mounted     bool
	sbDirty     bool
	gdDirty     bool
	ring        *journal.Ring
	pending     pendingState
	rmapScanned bool
	parityskip  bool // whole-file truncate: parity reset, not folded

	// jn owns the commit sequence space and coordinates the committer
	// with its fsync waiters; FS implements its journal.Committer.
	jn *journal.Engine

	// retries counts successful RRetry recoveries, for reports. Atomic:
	// the data read path increments it under a shared (read) lock.
	retries atomic.Int64

	// st holds the journal path's live-metrics handles, resolved at
	// construction.
	st vfs.FSMetrics

	// Driver is the check-and-repair sequence (fs.Repairer); FS implements
	// its fsck.Target. It sits last so the fields the read path touches
	// keep the cache lines they had.
	fsck.Driver

	// Namespace is the path walk and the lookup and attribute operations
	// of vfs.FileSystem; FS implements its namei.Store. Last, like Driver.
	namei.Namespace[uint32, *inode]

	// revokes are the blocks the running transaction has freed, in order:
	// the commit logs them as revoke records, and once it is durable they
	// kill any checkpoint an earlier commit queued for the same block.
	// After the embeds, so the fields before them keep their offsets.
	revokes []int64
}

// assert the interface is satisfied.
var _ vfs.FileSystem = (*FS)(nil)

// New binds a file system instance to a formatted device. The recorder may
// be nil (events discarded). Call Mount before use.
func New(dev disk.Device, opts Options, rec *iron.Recorder) *FS {
	fs := &FS{
		dev:   dev,
		opts:  opts,
		rec:   rec,
		tr:    trace.Of(dev),
		cache: bcache.New(2048),
	}
	fs.st = vfs.NewFSMetrics(fs.variantName())
	fs.cache.SetTracer(fs.tr)
	fs.jn = journal.New(&fs.mu, &fs.health, disk.ClockOf(dev), fs.st.FsyncWait)
	fs.Driver = fsck.New(fs, fsck.Volume{Label: "ext3", Mu: &fs.mu, Health: &fs.health, Tracer: fs.tr, Cache: fs.cache, Lazy: lazyKinds})
	fs.Namespace = namei.New[uint32, *inode](fs, namei.Volume{Mu: &fs.mu, RMu: fs.mu.RLocker(), Health: &fs.health, Journal: fs.jn})
	return fs
}

// Options returns the options the instance was created with.
func (fs *FS) Options() Options { return fs.opts }

// variantName names the configuration for reports. Only the IRON feature
// set and the bug fixes make an ixt3: layout overrides and NoBarrier are
// still stock ext3.
func (fs *FS) variantName() string {
	if fs.opts.featureBits() == 0 && !fs.opts.FixBugs {
		return "ext3"
	}
	return "ixt3"
}

// ---------------------------------------------------------------------------
// Policy-mediated device I/O.
//
// Every access to the disk funnels through the helpers below, which
// implement the failure policy under study: which detection technique runs
// (error codes, sanity checks, checksums) and which recovery follows
// (propagate, stop, retry, redundancy). Stock ext3 behavior — including its
// bugs — is the default; Options toggles the ixt3 behaviors.
// ---------------------------------------------------------------------------

// abortJournal is ext3's RStop: the journal is aborted and the file system
// remounts read-only, preventing further updates.
func (fs *FS) abortJournal(bt iron.BlockType, why string) {
	if fs.health.State() == vfs.Healthy {
		fs.rec.Recover(iron.RStop, bt, "journal abort, remount read-only: "+why)
	}
	fs.health.Degrade(vfs.ReadOnly, "journal", errors.New(why))
}

// readMeta reads a metadata block with full policy: error-code checking,
// checksum verification (Mc), and replica recovery (Mr). On unrecoverable
// failure stock ext3 aborts the journal and propagates the error.
func (fs *FS) readMeta(blk int64, bt iron.BlockType) ([]byte, error) {
	if data := fs.cache.Get(blk); data != nil {
		return data, nil
	}
	buf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(blk, buf); err != nil {
		fs.rec.Detect(iron.DErrorCode, bt, "metadata read failed")
		if fs.opts.MetaReplica {
			if rep, rerr := fs.readReplica(blk, bt); rerr == nil {
				fs.rec.Recover(iron.RRedundancy, bt, "read replica copy")
				fs.cache.Put(blk, rep, false)
				return rep, nil
			}
		}
		fs.rec.Recover(iron.RPropagate, bt, "metadata read error propagated")
		fs.abortJournal(bt, "metadata read failure")
		return nil, vfs.ErrIO
	}
	if fs.opts.MetaChecksum && fs.cksumCovers(blk) {
		if ok, err := fs.verifyCksum(blk, buf); err == nil && !ok {
			fs.rec.Detect(iron.DRedundancy, bt, "metadata checksum mismatch")
			if fs.opts.MetaReplica {
				if rep, rerr := fs.readReplica(blk, bt); rerr == nil {
					fs.rec.Recover(iron.RRedundancy, bt, "checksum mismatch; read replica")
					fs.cache.Put(blk, rep, false)
					return rep, nil
				}
			}
			fs.rec.Recover(iron.RPropagate, bt, "metadata corruption propagated")
			fs.abortJournal(bt, "metadata corruption")
			return nil, vfs.ErrIO
		}
	}
	fs.cache.Put(blk, buf, false)
	return buf, nil
}

// readData reads a user-data (or parity or symlink-target) block with data
// policy: error codes, optional single retry on prefetch-style reads (the
// narrow retry stock ext3 performs), data checksums (Dc), and parity
// reconstruction (Dp). in/logical give the file context for parity; in may
// be nil when no reconstruction is possible (e.g., the parity block
// itself).
func (fs *FS) readData(blk int64, bt iron.BlockType, in *inode, logical int64, prefetch bool) ([]byte, error) {
	if data := fs.cache.Get(blk); data != nil {
		return data, nil
	}
	buf := make([]byte, BlockSize)
	err := fs.dev.ReadBlock(blk, buf)
	if err != nil && prefetch {
		// Stock ext3 retries only the originally requested block when a
		// prefetch read fails (§5.1).
		fs.rec.Detect(iron.DErrorCode, bt, "data read failed (prefetch)")
		fs.rec.Recover(iron.RRetry, bt, "retry originally requested block")
		err = fs.dev.ReadBlock(blk, buf)
		if err == nil {
			fs.retries.Add(1)
		}
	}
	if err != nil {
		fs.rec.Detect(iron.DErrorCode, bt, "data read failed")
		if fs.opts.DataParity && in != nil {
			if rec, rerr := fs.reconstructData(in, logical, blk); rerr == nil {
				fs.rec.Recover(iron.RRedundancy, bt, "reconstructed from parity")
				fs.cache.Put(blk, rec, false)
				return rec, nil
			}
		}
		fs.rec.Recover(iron.RPropagate, bt, "data read error propagated")
		return nil, vfs.ErrIO
	}
	if fs.opts.DataChecksum && fs.cksumCovers(blk) {
		if ok, verr := fs.verifyCksum(blk, buf); verr == nil && !ok {
			fs.rec.Detect(iron.DRedundancy, bt, "data checksum mismatch")
			if fs.opts.DataParity && in != nil {
				if rec, rerr := fs.reconstructData(in, logical, blk); rerr == nil {
					fs.rec.Recover(iron.RRedundancy, bt, "corruption; reconstructed from parity")
					fs.cache.Put(blk, rec, false)
					return rec, nil
				}
			}
			fs.rec.Recover(iron.RPropagate, bt, "data corruption propagated")
			return nil, vfs.ErrIO
		}
	}
	fs.cache.Put(blk, buf, false)
	return buf, nil
}

// devWrite writes one block with the write-error policy. Stock ext3's
// defining bug (§5.1): the return code of writes is not recorded — write
// errors vanish (DZero/RZero). With FixBugs, write errors are detected and
// the journal is aborted before damage spreads.
func (fs *FS) devWrite(blk int64, data []byte, bt iron.BlockType) error {
	err := fs.dev.WriteBlock(blk, data)
	if err == nil {
		return nil
	}
	if !fs.opts.FixBugs {
		// DZero/RZero: the error code is ignored entirely.
		return nil
	}
	fs.rec.Detect(iron.DErrorCode, bt, "write failed")
	fs.rec.Recover(iron.RPropagate, bt, "write error propagated")
	fs.abortJournal(bt, "write failure")
	return vfs.ErrIO
}

// devWriteBatch writes a batch with the same policy as devWrite. types maps
// each request index to its block type for reporting.
func (fs *FS) devWriteBatch(reqs []disk.Request, types []iron.BlockType) error {
	err := fs.dev.WriteBatch(reqs)
	if err == nil {
		return nil
	}
	bt := iron.Unclassified
	if len(types) > 0 {
		bt = types[0]
	}
	if !fs.opts.FixBugs {
		return nil
	}
	fs.rec.Detect(iron.DErrorCode, bt, "batched write failed")
	fs.rec.Recover(iron.RPropagate, bt, "write error propagated")
	fs.abortJournal(bt, "write failure")
	return vfs.ErrIO
}

// ---------------------------------------------------------------------------
// Mount / unmount.
// ---------------------------------------------------------------------------

// Mount reads the superblock and group descriptors, replays the journal if
// the image was not cleanly unmounted, and marks the file system dirty.
//
//iron:lockok mount is single-entry: fs.mu serializes API callers, and no other operation can run until Mount returns
//iron:txentry mount machinery: journal replay plus superblock state transition precede operation traffic
func (fs *FS) Mount() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.mounted {
		return nil
	}
	fs.tr.Phase("mount", fs.variantName())
	fs.health.Reset()
	fs.cache.Reset()

	buf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(sbBlock, buf); err != nil {
		fs.rec.Detect(iron.DErrorCode, BTSuper, "superblock read failed")
		fs.rec.Recover(iron.RPropagate, BTSuper, "mount fails")
		fs.rec.Recover(iron.RStop, BTSuper, "mount aborted")
		return vfs.ErrIO
	}
	fs.lay.sb.unmarshal(buf)
	// Features requiring on-disk regions degrade gracefully when mounted
	// on an image formatted without them.
	if fs.lay.sb.CksumLen == 0 {
		fs.opts.MetaChecksum, fs.opts.DataChecksum = false, false
	}
	if fs.lay.sb.RMapLen == 0 {
		fs.opts.MetaReplica = false
	}
	// Stock ext3 explicitly type-checks the superblock (magic number) and
	// sanity-checks its geometry at mount (§5.1).
	if err := fs.lay.sb.sane(fs.dev.NumBlocks()); err != nil {
		fs.rec.Detect(iron.DSanity, BTSuper, err.Error())
		fs.rec.Recover(iron.RPropagate, BTSuper, "mount fails: "+err.Error())
		fs.rec.Recover(iron.RStop, BTSuper, "mount aborted")
		return vfs.ErrCorrupt
	}
	if fs.opts.MetaChecksum && fs.lay.sb.CksumStart != 0 {
		if ok, err := fs.verifyCksum(sbBlock, buf); err == nil && !ok {
			fs.rec.Detect(iron.DRedundancy, BTSuper, "superblock checksum mismatch")
			if rep, rerr := fs.readReplica(sbBlock, BTSuper); rerr == nil {
				fs.rec.Recover(iron.RRedundancy, BTSuper, "superblock read from replica")
				fs.lay.sb.unmarshal(rep)
			} else {
				fs.rec.Recover(iron.RPropagate, BTSuper, "mount fails")
				return vfs.ErrCorrupt
			}
		}
	}

	gbuf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(gdtBlock, gbuf); err != nil {
		fs.rec.Detect(iron.DErrorCode, BTGDesc, "group descriptor read failed")
		if fs.opts.MetaReplica {
			if rep, rerr := fs.readReplica(gdtBlock, BTGDesc); rerr == nil {
				fs.rec.Recover(iron.RRedundancy, BTGDesc, "group descriptors read from replica")
				copy(gbuf, rep)
				err = nil
			}
		}
		if err != nil {
			fs.rec.Recover(iron.RPropagate, BTGDesc, "mount fails")
			fs.rec.Recover(iron.RStop, BTGDesc, "mount aborted")
			return vfs.ErrIO
		}
	} else if fs.opts.MetaChecksum && fs.cksumCovers(gdtBlock) {
		if ok, verr := fs.verifyCksum(gdtBlock, gbuf); verr == nil && !ok {
			fs.rec.Detect(iron.DRedundancy, BTGDesc, "group descriptor checksum mismatch")
			if rep, rerr := fs.readReplica(gdtBlock, BTGDesc); rerr == nil {
				fs.rec.Recover(iron.RRedundancy, BTGDesc, "group descriptors read from replica")
				copy(gbuf, rep)
			} else {
				fs.rec.Recover(iron.RPropagate, BTGDesc, "mount fails")
				return vfs.ErrCorrupt
			}
		}
	}
	fs.gds = make([]groupDesc, fs.lay.sb.GroupCount)
	for i := range fs.gds {
		fs.gds[i].unmarshal(gbuf[i*gdEncodedLen:])
	}

	if fs.lay.sb.Clean == 0 {
		if err := fs.replayJournal(); err != nil {
			return err
		}
	} else {
		// Resume the sequence space where the last session left it, so a
		// stale transaction in the dead journal can never replay.
		jbuf, err := fs.openJournal()
		if err != nil {
			fs.rec.Detect(iron.DErrorCode, BTJSuper, "journal superblock read failed")
			fs.rec.Recover(iron.RPropagate, BTJSuper, "mount fails")
			fs.rec.Recover(iron.RStop, BTJSuper, "mount aborted")
			return vfs.ErrIO
		}
		js := journal.ParseHeader(jbuf)
		if js.Magic != jMagicSuper {
			fs.rec.Detect(iron.DSanity, BTJSuper, "journal superblock bad magic")
			fs.rec.Recover(iron.RPropagate, BTJSuper, "mount fails")
			fs.rec.Recover(iron.RStop, BTJSuper, "mount aborted")
			return vfs.ErrCorrupt
		}
		if js.StartSeq > 0 {
			fs.jn.Recovered(js.StartSeq - 1)
		}
		fs.ring.Reset()
	}

	fs.tx = journal.NewTxn[uint32](fs.cache)
	fs.revokes = nil
	fs.pending = pendingState{}
	fs.rmapScanned = false
	fs.lay.sb.Clean = 0
	fs.lay.sb.Mounts++
	sb := make([]byte, BlockSize)
	fs.lay.sb.marshal(sb)
	if err := fs.devWrite(sbBlock, sb, BTSuper); err != nil {
		return err
	}
	if fs.opts.MetaChecksum {
		if err := fs.updateCksumDirect(sbBlock, sb); err != nil {
			return err
		}
	}
	fs.mounted = true
	return nil
}

// Unmount commits outstanding state and writes a clean superblock.
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
		if err := fs.checkpointLocked(); err != nil {
			return err
		}
		if err := fs.writeSuperLocked(1); err != nil {
			return err
		}
	}
	fs.mounted = false
	fs.cache.Reset()
	return fs.dev.Barrier()
}

// writeSuperLocked persists the superblock (and group descriptors when
// dirty) outside the journal, as ext3 does for its lazily-updated counters.
//
//iron:txentry superblock machinery: ext3 maintains sb/group-descriptor counters outside the journal by design
func (fs *FS) writeSuperLocked(clean uint32) error {
	fs.lay.sb.Clean = clean
	sb := make([]byte, BlockSize)
	fs.lay.sb.marshal(sb)
	if err := fs.devWrite(sbBlock, sb, BTSuper); err != nil {
		return err
	}
	if fs.opts.MetaChecksum {
		if err := fs.updateCksumDirect(sbBlock, sb); err != nil {
			return err
		}
	}
	// Note: the per-group superblock replicas are deliberately NOT
	// rewritten — reproducing the staleness bug of §5.1. The ixt3 replica
	// mechanism (Mr) maintains its own, correct copy instead.
	fs.sbDirty = false
	return nil
}

// SyncLocked implements namei.Store. sync(2) semantics: everything reaches
// its home location, so the checkpoint runs too (in the kernel, kjournald
// gets there shortly after; the harness needs it now so write traffic is
// observable), and the superblock is flushed.
//
//iron:commitpoint sync's commit, checkpoint and superblock write; its error means one of them did not reach disk
func (fs *FS) SyncLocked() error {
	if err := fs.commitLocked(); err != nil {
		return err
	}
	if err := fs.checkpointLocked(); err != nil {
		return err
	}
	return fs.writeSuperLocked(0)
}

// Statfs implements vfs.FileSystem.
func (fs *FS) Statfs() (vfs.StatFS, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if err := fs.GuardReadLocked(); err != nil {
		return vfs.StatFS{}, err
	}
	sb := &fs.lay.sb
	return vfs.StatFS{
		BlockSize:   BlockSize,
		TotalBlocks: int64(sb.BlockCount),
		FreeBlocks:  int64(sb.FreeBlocks),
		TotalInodes: int64(sb.InodesPerGroup) * int64(sb.GroupCount),
		FreeInodes:  int64(sb.FreeInodes),
	}, nil
}

// String describes the instance.
func (fs *FS) String() string {
	return fmt.Sprintf("%s(features=%#x)", fs.variantName(), fs.opts.featureBits())
}

// DropCaches empties the buffer cache (clean blocks only are guaranteed
// re-readable; callers should Sync first). It models `echo 3 >
// /proc/sys/vm/drop_caches` for cold-cache experiments.
func (fs *FS) DropCaches() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cache.Reset()
}
