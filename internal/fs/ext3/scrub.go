package ext3

import (
	"fmt"

	"ironfs/internal/disk"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// This file implements the taxonomy's *eager* detection (§3.2): a disk
// scrubber that proactively sweeps the volume for latent sector errors and
// — when checksums are on — silent corruption, repairing damaged blocks
// from their replicas before a workload ever trips over them. It also
// implements the space-usage census used by the §6.2 space-overhead study.
//
// The sweep is online: it examines the volume in bounded batches,
// releasing fs.mu between batches so foreground operations interleave with
// the scrub instead of stalling behind a whole-volume freeze, and it
// submits repair writes as one scheduler batch per sweep step so the
// elevator can coalesce and order them with foreground traffic.

// ScrubReport summarizes one scrubbing pass.
type ScrubReport struct {
	// Scanned is the number of blocks read.
	Scanned int64
	// LatentErrors counts unreadable blocks discovered.
	LatentErrors int64
	// Corrupt counts checksum mismatches discovered on blocks the
	// enabled checksum level covers: Mc verifies the metadata types, Dc
	// verifies data and parity — the same split the journal applies when
	// it writes the checksum table.
	Corrupt int64
	// Repaired counts blocks rewritten from a replica.
	Repaired int64
	// Unrecovered counts damaged blocks the scrub could not heal: no
	// usable redundancy, or the repair write itself failed.
	Unrecovered int64
	// Batches counts lock acquisitions: the sweep runs online in bounded
	// batches rather than freezing the volume.
	Batches int64
}

// scrubBatchBlocks bounds the blocks examined per fs.mu acquisition.
const scrubBatchBlocks = 128

// scrubTarget is one block scheduled for examination.
type scrubTarget struct {
	blk int64
	bt  iron.BlockType
}

// cksumApplies reports whether blocks of type bt are covered by the
// enabled checksumming level. The split mirrors the write side
// (FreezeLocked): Dc covers the ordered-data types (data and parity),
// Mc covers every metadata type. Gating on MetaChecksum alone — as the
// scrubber once did — left data blocks unverified on a Dc-only volume.
func (fs *FS) cksumApplies(bt iron.BlockType) bool {
	if bt == BTData || bt == BTParity {
		return fs.opts.DataChecksum
	}
	return fs.opts.MetaChecksum
}

// Scrub sweeps every in-use metadata and data block: each is read (and
// verified against its checksum when the block's level is enabled);
// damaged blocks are repaired in place from their replicas (Mr).
// Scrubbing is the classic eager complement to the lazy on-access
// detection the rest of the file system performs.
//
// The sweep is incremental: foreground operations run between batches, so
// a block mutated mid-sweep is simply seen in whichever state the batch
// that reaches it finds — the journal keeps every such state consistent.
func (fs *FS) Scrub() (ScrubReport, error) {
	var rep ScrubReport

	fs.mu.Lock()
	if !fs.mounted {
		fs.mu.Unlock()
		return rep, vfs.ErrNotMounted
	}
	if err := fs.health.CheckRead(); err != nil {
		fs.mu.Unlock()
		return rep, err
	}
	fs.tr.Phase("fsck:scrub", fmt.Sprintf("batch=%d", scrubBatchBlocks))
	// The static scan plan follows from the immutable mkfs geometry.
	groups := fs.lay.sb.GroupCount
	itable := int64(fs.lay.sb.ITableBlocks)
	totalInodes := fs.lay.sb.InodesPerGroup * groups
	fs.mu.Unlock()

	// Static metadata, in bounded batches.
	var static []scrubTarget
	static = append(static, scrubTarget{sbBlock, BTSuper}, scrubTarget{gdtBlock, BTGDesc})
	for g := uint32(0); g < groups; g++ {
		start := fs.lay.groupStart(g)
		static = append(static, scrubTarget{start + 1, BTBitmap}, scrubTarget{start + 2, BTIBitmap})
		for t := int64(0); t < itable; t++ {
			static = append(static, scrubTarget{start + groupMetaBlks + t, BTInode})
		}
	}
	for len(static) > 0 {
		n := len(static)
		if n > scrubBatchBlocks {
			n = scrubBatchBlocks
		}
		if err := fs.scrubBatch(static[:n], &rep); err != nil {
			return rep, err
		}
		static = static[n:]
	}

	// Dynamic blocks, via the inode table. Each batch reads its slice of
	// the table under the lock it scans with, so files created or removed
	// between batches are seen in their current state.
	for ino := uint32(1); ino <= totalInodes; {
		err := func() error {
			fs.mu.Lock()
			defer fs.mu.Unlock()
			if !fs.mounted {
				return vfs.ErrNotMounted
			}
			rep.Batches++
			var targets []scrubTarget
			for ; ino <= totalInodes && len(targets) < scrubBatchBlocks; ino++ {
				in, err := fs.LoadLocked(ino)
				if err != nil {
					continue // damaged table block: the static sweep already saw it
				}
				if !in.Allocated() {
					continue
				}
				leaf := BTData
				if in.IsDir() {
					leaf = BTDir
				}
				if in.Parity != 0 {
					targets = append(targets, scrubTarget{int64(in.Parity), BTParity})
				}
				err = fs.forEachBlock(in, func(_, phys int64) error {
					targets = append(targets, scrubTarget{phys, leaf})
					return nil
				})
				if err != nil {
					return err
				}
			}
			return fs.scrubTargetsLocked(targets, &rep)
		}()
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// scrubBatch examines one batch of targets under a single fs.mu
// acquisition.
func (fs *FS) scrubBatch(targets []scrubTarget, rep *ScrubReport) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.mounted {
		return vfs.ErrNotMounted
	}
	rep.Batches++
	return fs.scrubTargetsLocked(targets, rep)
}

// scrubTargetsLocked reads and verifies each target, then issues all of
// the batch's repair writes through the device as one batch so the
// scheduler can coalesce them.
//
//iron:txentry repair machinery: scrub repairs verified-bad blocks in place under the FS lock; the journal never sees reconstructed data
func (fs *FS) scrubTargetsLocked(targets []scrubTarget, rep *ScrubReport) error {
	var repairs []scrubTarget
	var writes []disk.Request
	for _, t := range targets {
		rep.Scanned++
		buf := make([]byte, BlockSize)
		damaged := false
		if err := fs.dev.ReadBlock(t.blk, buf); err != nil {
			fs.rec.Detect(iron.DErrorCode, t.bt, "scrub found latent sector error")
			rep.LatentErrors++
			damaged = true
		} else if fs.cksumCovers(t.blk) && fs.cksumApplies(t.bt) {
			if ok, verr := fs.verifyCksum(t.blk, buf); verr == nil && !ok {
				fs.rec.Detect(iron.DRedundancy, t.bt, "scrub found corruption")
				rep.Corrupt++
				damaged = true
			}
		}
		if !damaged {
			continue
		}
		if fs.health.CheckWrite() != nil {
			rep.Unrecovered++ // degraded: repair writes are refused
			continue
		}
		data, err := fs.readReplica(t.blk, t.bt)
		if err != nil {
			rep.Unrecovered++
			continue
		}
		repairs = append(repairs, t)
		writes = append(writes, disk.Request{Block: t.blk, Data: data})
	}
	if len(writes) == 0 {
		return nil
	}
	if err := fs.dev.WriteBatch(writes); err == nil {
		for _, t := range repairs {
			fs.rec.Recover(iron.RRepair, t.bt, "scrub repaired block from replica")
			fs.cache.Drop(t.blk)
			rep.Repaired++
		}
		return nil
	}
	// The batch failed somewhere inside; retry block by block to
	// attribute the failure. A failed repair write is damage the scrub
	// could not heal: record the detection, count it unrecovered, and
	// apply the FS's write-error policy (FixBugs aborts the journal;
	// stock ext3 merely records — its §5.1 DZero lapse applies to the
	// write path, but the scrubber itself never loses the verdict).
	for i, t := range repairs {
		if werr := fs.dev.WriteBlock(t.blk, writes[i].Data); werr == nil {
			fs.rec.Recover(iron.RRepair, t.bt, "scrub repaired block from replica")
			fs.cache.Drop(t.blk)
			rep.Repaired++
			continue
		}
		fs.rec.Detect(iron.DErrorCode, t.bt, "scrub repair write failed")
		rep.Unrecovered++
		if fs.opts.FixBugs {
			fs.abortJournal(t.bt, "scrub repair write failure")
		}
	}
	return nil
}

// forEachInode walks all allocated inodes. The callback must not mutate
// file system state.
func (fs *FS) forEachInode(fn func(ino uint32, in *inode) error) error {
	total := fs.lay.sb.InodesPerGroup * fs.lay.sb.GroupCount
	for ino := uint32(1); ino <= total; ino++ {
		in, err := fs.LoadLocked(ino)
		if err != nil {
			continue // damaged table block: the scrub check() already saw it
		}
		if !in.Allocated() {
			continue
		}
		if err := fn(ino, in); err != nil {
			return err
		}
	}
	return nil
}

// SpaceUsage is the volume census behind the §6.2 space-overhead numbers.
type SpaceUsage struct {
	// Used is every occupied block outside the tail regions: static and
	// dynamic metadata, file data, and parity.
	Used int64
	// Parity counts allocated per-file parity blocks (the Dp cost).
	Parity int64
	// CksumRegion and RMapRegion are the static region sizes (Mc/Dc and
	// part of the Mr cost).
	CksumRegion, RMapRegion int64
	// Replicas counts replica-area blocks in use (the rest of Mr).
	Replicas int64
}

// SpaceUsage computes the census.
func (fs *FS) SpaceUsage() SpaceUsage {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	sb := &fs.lay.sb
	staticMeta := int64(2) + int64(sb.GroupCount)*(groupMetaBlks+int64(sb.ITableBlocks))
	dataInUse := int64(sb.GroupCount)*fs.lay.dataBlocksPerGroup() - int64(sb.FreeBlocks)
	u := SpaceUsage{
		Used:        staticMeta + dataInUse,
		CksumRegion: int64(sb.CksumLen),
		RMapRegion:  int64(sb.RMapLen),
		Replicas:    int64(sb.ReplicaNext),
	}
	//iron:policy harness §6.2 the space census is best-effort instrumentation; unreadable itable blocks merely undercount parity
	_ = fs.forEachInode(func(_ uint32, in *inode) error {
		if in.Parity != 0 {
			u.Parity++
		}
		return nil
	})
	return u
}
