package ext3

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"

	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// This file implements the ixt3 redundancy machinery of §6.1: block
// checksums (Mc/Dc), metadata replication (Mr), and per-file data parity
// (Dp). Transactional checksums (Tc) live in journal.go.

// errNoRedundancy reports that a redundant copy was unavailable.
var errNoRedundancy = errors.New("ext3: no redundant copy available")

// castagnoli is the CRC32C table: the polynomial ext4 metadata_csum, btrfs
// and iSCSI use, computed by SSE4.2 / ARMv8 CRC instructions where the CPU
// has them.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// cksumTag fills the high word of every stored checksum, so a stored value
// is never 0 — which the checksum table and the commit block reserve for
// "never checksummed".
const cksumTag = uint64(0x49524f4e) << 32 // "IRON"

// cksumBlock computes the stored checksum of a block: its CRC32C under
// cksumTag. The paper uses SHA-1; a CRC suffices for corruption *detection*
// (no adversary forges blocks here) and runs at memory speed (see
// DESIGN.md).
func cksumBlock(data []byte) uint64 {
	return cksumStored(crc32.Checksum(data, castagnoli))
}

// cksumStored is the on-disk form of a finished CRC32C.
func cksumStored(crc uint32) uint64 { return cksumTag | uint64(crc) }

// sbCksum computes the checksum a superblock image carries at sbCksumOff:
// cksumBlock's digest over the whole block except that field.
func sbCksum(b []byte) uint64 {
	crc := crc32.Update(0, castagnoli, b[:sbCksumOff])
	return cksumStored(crc32.Update(crc, castagnoli, b[sbCksumOff+8:]))
}

// cksumCovers reports whether block blk has an entry in the checksum table.
// Only the group area plus the superblock and descriptor table are covered;
// the tail regions (checksum table, replica map, replica area, journal)
// protect themselves by other means.
func (fs *FS) cksumCovers(blk int64) bool {
	return fs.lay.sb.CksumStart != 0 && blk >= 0 && blk < int64(fs.lay.sb.CksumStart)
}

// cksumLoc returns the checksum-table block and byte offset for blk.
func (fs *FS) cksumLoc(blk int64) (int64, int) {
	cblk := int64(fs.lay.sb.CksumStart) + blk/PtrsPerBlock
	off := int(blk%PtrsPerBlock) * 8
	return cblk, off
}

// readTailMeta reads a tail-region block (checksum table, replica map) with
// error-code checking but no checksum verification (the regions are not
// self-covered).
func (fs *FS) readTailMeta(blk int64, bt iron.BlockType) ([]byte, error) {
	data, err := fs.loadTailMeta(blk)
	if err != nil {
		fs.rec.Detect(iron.DErrorCode, bt, "tail metadata read failed")
		return nil, vfs.ErrIO
	}
	return data, nil
}

// loadTailMeta is readTailMeta without the detection: the cached block, or
// one device read put into the cache.
func (fs *FS) loadTailMeta(blk int64) ([]byte, error) {
	if data := fs.cache.Get(blk); data != nil {
		return data, nil
	}
	buf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(blk, buf); err != nil {
		return nil, err
	}
	fs.cache.Put(blk, buf, false)
	return buf, nil
}

// cksumMatches reports whether data matches the checksum-table entry at off
// in tbl.
func cksumMatches(tbl []byte, off int, data []byte) bool {
	want := binary.LittleEndian.Uint64(tbl[off:])
	// Zero means "never checksummed" (e.g., written before the feature was
	// enabled); treat as unverified rather than corrupt.
	return want == 0 || cksumBlock(data) == want
}

// verifyCksum checks data against the stored checksum for blk. A checksum
// table read failure is reported and verification is skipped (ok=true).
// The superblock carries its own checksum and never consults the table.
// (prefetchOK needs no such case: read-ahead only reaches blocks past a
// demand read, never block 0.)
func (fs *FS) verifyCksum(blk int64, data []byte) (ok bool, err error) {
	if blk == sbBlock {
		return binary.LittleEndian.Uint64(data[sbCksumOff:]) == sbCksum(data), nil
	}
	cblk, off := fs.cksumLoc(blk)
	tbl, err := fs.readTailMeta(cblk, BTCksum)
	if err != nil {
		return true, err
	}
	return cksumMatches(tbl, off, data), nil
}

// prefetchOK is ext3's read-ahead accept hook. With Mc or Dc on, a
// prefetched block enters the cache only if it matches its stored checksum,
// whatever its type: the physical neighbour of a data block can be an
// indirect or directory block, which readMeta would then take from the
// cache unverified. A mismatch, or a checksum table that cannot be read,
// refuses the block and records nothing, so the demand read fetches it
// again and applies the full §6 policy.
func (fs *FS) prefetchOK(blk int64, buf []byte) bool {
	if !fs.opts.MetaChecksum && !fs.opts.DataChecksum || !fs.cksumCovers(blk) {
		return true
	}
	cblk, off := fs.cksumLoc(blk)
	tbl, err := fs.loadTailMeta(cblk)
	return err == nil && cksumMatches(tbl, off, buf)
}

// updateCksumTxn updates blk's checksum entry through the running
// transaction, so the entry commits atomically with the data it covers.
func (fs *FS) updateCksumTxn(blk int64, data []byte) error {
	cblk, off := fs.cksumLoc(blk)
	buf, err := fs.txMeta(cblk, BTCksum)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(buf[off:], cksumBlock(data))
	return nil
}

// ---------------------------------------------------------------------------
// Metadata replication (Mr).
// ---------------------------------------------------------------------------

// replicaCovers reports whether blk is a metadata block that Mr replicates:
// everything in the group area plus the superblock and descriptor table.
// (Only *metadata* blocks in that range are ever passed here; data blocks
// take the parity path.)
func (fs *FS) replicaCovers(blk int64) bool {
	return fs.opts.MetaReplica && fs.lay.sb.RMapStart != 0 &&
		blk >= 0 && blk < int64(fs.lay.sb.CksumStart)
}

// rmapLoc returns the replica-map block and byte offset for home block blk.
func (fs *FS) rmapLoc(blk int64) (int64, int) {
	rblk := int64(fs.lay.sb.RMapStart) + blk/PtrsPerBlock
	off := int(blk%PtrsPerBlock) * 8
	return rblk, off
}

// rmapGet returns the replica block for home block blk, or 0 when none.
func (fs *FS) rmapGet(blk int64) (int64, error) {
	rblk, off := fs.rmapLoc(blk)
	m, err := fs.readTailMeta(rblk, BTRMap)
	if err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(m[off:])), nil
}

// replicaLog is the replica area as the log §6.1 describes: every commit
// writes each replicated block it carries to a fresh slot at the log head
// (sb.ReplicaNext), so a commit's replicas leave as one contiguous run. The
// slot a block had before dies only once no map on the media names it:
// after the commit that repoints the entry, the map at home still does
// until the next checkpoint writes that entry home, and Mount reads the
// group descriptors' replica through the home map before replay. So no
// slot the committed map or the checkpointed map names is ever written.
type replicaLog struct {
	// live marks the slots some map names — the running transaction's,
	// the committed one or the one at home; nLive counts them.
	live  []bool
	nLive int64
	// dying are the slots frozen transactions' entries left, freed by the
	// next checkpoint.
	dying []uint64
	// moves, dead and maps are the freeze's scratch, reused by every
	// commit: the freezing transaction's replicas in transaction order, the
	// slots their map entries named before, and the map blocks naming them.
	moves []replicaMove
	dead  []uint64
	maps  []int64
}

// replicaMove is one replica a commit writes: home block home's payload
// goes to replica block slot.
type replicaMove struct{ home, slot int64 }

// slotOf returns the replica-area index of replica block v, or false when v
// is not in the area (0 is "no replica").
func (fs *FS) slotOf(v uint64) (uint64, bool) {
	s := v - fs.lay.sb.ReplicaStart
	return s, v >= fs.lay.sb.ReplicaStart && s < fs.lay.sb.ReplicaLen
}

// replicaLogLocked returns the replica log, building its live set on first
// use after mount from one pass over the replica map — the superblock is
// written lazily, so after a crash only the map says which slots are live.
// A mount that never commits never pays for the pass.
func (fs *FS) replicaLogLocked() (*replicaLog, error) {
	if fs.rlog != nil {
		return fs.rlog, nil
	}
	sb := &fs.lay.sb
	if sb.ReplicaLen > sb.BlockCount || sb.ReplicaStart > sb.BlockCount-sb.ReplicaLen {
		return nil, errNoRedundancy // a superblock no mkfs wrote
	}
	rl := &replicaLog{live: make([]bool, sb.ReplicaLen)}
	for i := int64(0); i < int64(sb.RMapLen); i++ {
		m, err := fs.readTailMeta(int64(sb.RMapStart)+i, BTRMap)
		if err != nil {
			return nil, err
		}
		for off := 0; off+8 <= BlockSize; off += 8 {
			if s, ok := fs.slotOf(binary.LittleEndian.Uint64(m[off:])); ok && !rl.live[s] {
				rl.live[s] = true
				rl.nLive++
			}
		}
	}
	fs.rlog = rl
	return rl, nil
}

// takeSlot claims the first slot at or after the log head that no map
// entry names and moves the head past it; ok is false when every slot is
// live.
func (fs *FS) takeSlot(rl *replicaLog) (rep int64, ok bool) {
	sb := &fs.lay.sb
	if rl.nLive >= int64(sb.ReplicaLen) {
		return 0, false
	}
	for s := sb.ReplicaNext % sb.ReplicaLen; ; s = (s + 1) % sb.ReplicaLen {
		if !rl.live[s] {
			rl.live[s] = true
			rl.nLive++
			sb.ReplicaNext = (s + 1) % sb.ReplicaLen
			return int64(sb.ReplicaStart + s), true
		}
	}
}

// logReplicasLocked gives every replicated block of the running transaction
// a fresh slot at the log head, in transaction order, and repoints its map
// entry through the transaction, so the entry commits with the replica it
// names. When the free slots are too few and some only wait on a
// checkpoint, it checkpoints first. A block still left without a slot has
// its entry cleared: no reader may take the superseded copy for current.
// It returns the replicas to write with the commit. The slots the entries
// named before stay live: retireReplicasLocked hands them to the next
// checkpoint once the transaction is frozen, and a freeze that fails
// before then leaks them until the next mount, never reuses them. A map
// that cannot be read leaves a block's entry as it was, as any failed
// redundancy update does.
func (fs *FS) logReplicasLocked() ([]replicaMove, error) {
	rl, err := fs.replicaLogLocked()
	if err != nil {
		return nil, nil // the failed map read is recorded; entries stay as they were
	}
	rl.moves, rl.dead, rl.maps = rl.moves[:0], rl.dead[:0], rl.maps[:0]
	t := fs.tx
	n := t.Meta.Len() // the map blocks staged below join t.Meta after n
	for i := 0; i < n; i++ {
		if blk := t.Meta.Block(i); fs.replicaCovers(blk) {
			rblk, _ := fs.rmapLoc(blk)
			rl.maps = append(rl.maps, rblk)
		}
	}
	// One map block per replicated block so far: the slots this freeze needs.
	if free := int64(fs.lay.sb.ReplicaLen) - rl.nLive; free < int64(len(rl.maps)) && len(rl.dying) > 0 {
		if err := fs.checkpointLocked(); err != nil {
			return nil, err
		}
	}
	// Stage the map blocks first, in ascending block order: replay writes a
	// transaction's blocks home one at a time in log order, and only
	// ascending neighbours leave as one command.
	slices.Sort(rl.maps)
	for _, rblk := range slices.Compact(rl.maps) {
		if _, err := fs.txMeta(rblk, BTRMap); err != nil {
			continue // unstaged: the blocks it maps keep their entries
		}
	}
	for i := 0; i < n; i++ {
		blk := t.Meta.Block(i)
		if !fs.replicaCovers(blk) {
			continue
		}
		rblk, off := fs.rmapLoc(blk)
		m := t.Meta.Payload(rblk)
		if m == nil {
			continue
		}
		if old, ok := fs.slotOf(binary.LittleEndian.Uint64(m[off:])); ok {
			rl.dead = append(rl.dead, old)
		}
		rep, ok := fs.takeSlot(rl)
		binary.LittleEndian.PutUint64(m[off:], uint64(rep))
		if ok {
			rl.moves = append(rl.moves, replicaMove{blk, rep})
		}
	}
	return rl.moves, nil
}

// retireReplicasLocked hands the slots the frozen transaction's entries no
// longer name to the next checkpoint: by then this commit has put the new
// entries in the journal, and the checkpoint puts them home.
func (fs *FS) retireReplicasLocked() {
	if rl := fs.rlog; rl != nil {
		rl.dying = append(rl.dying, rl.dead...)
		rl.dead = rl.dead[:0]
	}
}

// freeReplicasLocked frees the retired slots once a checkpoint has put
// every committed map block home.
func (fs *FS) freeReplicasLocked() {
	rl := fs.rlog
	if rl == nil {
		return
	}
	for _, s := range rl.dying {
		if rl.live[s] {
			rl.live[s] = false
			rl.nLive--
		}
	}
	rl.dying = rl.dying[:0]
}

// readReplica fetches the replica copy of home block blk, verifying its
// checksum when Mc is on. Replicas are placed in the distant replica area,
// so a spatially-local fault that takes out the home copy leaves them
// intact (§3.3).
func (fs *FS) readReplica(blk int64, bt iron.BlockType) ([]byte, error) {
	if !fs.opts.MetaReplica || fs.lay.sb.RMapStart == 0 {
		return nil, errNoRedundancy
	}
	rep, err := fs.rmapGet(blk)
	if err != nil || rep == 0 {
		return nil, errNoRedundancy
	}
	buf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(rep, buf); err != nil {
		fs.rec.Detect(iron.DErrorCode, BTReplica, "replica read failed")
		return nil, vfs.ErrIO
	}
	if fs.opts.MetaChecksum {
		// The home block's checksum entry covers the replica's payload
		// too (they are byte-identical after every commit).
		if ok, verr := fs.verifyCksum(blk, buf); verr == nil && !ok {
			fs.rec.Detect(iron.DRedundancy, BTReplica, "replica checksum mismatch")
			return nil, vfs.ErrCorrupt
		}
	}
	return buf, nil
}

// ---------------------------------------------------------------------------
// Per-file data parity (Dp).
// ---------------------------------------------------------------------------

// xorInto xors src into dst in place.
func xorInto(dst, src []byte) { subtle.XORBytes(dst, dst, src) }

// readFileBlockRaw copies file block blk into dst for parity maintenance:
// cache first, then the device with loadRaw's policy.
func (fs *FS) readFileBlockRaw(blk int64, dst []byte) error {
	if fs.cache.GetInto(blk, 0, dst) {
		return nil
	}
	load := func(buf []byte) error { return fs.loadRaw(blk, buf) }
	return fs.cache.MissInto(blk, 0, dst, load)
}

// loadRaw is ixt3's read policy for parity maintenance: the read into buf
// and the data checksum (Dc) check, but no recursive recovery — callers
// fall back to parity reconstruction.
func (fs *FS) loadRaw(blk int64, buf []byte) error {
	if err := fs.dev.ReadBlock(blk, buf); err != nil {
		return vfs.ErrIO
	}
	if fs.opts.DataChecksum && fs.cksumCovers(blk) {
		if ok, verr := fs.verifyCksum(blk, buf); verr == nil && !ok {
			fs.rec.Detect(iron.DRedundancy, BTData, "data checksum mismatch")
			return vfs.ErrCorrupt
		}
	}
	return nil
}

// updateParityDelta folds (old ⊕ new) of one data block into the file's
// parity block through the transaction's ordered-data path; a nil side
// stands for zeros, as a freed block's new contents do.
func (fs *FS) updateParityDelta(in *inode, oldData, newData []byte) error {
	if !fs.opts.DataParity || in.Parity == 0 {
		return nil
	}
	pblk := int64(in.Parity)
	pbuf, err := fs.txData(pblk, BTParity)
	if err != nil {
		return err
	}
	xorInto(pbuf, oldData)
	xorInto(pbuf, newData)
	return nil
}

// parityOld copies buf, a data block of in about to be patched, into the
// scratch block and returns it as updateParityDelta's oldData; nil when in
// has no parity to update.
func (fs *FS) parityOld(in *inode, buf []byte) []byte {
	if !fs.opts.DataParity || in.Parity == 0 {
		return nil
	}
	copy(fs.scratch, buf)
	return fs.scratch
}

// reconstructData rebuilds the file block at logical index lost (physical
// block lostPhys) by xoring the parity block with every other data block of
// the file. It fails if any sibling block or the parity block is itself
// unavailable — the scheme tolerates exactly one lost block per file, as in
// the paper.
func (fs *FS) reconstructData(in *inode, lost int64, lostPhys int64) ([]byte, error) {
	if !fs.opts.DataParity || in == nil || in.Parity == 0 {
		return nil, errNoRedundancy
	}
	acc, sib := make([]byte, BlockSize), make([]byte, BlockSize)
	if err := fs.readFileBlockRaw(int64(in.Parity), acc); err != nil {
		return nil, err
	}
	nblocks := (int64(in.Size) + BlockSize - 1) / BlockSize
	for l := int64(0); l < nblocks; l++ {
		if l == lost {
			continue
		}
		phys, err := fs.bmap(in, l, false)
		if err != nil {
			return nil, err
		}
		if phys == 0 || phys == lostPhys {
			continue // hole contributes zeros
		}
		if err := fs.readFileBlockRaw(phys, sib); err != nil {
			return nil, err
		}
		xorInto(acc, sib)
	}
	return acc, nil
}
