package ext3

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

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
	if data := fs.cache.Get(blk); data != nil {
		return data, nil
	}
	buf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(blk, buf); err != nil {
		fs.rec.Detect(iron.DErrorCode, bt, "tail metadata read failed")
		return nil, vfs.ErrIO
	}
	fs.cache.Put(blk, buf, false)
	return buf, nil
}

// verifyCksum checks data against the stored checksum for blk. A checksum
// table read failure is reported and verification is skipped (ok=true).
func (fs *FS) verifyCksum(blk int64, data []byte) (ok bool, err error) {
	cblk, off := fs.cksumLoc(blk)
	tbl, err := fs.readTailMeta(cblk, BTCksum)
	if err != nil {
		return true, err
	}
	want := binary.LittleEndian.Uint64(tbl[off:])
	if want == 0 {
		// Zero means "never checksummed" (e.g., written before the
		// feature was enabled); treat as unverified rather than corrupt.
		return true, nil
	}
	return cksumBlock(data) == want, nil
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

// updateCksumDirect updates blk's checksum entry with a direct device
// write, used for the out-of-journal superblock writes.
//
//iron:txentry redundancy machinery: in-place checksum block update is its own write path
func (fs *FS) updateCksumDirect(blk int64, data []byte) error {
	cblk, off := fs.cksumLoc(blk)
	tbl, err := fs.readTailMeta(cblk, BTCksum)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(tbl[off:], cksumBlock(data))
	fs.cache.Put(cblk, tbl, false)
	return fs.devWrite(cblk, tbl, BTCksum)
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

// ensureReplica returns blk's replica location, allocating one from the
// replica area on first use. The map update is journaled.
func (fs *FS) ensureReplica(blk int64) (int64, error) {
	rep, err := fs.rmapGet(blk)
	if err != nil {
		return 0, err
	}
	if rep != 0 {
		return rep, nil
	}
	// The allocator head persists in the superblock, which is written
	// lazily; after a crash it may be stale. Recover it once per mount by
	// scanning the map for the highest slot in use.
	if !fs.rmapScanned {
		fs.rmapScanned = true
		var maxSlot uint64
		for i := int64(0); i < int64(fs.lay.sb.RMapLen); i++ {
			m, err := fs.readTailMeta(int64(fs.lay.sb.RMapStart)+i, BTRMap)
			if err != nil {
				return 0, err
			}
			for off := 0; off+8 <= BlockSize; off += 8 {
				v := binary.LittleEndian.Uint64(m[off:])
				if v >= fs.lay.sb.ReplicaStart {
					slot := v - fs.lay.sb.ReplicaStart + 1
					if slot > maxSlot {
						maxSlot = slot
					}
				}
			}
		}
		if maxSlot > fs.lay.sb.ReplicaNext {
			fs.lay.sb.ReplicaNext = maxSlot
			fs.sbDirty = true
		}
	}
	if fs.lay.sb.ReplicaNext >= fs.lay.sb.ReplicaLen {
		return 0, vfs.ErrNoSpace
	}
	rep = int64(fs.lay.sb.ReplicaStart + fs.lay.sb.ReplicaNext)
	fs.lay.sb.ReplicaNext++
	fs.sbDirty = true
	rblk, off := fs.rmapLoc(blk)
	m, err := fs.txMeta(rblk, BTRMap)
	if err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint64(m[off:], uint64(rep))
	return rep, nil
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
func xorInto(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// readFileBlockRaw reads a file block for parity maintenance: cache first,
// then the device, verifying the data checksum (Dc) but performing no
// recursive recovery — callers fall back to parity reconstruction.
func (fs *FS) readFileBlockRaw(blk int64) ([]byte, error) {
	if data := fs.cache.Get(blk); data != nil {
		return data, nil
	}
	buf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(blk, buf); err != nil {
		return nil, vfs.ErrIO
	}
	if fs.opts.DataChecksum && fs.cksumCovers(blk) {
		if ok, verr := fs.verifyCksum(blk, buf); verr == nil && !ok {
			fs.rec.Detect(iron.DRedundancy, BTData, "data checksum mismatch")
			return nil, vfs.ErrCorrupt
		}
	}
	fs.cache.Put(blk, buf, false)
	return buf, nil
}

// updateParityDelta folds (old ⊕ new) of one data block into the file's
// parity block through the transaction's ordered-data path.
func (fs *FS) updateParityDelta(in *inode, oldData, newData []byte) error {
	if !fs.opts.DataParity || in.Parity == 0 {
		return nil
	}
	pblk := int64(in.Parity)
	pbuf, err := fs.txData(pblk, BTParity)
	if err != nil {
		return err
	}
	for i := range pbuf {
		var o byte
		if oldData != nil {
			o = oldData[i]
		}
		pbuf[i] ^= o ^ newData[i]
	}
	return nil
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
	out, err := fs.readFileBlockRaw(int64(in.Parity))
	if err != nil {
		return nil, err
	}
	acc := make([]byte, BlockSize)
	copy(acc, out)
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
		sib, err := fs.readFileBlockRaw(phys)
		if err != nil {
			return nil, err
		}
		xorInto(acc, sib)
	}
	return acc, nil
}
