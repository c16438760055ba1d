package bcache

import "ironfs/internal/disk"

// Prefetcher is a volume's sequential read-ahead. It keeps no history of
// its own: the history of a stream is what the cache already holds. On a
// data miss at blk, the run of resident blocks just before blk says how far
// a sequential reader has come — context read-ahead, the design Linux
// adopted in 2.6.31 for interleaved readers. A per-volume run detector sees
// one miss stream; once several clients' misses interleave, every miss
// breaks its run and it never fires.
//
// Read-ahead is advisory and a nil *Prefetcher is valid and inert. Its two
// fields are fixed at construction, so it needs no lock.
type Prefetcher struct {
	cache *Cache
	// window is the most blocks one miss fetches, and the longest history
	// it looks back over.
	window int
}

// NewPrefetcher returns read-ahead over c fetching up to window blocks per
// miss. A window of 0 or less returns nil: read-ahead off.
func NewPrefetcher(c *Cache, window int) *Prefetcher {
	if window <= 0 {
		return nil
	}
	return &Prefetcher{cache: c, window: window}
}

// ahead returns how many blocks after blk a miss at blk should fetch. It
// counts the resident blocks immediately before blk, up to the window:
// none means no stream, and no prefetch; otherwise the largest power of two
// not above that history, and the whole window once the history fills it.
// A stream with nothing resident before it so ramps 1, 2, 4, 8 from its
// second miss, and each of several interleaved streams ramps on its own. It
// allocates nothing.
func (p *Prefetcher) ahead(blk int64) int {
	if p == nil {
		return 0
	}
	hist := 0
	for hist < p.window && blk > int64(hist) && p.cache.Resident(blk-1-int64(hist)) {
		hist++
	}
	if hist == 0 || hist == p.window {
		return hist
	}
	n := 1
	for n*2 <= hist {
		n *= 2
	}
	return n
}

// ReadAhead is the one prefetch loop, called by a file system's Read right
// after a miss at blk has been filled — never from a write's
// read-modify-write or a truncate. It reads the blocks ahead predicts, one
// device read each, into the cache and returns how many it cached. Each
// block is read into a frame from the pool (TakeFrame), so once evicted
// frames circulate a firing allocates nothing; accept must not keep buf.
// A frame the device fails to read or accept refuses is left to the
// collector.
//
// The window stops short of the first block that is already resident (its
// buffer may be dirty, and a buffer the cache holds is never older than the
// media's) and at the first block the device fails to read or accept
// refuses. Such a block is not cached and nothing is recorded, so the
// demand read that reaches it meets the fault and the file system's failure
// policy exactly as it would without read-ahead. accept is where a file
// system applies the checks its demand path would have (nil accepts
// everything).
func (p *Prefetcher) ReadAhead(dev disk.Device, blk int64, accept func(blk int64, buf []byte) bool) int {
	end := blk + int64(p.ahead(blk))
	got := 0
	for pb := blk + 1; pb <= end && pb < dev.NumBlocks(); pb++ {
		if p.cache.Resident(pb) {
			break
		}
		buf := TakeFrame()
		if dev.ReadBlock(pb, buf) != nil || accept != nil && !accept(pb, buf) {
			break
		}
		p.cache.Fill(pb, buf)
		got++
	}
	return got
}
