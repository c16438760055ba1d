package journal

import (
	"slices"

	"ironfs/internal/bcache"
)

// Unpin marks the committed blocks clean in the cache, making them
// evictable again — unless the running transaction (its metadata and
// ordered-data sets are meta and data) re-dirtied a block while the commit
// was in flight, in which case the dirty pin now belongs to it.
func Unpin[M, D any](cache *bcache.Cache, blks []int64, meta map[int64]M, data map[int64]D) {
	for _, blk := range blks {
		if _, live := meta[blk]; live {
			continue
		}
		if _, live := data[blk]; live {
			continue
		}
		cache.MarkClean(blk)
	}
}

// RemoveBlock removes blk's first occurrence from a transaction's ordered
// block list.
func RemoveBlock(order []int64, blk int64) []int64 {
	if i := slices.Index(order, blk); i >= 0 {
		return slices.Delete(order, i, i+1)
	}
	return order
}
