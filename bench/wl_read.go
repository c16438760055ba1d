package main

import (
	"math/rand"
)

// The two read workloads are one cache layer used two ways: a set that
// fits the 2048-block cache eight times over, and a set four times its
// size. A hit-path win that costs eviction shows on the second.
const (
	docFiles = 16       // cached_read: shared documents
	docSize  = 64 << 10 // bytes per document: 256 blocks in all
	readSize = blockSize

	scanFiles    = 64        // cold_scan: files in the set
	scanFileSize = 512 << 10 // 128 blocks each: 8192 blocks, 4x the cache
)

// size scales a workload dimension down for -quick.
func size(quick bool, full, small int) int {
	if quick {
		return small
	}
	return full
}

// arena is the volume size: the default arena, or a quarter of it for
// -quick, where zeroing and copying arenas would be most of the run.
func arena(quick bool) int64 { return int64(size(quick, arenaBlocks, arenaBlocks/4)) }

// images formats each named file system on a volume of the given size, lets
// fill populate it, and returns the cleanly unmounted images.
func images(names []string, blocks int64, fill func(*tower) error) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, name := range names {
		img, err := buildImage(towerSpec{fs: name, blocks: blocks}, fill)
		if err != nil {
			return nil, err
		}
		out[name] = img
	}
	return out, nil
}

// streamOps appends reads of file f of the set, one per block-sized chunk.
func streamOps(ops []op, rng *rand.Rand, set fileSet, f int) []op {
	for off := 0; off < len(set.data[f]); off += readSize {
		ops = append(ops, op{verb: vRead, path: set.paths[f], off: int64(off),
			data: set.data[f][off : off+readSize], cpu: jitter(rng, readCPU)})
	}
	return ops
}

func setupCachedRead(seed int64, quick bool) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	set := makeFileSet(rng, "/doc", docFiles, docSize)
	w := &clientWorkload{blocks: arena(quick), names: fsNames, warm: set.readAll}
	var err error
	if w.images, err = images(w.names, w.blocks, set.populate); err != nil {
		return nil, err
	}
	nClients, passes := size(quick, 64, 8), size(quick, 2, 1)
	for id := 0; id < nClients; id++ {
		c := &client{buf: make([]byte, readSize)}
		start := rng.Intn(docFiles)
		for p := 0; p < passes; p++ {
			for f := 0; f < docFiles; f++ {
				c.ops = streamOps(c.ops, rng, set, (start+f)%docFiles)
			}
		}
		w.clients = append(w.clients, c)
		w.opCount += len(c.ops)
	}
	return w, nil
}

func setupColdScan(seed int64, quick bool) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	set := makeFileSet(rng, "/scan", size(quick, scanFiles, 16), size(quick, scanFileSize, scanFileSize/4))
	w := &clientWorkload{blocks: arena(quick), names: fsNames}
	var err error
	if w.images, err = images(w.names, w.blocks, set.populate); err != nil {
		return nil, err
	}
	nClients := size(quick, 64, 8)
	// Staggered starts: a seeded permutation gives each client its own file
	// of the set to stream, so 64 sequential scans interleave on one arm.
	starts := rng.Perm(len(set.paths))
	for id := 0; id < nClients; id++ {
		c := &client{buf: make([]byte, readSize)}
		c.ops = streamOps(c.ops, rng, set, starts[id%len(starts)])
		w.clients = append(w.clients, c)
		w.opCount += len(c.ops)
	}
	return w, nil
}
