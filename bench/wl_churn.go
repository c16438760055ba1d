package main

import (
	"fmt"
	"math/rand"
)

const (
	churnWindow   = 2  // live files per client: 64 clients stay inside jfs's inode table and ntfs's MFT
	churnFiles    = 16 // files each client churns in meta_churn
	degradedFiles = 4  // files each client churns in fault_degraded
	degradedReads = 2  // document reads after each churn op there
	faultInterval = 200
)

// churnOps is one client's metadata stream: make a directory, then for
// each file unlink the one leaving the live window, create, write one
// block, fsync.
func churnOps(rng *rand.Rand, id, files int) []op {
	dir := fmt.Sprintf("/c%03d", id)
	payload := make([]byte, blockSize)
	fillBlock(rng, payload)
	ops := []op{{verb: vMkdir, path: dir, cpu: jitter(rng, mutateCPU)}}
	for i := 0; i < files; i++ {
		if i >= churnWindow {
			ops = append(ops, op{verb: vUnlink, path: fmt.Sprintf("%s/f%03d", dir, i-churnWindow), cpu: jitter(rng, mutateCPU)})
		}
		p := fmt.Sprintf("%s/f%03d", dir, i)
		ops = append(ops,
			op{verb: vCreate, path: p, cpu: jitter(rng, mutateCPU)},
			op{verb: vWrite, path: p, data: payload, cpu: jitter(rng, mutateCPU)},
			op{verb: vFsync, path: p, cpu: jitter(rng, mutateCPU)})
	}
	return ops
}

func setupMetaChurn(seed int64, quick bool) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &clientWorkload{blocks: arena(quick), names: fsNames}
	var err error
	if w.images, err = images(w.names, w.blocks, func(*tower) error { return nil }); err != nil {
		return nil, err
	}
	for id := 0; id < size(quick, 64, 8); id++ {
		c := &client{ops: churnOps(rng, id, size(quick, churnFiles, 4))}
		w.clients = append(w.clients, c)
		w.opCount += len(c.ops)
	}
	return w, nil
}

// setupFaultDegraded is the paper's promise as a workload: ixt3 with all
// five mechanisms keeps serving the meta_churn + cached_read mix while the
// device beneath it fails or corrupts one block after another.
func setupFaultDegraded(seed int64, quick bool) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	set := makeFileSet(rng, "/doc", docFiles, docSize)
	w := &clientWorkload{blocks: arena(quick), names: []string{"ixt3"}, warm: set.readAll,
		faults: &faultPlan{interval: faultInterval, seed: seed}}
	var err error
	if w.images, err = images(w.names, w.blocks, set.populate); err != nil {
		return nil, err
	}
	for id := 0; id < size(quick, 64, 8); id++ {
		c := &client{buf: make([]byte, readSize)}
		for _, o := range churnOps(rng, id, size(quick, degradedFiles, 4)) {
			c.ops = append(c.ops, o)
			// Two reads per churn op, not one: at one to one the median op
			// falls in the gap between the read latencies and the write
			// latencies, and which side it lands on is the seed's choice.
			for i := 0; i < degradedReads; i++ {
				f, off := rng.Intn(docFiles), rng.Intn(docSize/readSize)*readSize
				c.ops = append(c.ops, op{verb: vRead, path: set.paths[f], off: int64(off),
					data: set.data[f][off : off+readSize], cpu: jitter(rng, readCPU)})
			}
		}
		w.clients = append(w.clients, c)
		w.opCount += len(c.ops)
	}
	return w, nil
}
