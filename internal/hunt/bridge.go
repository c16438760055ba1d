package hunt

import (
	"fmt"

	"ironfs/internal/fstest"
	"ironfs/internal/vfs"
)

// ExploreWorkloads renders generated hunt sequences as legacy explorer
// workloads, so ironcrash can point its structural crash matrix at the
// generator's corpus (-hunt-seed/-ops). The explorer formats bare
// volumes, so each workload issues the hunt preamble itself before its
// sequence — the baseline file is part of the crash surface here, which
// is fine for a structural exploration. n > 0 thins the (possibly
// sampled) sequence list evenly to at most n workloads.
func ExploreWorkloads(b Bounds, n int) []fstest.ExploreWorkload {
	seqs := Sequences(b)
	if n > 0 && len(seqs) > n {
		thinned := make([]fstest.Sequence, 0, n)
		for i := 0; i < n; i++ {
			thinned = append(thinned, seqs[i*len(seqs)/n])
		}
		seqs = thinned
	}
	out := make([]fstest.ExploreWorkload, 0, len(seqs))
	for idx, seq := range seqs {
		seq := seq
		out = append(out, fstest.ExploreWorkload{
			Name: fmt.Sprintf("hunt%03d", idx),
			Run: func(fsys vfs.FileSystem) error {
				if err := fstest.Preamble(fsys); err != nil {
					return err
				}
				for i, op := range seq {
					if err := op.Issue(fsys, i); err != nil {
						return fmt.Errorf("op %d %s: %w", i, op, err)
					}
				}
				return nil
			},
		})
	}
	return out
}
