package hunt

import (
	"math/rand"
	"sort"

	"ironfs/internal/faultinject"
	"ironfs/internal/fstest"
)

// The name/data domain. Three file names (one nested under the single
// directory), one directory, two payload size classes: small enough that
// bounded sequences stay enumerable, rich enough to express every pattern
// in the vocabulary — rename-over-existing, hard-link-then-unlink-source,
// append-after-fsync, fsync-of-file vs fsync-of-parent-dir vs sync.
// fstest.BasePath is listed first: it pre-exists (see the baseline in
// internal/fstest), so ops against it — overwrite, rename-away, unlink —
// pit the sequence against an already-durable guarantee.
var (
	domFiles = []string{fstest.BasePath, "/a", "/b", "/d/c"}
	domDirs  = []string{"/d"}
	domSels  = []int{0, 1}
)

// Bounds bound the generated workload space.
type Bounds struct {
	// MaxOps caps the sequence length (default 3).
	MaxOps int
	// MaxSeqs samples that many sequences from the full enumeration with
	// a seeded shuffle (enumeration order preserved). Default 400 —
	// MaxOps=3 enumerates ~2100 sequences, more than a default run
	// should replay; negative means no sampling.
	MaxSeqs int
	// Seed drives the sample (default faultinject.DefaultSeed).
	Seed int64
}

func (b Bounds) withDefaults() Bounds {
	if b.MaxOps <= 0 {
		b.MaxOps = 3
	}
	if b.MaxSeqs == 0 {
		b.MaxSeqs = 400
	}
	if b.Seed == 0 {
		b.Seed = faultinject.DefaultSeed
	}
	return b
}

// valid is the generator's guard: an op the model predicts succeeds, less
// the renames the corpus has always left out — onto itself or onto a
// directory — so the enumeration stays what it was.
func valid(t *fstest.Model, op fstest.Op) bool {
	if op.Kind == fstest.OpRename && (op.Path == op.Path2 || t.IsDir(op.Path2)) {
		return false
	}
	return t.Predict(op) == nil
}

// candidates lists every op issuable in the current model state, in a
// fixed deterministic order (kind-major, domain order within a kind).
func candidates(t *fstest.Model) []fstest.Op {
	var ops []fstest.Op
	for _, p := range domFiles {
		if op := (fstest.Op{Kind: fstest.OpCreate, Path: p}); valid(t, op) {
			ops = append(ops, op)
		}
	}
	for _, p := range domDirs {
		if op := (fstest.Op{Kind: fstest.OpMkdir, Path: p}); valid(t, op) {
			ops = append(ops, op)
		}
	}
	for _, kind := range []fstest.OpKind{fstest.OpWrite, fstest.OpAppend} {
		for _, p := range domFiles {
			for _, sel := range domSels {
				if op := (fstest.Op{Kind: kind, Path: p, Data: sel}); valid(t, op) {
					ops = append(ops, op)
				}
			}
		}
	}
	for _, src := range domFiles {
		for _, dst := range domFiles {
			if op := (fstest.Op{Kind: fstest.OpRename, Path: src, Path2: dst}); valid(t, op) {
				ops = append(ops, op)
			}
		}
	}
	for _, src := range domFiles {
		for _, dst := range domFiles {
			if op := (fstest.Op{Kind: fstest.OpLink, Path: src, Path2: dst}); valid(t, op) {
				ops = append(ops, op)
			}
		}
	}
	for _, p := range domFiles {
		if op := (fstest.Op{Kind: fstest.OpUnlink, Path: p}); valid(t, op) {
			ops = append(ops, op)
		}
	}
	for _, p := range append([]string{"/"}, append(append([]string{}, domDirs...), domFiles...)...) {
		if op := (fstest.Op{Kind: fstest.OpFsync, Path: p}); valid(t, op) {
			ops = append(ops, op)
		}
	}
	ops = append(ops, fstest.Op{Kind: fstest.OpSync})
	return ops
}

// interesting keeps sequences worth crash-testing: at least one mutation
// (something to lose) and at least one persistence op (a durability
// guarantee to check — pure-mutation tails are the legacy explorer's
// beat, and a lone sync on an empty tree produces no writes at all).
func interesting(s fstest.Sequence) bool {
	mutates, persists := false, false
	for _, op := range s {
		switch op.Kind {
		case fstest.OpFsync, fstest.OpSync:
			persists = true
		default:
			mutates = true
		}
	}
	return mutates && persists
}

// Sequences enumerates every valid, interesting op sequence of length <=
// b.MaxOps over the domain, depth-first in candidate order — fully
// deterministic — then applies the seeded MaxSeqs sample if set.
func Sequences(b Bounds) []fstest.Sequence {
	b = b.withDefaults()
	var all []fstest.Sequence
	var cur fstest.Sequence
	var walk func(t *fstest.Model)
	walk = func(t *fstest.Model) {
		if len(cur) > 0 && interesting(cur) {
			seq := make(fstest.Sequence, len(cur))
			copy(seq, cur)
			all = append(all, seq)
		}
		if len(cur) == b.MaxOps {
			return
		}
		for _, op := range candidates(t) {
			next := t.Clone()
			next.Apply(op, len(cur))
			cur = append(cur, op)
			walk(next)
			cur = cur[:len(cur)-1]
		}
	}
	walk(fstest.NewModel())
	if b.MaxSeqs > 0 && len(all) > b.MaxSeqs {
		rng := rand.New(rand.NewSource(b.Seed))
		pick := rng.Perm(len(all))[:b.MaxSeqs]
		sort.Ints(pick)
		sampled := make([]fstest.Sequence, 0, b.MaxSeqs)
		for _, i := range pick {
			sampled = append(sampled, all[i])
		}
		all = sampled
	}
	return all
}
