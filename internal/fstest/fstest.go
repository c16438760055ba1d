// Package fstest is the model-based harness every file system in this
// repository is tested with. One reference model (model.go) grades both
// halves of it: the live random tester (Run) drives a file system and the
// model through the same seeded operations and fails on the first
// observable divergence — an error class, a Stat, a listing or a file's
// content — and the expected-state oracle (oracle.go), built on the same
// model, grades what a crash leaves, in the fsync sweep (crash.go) and in
// internal/hunt. Explore (explore.go) grades crash states structurally.
package fstest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/vfs"
)

const (
	// liveOps is the length of one live run.
	liveOps = 250
	// invalidShare: one op in invalidShare is drawn from the ops the
	// model predicts must fail, the rest from those it predicts succeed.
	invalidShare = 8
	// modelBlocks sizes CheckModel's volumes.
	modelBlocks = 8192
)

// liveNames is the live tester's name pool. Any name may come to hold a
// file or a directory, so type clashes, moves of whole subtrees, moves
// beneath the moved directory and non-empty directories all arise; the
// baseline file /p is in it too.
var liveNames = []string{"/p", "/a", "/b", "/c", "/d", "/a/x", "/a/y", "/b/x", "/b/y", "/a/x/z"}

// liveKinds are the kinds the tester draws from, repeated by weight.
var liveKinds = []OpKind{
	OpCreate, OpCreate, OpCreate, OpMkdir, OpMkdir,
	OpWrite, OpWrite, OpWrite, OpWrite, OpAppend, OpTruncate, OpTruncate,
	OpRename, OpRename, OpRename, OpLink, OpUnlink, OpUnlink, OpRmdir,
	OpFsync, OpSync,
}

// draw generates one op of the given kind over the live domain. Sizes and offsets follow
// the model's current file sizes: writes land at 0, inside the file or
// past EOF (leaving a hole), truncates cut or grow, one time in two each,
// and two payloads in three are the small one, so files often stay small
// enough to be stored inline (a ReiserFS tail).
func draw(rng *rand.Rand, m *Model, kind OpKind) Op {
	op := Op{Kind: kind}
	name := func() string { return liveNames[rng.Intn(len(liveNames))] }
	if op.Kind != OpSync {
		op.Path = name()
	}
	if op.Kind == OpRename || op.Kind == OpLink {
		op.Path2 = name()
		if rng.Intn(4) == 0 {
			op.Path2 = op.Path
		}
	}
	var size int64
	if id, ok := m.paths[op.Path]; ok {
		size = int64(len(m.inodes[id].data))
	}
	switch op.Kind {
	case OpWrite, OpAppend:
		op.Data = rng.Intn(3) / 2
		if op.Kind == OpAppend {
			break
		}
		switch rng.Intn(3) {
		case 0:
			op.Off = rng.Int63n(size + 1)
		case 1:
			op.Off = size + rng.Int63n(8<<10)
		}
	case OpTruncate:
		op.Off = rng.Int63n(size + 1)
		if rng.Intn(2) == 0 {
			op.Off = size + rng.Int63n(4<<10)
		}
	}
	return op
}

// pick draws a kind, then its operands until the model predicts the op
// succeeds (valid) or fails (!valid), and gives up after 64 draws with the
// last one. Drawing the kind once keeps each kind's share of the valid ops
// its weight, however rarely its random operands fit.
func pick(rng *rand.Rand, m *Model, valid bool) Op {
	kind := liveKinds[rng.Intn(len(liveKinds))]
	for try := 0; ; try++ {
		op := draw(rng, m, kind)
		if (m.Predict(op) == nil) == valid || try == 63 {
			return op
		}
	}
}

// Run drives fsys, a freshly formatted and mounted file system, and the
// model through liveOps seeded operations, after populating the baseline
// file. After every op it compares the error class with the model's
// prediction, and Stat, the parents' listings and the content of each
// path the op named; at the end it walks the whole tree. It returns the
// model, so a caller can walk the tree again after a remount, and the
// first divergence.
func Run(fsys vfs.FileSystem, seed int64) (*Model, error) {
	if err := Preamble(fsys); err != nil {
		return nil, fmt.Errorf("preamble: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	m := NewModel()
	for i := 0; i < liveOps; i++ {
		op := pick(rng, m, rng.Intn(invalidShare) != 0)
		want := m.Predict(op)
		got := op.Issue(fsys, i)
		if !errors.Is(got, want) {
			return m, fmt.Errorf("model divergence at op %d %s: returned %v, the model %v", i, op, got, want)
		}
		if want == nil {
			m.Apply(op, i)
		}
		for _, p := range []string{op.Path, op.Path2} {
			if p == "" {
				continue
			}
			err := checkPath(fsys, m, p)
			if err == nil {
				err = checkList(fsys, m, parentOf(p))
			}
			if err != nil {
				return m, fmt.Errorf("model divergence at op %d %s: %v", i, op, err)
			}
		}
	}
	if err := Walk(fsys, m); err != nil {
		return m, fmt.Errorf("model divergence after %d ops: %v", liveOps, err)
	}
	return m, nil
}

// checkPath compares Stat of p — error class, type, and for a file its
// size, link count and content — with the model.
func checkPath(fsys vfs.FileSystem, m *Model, p string) error {
	isDir, want := m.resolve(p)
	st, err := fsys.Stat(p)
	if !errors.Is(err, want) {
		return fmt.Errorf("stat %s: %v, the model %v", p, err, want)
	}
	switch {
	case err != nil:
		return nil
	case isDir != (st.Type == vfs.TypeDirectory):
		return fmt.Errorf("stat %s: type %v, the model dir=%v", p, st.Type, isDir)
	case isDir:
		return nil
	}
	in := m.inodes[m.paths[p]]
	if st.Size != int64(len(in.data)) || int(st.Links) != in.links {
		return fmt.Errorf("stat %s: size %d links %d, the model %d and %d", p, st.Size, st.Links, len(in.data), in.links)
	}
	if got, err := ReadAll(fsys, p, st.Size); err != nil || !bytes.Equal(got, in.data) {
		return fmt.Errorf("read %s: %d bytes (err %v) differ from the model's %d", p, len(got), err, len(in.data))
	}
	return nil
}

// checkList compares ReadDir of d — error class and entry names — with
// the model.
func checkList(fsys vfs.FileSystem, m *Model, d string) error {
	want := m.dirErr(d)
	ents, err := fsys.ReadDir(d)
	if !errors.Is(err, want) {
		return fmt.Errorf("readdir %s: %v, the model %v", d, err, want)
	}
	got := make([]string, 0, len(ents))
	for _, e := range ents {
		got = append(got, e.Name)
	}
	slices.Sort(got)
	if wantNames := m.list(d); want == nil && !slices.Equal(got, wantNames) {
		return fmt.Errorf("readdir %s: %q, the model %q", d, got, wantNames)
	}
	return nil
}

// Walk compares the whole tree with the model: every directory's listing
// and every entry's Stat and content.
func Walk(fsys vfs.FileSystem, m *Model) error {
	for _, d := range append([]string{"/"}, m.dirPaths()...) {
		if err := checkList(fsys, m, d); err != nil {
			return err
		}
	}
	for _, p := range append(m.dirPaths(), m.filePaths()...) {
		if err := checkPath(fsys, m, p); err != nil {
			return err
		}
	}
	return nil
}

// CheckModel is the live-model test every file system package runs on its
// target: eight seeds, each on a fresh volume, with the tree walked again
// after a clean remount.
func CheckModel(t *testing.T, target ExploreTarget) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(string(rune('A'+seed)), func(t *testing.T) {
			d, err := disk.New(modelBlocks, disk.DefaultGeometry(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := target.Mkfs(d); err != nil {
				t.Fatal(err)
			}
			fsys := target.New(d, nil)
			if err := fsys.Mount(); err != nil {
				t.Fatal(err)
			}
			m, err := Run(fsys, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := fsys.Unmount(); err != nil {
				t.Fatal(err)
			}
			again := target.New(d, nil)
			if err := again.Mount(); err != nil {
				t.Fatalf("remount after the live run: %v", err)
			}
			if err := Walk(again, m); err != nil {
				t.Fatalf("after a remount: %v", err)
			}
			if err := again.Unmount(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
