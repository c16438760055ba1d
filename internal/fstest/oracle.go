package fstest

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"

	"ironfs/internal/vfs"
)

// The expected-state oracle. While a sequence replays, the oracle tracks
// the volatile tree (what the file system holds in memory) alongside two
// durable facts, and snapshots the durable requirement at every
// persistence op. The contract is POSIX-minimal — everything the oracle
// requires really is guaranteed, by any correct implementation:
//
//   - fsync(file X) covers X's *content*: the bytes X held at the call
//     must survive, reachable at one of X's plausible homes. It does NOT
//     make namespace operations durable — a rename is not durable until
//     the parent directory is synced, a created entry not until its
//     directory is. (The journaling FSes here usually over-deliver by
//     committing the whole transaction, but their group-commit skip — an
//     fsync of an untouched file commits nothing — means the
//     whole-transaction reading would be unsound.)
//   - fsync(dir D) makes D's own entries durable: children created,
//     linked, renamed in or out, or unlinked before the call are settled
//     to the volatile state as of the call.
//   - sync covers everything: the whole namespace and every file's
//     content.
//   - operations not (yet) covered by a claimable guarantee are
//     "possibly applied": they relax the requirement (a renamed file may
//     be at the old or the new name, an unlinked file or a removed
//     directory may legally be gone, a rewritten or truncated file's
//     content is unconstrained) but never strengthen it. A renamed
//     directory carries everything beneath it: its old path, and the
//     paths under it, may legally be gone, what lived there may be at the
//     new path instead, and the new paths are owed only once a sync or an
//     fsync of their parent makes them durable.
//
// The baseline image (see model.go) seeds the durable state: BasePath with
// its content is owed at every crash point of every sequence.
type Oracle struct {
	ops   []opMeta
	snaps []snapshot
	// final is the volatile tree after the whole sequence.
	final *Model
}

// opMeta is the oracle's per-op bookkeeping. Log positions are filled in
// by the instrumented replay (they are device-level facts).
type opMeta struct {
	op Op
	// startLen/endLen are the cache write-log lengths just before the op
	// issued and just after it returned.
	startLen, endLen int
	// sealed is the sealed-epoch count right after return (persistence
	// ops only) — the basis for after-return crash states.
	sealed int
	// snap indexes into snaps for persistence ops, -1 otherwise.
	snap int
	// ino is the model inode the op touched (-1 none); oldIno is the
	// inode a rename-over displaced (-1 none).
	ino, oldIno int
}

// dirReq is one durable directory: it must exist after any crash. asOf
// is the op index whose state the requirement reflects (-1 baseline).
type dirReq struct {
	path string
	asOf int
}

// fileReq is one durable directory entry: path must hold a regular file;
// when data is non-nil the occupant's content is covered too. asOf is the
// op index the entry requirement reflects; covOp the op that covered the
// content (writes after it relax the content requirement, writes before
// it are already baked into data).
type fileReq struct {
	path  string
	ino   int
	data  []byte
	asOf  int
	covOp int
}

// orphanReq is covered content with no durable entry — an fsync'd file
// whose namespace was never synced. The inode must survive, with the
// covered bytes, at one of its plausible homes.
type orphanReq struct {
	ino   int
	data  []byte
	homes []string
	covOp int
}

// snapshot is the durable requirement at one persistence op.
type snapshot struct {
	// opIndex is the guaranteeing op's position in the sequence (-1 for
	// the baseline snapshot, claimable everywhere).
	opIndex int
	dirs    []dirReq
	files   []fileReq
	orphans []orphanReq
	// links counts, per inode, how many durable entries reference it —
	// the basis for "may this inode legally be gone" reasoning.
	links map[int]int
}

// entRec is one durable-namespace entry during replay.
type entRec struct {
	ino  int
	asOf int
}

// coverRec is one durably covered inode during replay: the bytes at cover
// time, the covering op, and the inode's paths at cover time.
type coverRec struct {
	data  []byte
	op    int
	homes []string
}

// NewOracle builds the oracle for seq by replaying it on the model.
// Log positions (startLen/endLen/sealed) are zero until an instrumented
// replay fills them via setLogSpan.
func NewOracle(seq Sequence) *Oracle {
	o := &Oracle{}
	t := NewModel()
	durDirs := map[string]int{} // durable dirs (sans "/") -> asOf
	durEnts := map[string]entRec{}
	covered := map[int]coverRec{}
	// The baseline: BasePath durable with its content, nothing else.
	durEnts[BasePath] = entRec{ino: t.paths[BasePath], asOf: -1}
	covered[t.paths[BasePath]] = coverRec{data: basePayload(), op: -1, homes: []string{BasePath}}
	o.snaps = append(o.snaps, materialize(-1, durDirs, durEnts, covered))

	coverFile := func(ino, j int) {
		data := append([]byte(nil), t.inodes[ino].data...)
		var homes []string
		for _, p := range t.filePaths() {
			if t.paths[p] == ino {
				homes = append(homes, p)
			}
		}
		covered[ino] = coverRec{data: data, op: j, homes: homes}
	}
	syncDir := func(d string, j int) {
		for p, ino := range t.paths {
			if parentOf(p) == d {
				durEnts[p] = entRec{ino: ino, asOf: j}
			}
		}
		for p := range durEnts {
			if _, live := t.paths[p]; parentOf(p) == d && !live {
				delete(durEnts, p) // removal is durable too
			}
		}
		for p := range t.dirs {
			if p != "/" && parentOf(p) == d {
				durDirs[p] = j
			}
		}
	}

	for i, op := range seq {
		m := opMeta{op: op, snap: -1, ino: -1, oldIno: -1}
		switch op.Kind {
		case OpWrite, OpAppend, OpTruncate, OpUnlink:
			m.ino = t.paths[op.Path]
		case OpRename, OpLink:
			if id, ok := t.paths[op.Path]; ok { // a directory has no inode here
				m.ino = id
			}
			if old, ok := t.paths[op.Path2]; ok && op.Kind == OpRename {
				m.oldIno = old
			}
		}
		switch op.Kind {
		case OpWrite, OpAppend, OpTruncate:
			delete(covered, m.ino)
		case OpFsync:
			if t.dirs[op.Path] {
				syncDir(op.Path, i)
			} else if id, ok := t.paths[op.Path]; ok {
				// pre-apply lookup is fine: fsync mutates nothing
				coverFile(id, i)
			}
		case OpSync:
			for d := range t.dirs {
				if d != "/" {
					durDirs[d] = i
				}
			}
			durEnts = map[string]entRec{}
			for p, ino := range t.paths {
				durEnts[p] = entRec{ino: ino, asOf: i}
			}
			for id := range t.inodes {
				coverFile(id, i)
			}
		}
		t.Apply(op, i)
		if op.Kind == OpFsync || op.Kind == OpSync {
			m.snap = len(o.snaps)
			o.snaps = append(o.snaps, materialize(i, durDirs, durEnts, covered))
		}
		o.ops = append(o.ops, m)
	}
	o.final = t
	return o
}

// materialize freezes the durable replay state into a snapshot. Covered
// bytes and homes are shared, not copied: nothing writes them after
// coverFile builds them.
func materialize(i int, durDirs map[string]int, durEnts map[string]entRec, covered map[int]coverRec) snapshot {
	s := snapshot{opIndex: i, links: map[int]int{}}
	dirs := make([]string, 0, len(durDirs))
	for d := range durDirs {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		s.dirs = append(s.dirs, dirReq{path: d, asOf: durDirs[d]})
	}
	paths := make([]string, 0, len(durEnts))
	for p := range durEnts {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		e := durEnts[p]
		req := fileReq{path: p, ino: e.ino, asOf: e.asOf, covOp: -1}
		if c, ok := covered[e.ino]; ok {
			req.data, req.covOp = c.data, c.op
		}
		s.files = append(s.files, req)
		s.links[e.ino]++
	}
	inos := make([]int, 0, len(covered))
	for ino := range covered {
		inos = append(inos, ino)
	}
	sort.Ints(inos)
	for _, ino := range inos {
		if s.links[ino] > 0 {
			continue // an entry requirement already carries the content
		}
		c := covered[ino]
		if len(c.homes) == 0 {
			continue
		}
		s.orphans = append(s.orphans, orphanReq{ino: ino, data: c.data, homes: c.homes, covOp: c.op})
	}
	return s
}

// setLogSpan records op i's device-level write span (filled during the
// instrumented replay).
func (o *Oracle) setLogSpan(i, startLen, endLen, sealed int) {
	o.ops[i].startLen = startLen
	o.ops[i].endLen = endLen
	o.ops[i].sealed = sealed
}

// Span returns op i's write span: the log length just before it issued
// and just after it returned, and the sealed-epoch count at its return.
func (o *Oracle) Span(i int) (start, end, sealed int) {
	m := o.ops[i]
	return m.startLen, m.endLen, m.sealed
}

// Snapshots returns the persistence ops' sequence indices, in order
// (index -1 for the baseline snapshot).
func (o *Oracle) Snapshots() []int {
	out := make([]int, len(o.snaps))
	for i, s := range o.snaps {
		out[i] = s.opIndex
	}
	return out
}

// RequiredSnap returns the index (into the snapshot list) of the latest
// persistence op whose guarantee is claimable at a crash striking just
// after log write `point`: its writes must all be issued and a strictly
// later write must exist, proving the op returned before the crash. The
// baseline snapshot (index 0) is claimable at every point, so the result
// is never negative for an oracle built by NewOracle.
func (o *Oracle) RequiredSnap(point int) int {
	best := -1
	for si, s := range o.snaps {
		if s.opIndex < 0 || o.ops[s.opIndex].endLen <= point {
			best = si
		}
	}
	return best
}

// LastStarted returns the index of the last op that had issued at least
// its first write by crash point `point` (ops issuing no writes ride
// along with their predecessor). Everything after it cannot have touched
// the device.
func (o *Oracle) LastStarted(point int) int {
	last := -1
	for i := range o.ops {
		if o.ops[i].startLen <= point {
			last = i
		}
	}
	return last
}

// Violation is one broken durability guarantee.
type Violation struct {
	// Kind: "lost-file", "corrupt-file", "lost-dir", "lost-inode",
	// "not-a-file".
	Kind string `json:"kind"`
	// Path is the required path (or the inode's home for lost-inode).
	Path string `json:"path"`
	// Guar renders the guaranteeing persistence op ("op 2: fsync(/a)").
	Guar string `json:"guar"`
	// Detail explains the mismatch.
	Detail string `json:"detail"`
}

// relax aggregates what the possibly-applied ops (those not covered by
// the requirement's durable basis but started by the crash point) legally
// change about one required file.
type relax struct {
	// vacated: the path may legally be absent.
	vacated bool
	// anyContent: the path's content is unconstrained (rewritten inode,
	// or another inode possibly renamed/created here).
	anyContent bool
	// homes: additional paths where the required inode may legally live.
	homes []string
	// kills: how many of the inode's links could legally have been
	// destroyed.
	kills int
}

// relaxFor computes the acceptance relaxation for a requirement on path
// (possibly "" for orphans) holding inode ino: ops in (asOf, lastOp] are
// not part of the requirement's durable basis and may or may not have
// applied. covOp guards the content requirement — writes before it are
// baked into the covered bytes, writes after it free the content. homes
// seeds the legal homes (an orphan's paths at cover time).
func (o *Oracle) relaxFor(asOf, covOp int, path string, homes []string, ino, lastOp int) relax {
	r := relax{homes: append([]string(nil), homes...)}
	for j := asOf + 1; j <= lastOp && j < len(o.ops); j++ {
		m := o.ops[j]
		switch m.op.Kind {
		case OpUnlink:
			if m.op.Path == path {
				r.vacated = true
			}
			if m.ino == ino {
				r.kills++
			}
		case OpRename:
			if m.op.Path == path || under(path, m.op.Path) {
				r.vacated = true
			}
			if m.op.Path2 == path {
				// Another file possibly renamed over this path: the
				// entry survives either way but its content may be the
				// newcomer's.
				r.anyContent = true
			}
			if m.ino == ino {
				r.homes = append(r.homes, m.op.Path2)
			}
			if m.oldIno == ino {
				r.kills++
			}
			// A directory renamed above path or a home carries it along.
			for _, h := range append([]string{path}, r.homes...) {
				if rest, ok := strings.CutPrefix(h, m.op.Path+"/"); ok {
					r.homes = append(r.homes, m.op.Path2+"/"+rest)
				}
			}
		case OpLink:
			if m.ino == ino {
				r.homes = append(r.homes, m.op.Path2)
			}
		case OpCreate:
			if m.op.Path == path {
				// Possible after a possibly-applied vacate: a fresh,
				// unconstrained occupant.
				r.anyContent = true
			}
		case OpWrite, OpAppend, OpTruncate:
			if m.ino == ino {
				if j > covOp {
					r.anyContent = true
				}
			} else if m.op.Path == path {
				r.anyContent = true
			}
		}
	}
	return r
}

// removed reports whether an rmdir or a rename of d's path, or of a
// directory above it, is among the ops in (d.asOf, lastOp], which may or
// may not have applied.
func (o *Oracle) removed(d dirReq, lastOp int) bool {
	for j := d.asOf + 1; j <= lastOp && j < len(o.ops); j++ {
		op := o.ops[j].op
		if (op.Kind == OpRmdir || op.Kind == OpRename) && (op.Path == d.path || under(d.path, op.Path)) {
			return true
		}
	}
	return false
}

// under reports whether path p lies strictly beneath directory d.
func under(p, d string) bool { return strings.HasPrefix(p, d+"/") }

// ReadAll reads path's full content through the mounted FS.
func ReadAll(fsys vfs.FileSystem, path string, size int64) ([]byte, error) {
	buf := make([]byte, size)
	n, err := fsys.Read(path, 0, buf)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// GradeAt checks the recovered tree against snapshot si (-1: nothing
// required), with ops up to lastOp possibly applied. Violations come back
// in deterministic order: directories first, then files by path, then
// orphaned inodes.
func (o *Oracle) GradeAt(fsys vfs.FileSystem, si, lastOp int) []Violation {
	if si < 0 {
		return nil
	}
	snap := o.snaps[si]
	guar := "baseline image"
	if snap.opIndex >= 0 {
		guar = fmt.Sprintf("op %d: %s", snap.opIndex, o.ops[snap.opIndex].op)
	}
	var out []Violation

	// Directories: a required directory may be gone only if an rmdir of
	// it possibly applied, as an unlink vacates a file's entry.
	for _, d := range snap.dirs {
		if o.removed(d, lastOp) {
			continue
		}
		st, err := fsys.Lstat(d.path)
		if err != nil {
			out = append(out, Violation{Kind: "lost-dir", Path: d.path, Guar: guar,
				Detail: fmt.Sprintf("lstat: %v", err)})
			continue
		}
		if st.Type != vfs.TypeDirectory {
			out = append(out, Violation{Kind: "lost-dir", Path: d.path, Guar: guar,
				Detail: fmt.Sprintf("recovered as %v, want directory", st.Type)})
		}
	}

	// checkAt verifies path p as an acceptable home of required content
	// data; content is enforced unless nil or the relaxation freed it.
	checkAt := func(p string, data []byte, r relax) (ok bool, v *Violation) {
		st, err := fsys.Lstat(p)
		if errors.Is(err, vfs.ErrNotExist) {
			return false, &Violation{Kind: "lost-file", Path: p, Guar: guar,
				Detail: "recovered tree has no entry"}
		}
		if err != nil {
			return false, &Violation{Kind: "lost-file", Path: p, Guar: guar,
				Detail: fmt.Sprintf("lstat: %v", err)}
		}
		if st.Type != vfs.TypeRegular {
			return false, &Violation{Kind: "not-a-file", Path: p, Guar: guar,
				Detail: fmt.Sprintf("recovered as %v, want regular file", st.Type)}
		}
		if data == nil || r.anyContent {
			return true, nil
		}
		got, err := ReadAll(fsys, p, st.Size)
		if err != nil {
			return false, &Violation{Kind: "corrupt-file", Path: p, Guar: guar,
				Detail: fmt.Sprintf("read: %v", err)}
		}
		if !bytes.Equal(got, data) {
			return false, &Violation{Kind: "corrupt-file", Path: p, Guar: guar,
				Detail: fmt.Sprintf("content mismatch: got %d bytes, want %d (covered by %s)",
					len(got), len(data), guar)}
		}
		return true, nil
	}
	// survives reports whether the inode's covered content is reachable
	// at one of the homes (presence suffices when content is free).
	survives := func(homes []string, data []byte, r relax) bool {
		for _, h := range homes {
			st, err := fsys.Lstat(h)
			if err != nil || st.Type != vfs.TypeRegular {
				continue
			}
			if data == nil || r.anyContent {
				return true
			}
			got, rerr := ReadAll(fsys, h, st.Size)
			if rerr == nil && bytes.Equal(got, data) {
				return true
			}
		}
		return false
	}

	for _, f := range snap.files {
		r := o.relaxFor(f.asOf, f.covOp, f.path, nil, f.ino, lastOp)
		ok, v := checkAt(f.path, f.data, r)
		if ok {
			continue
		}
		if v != nil && v.Kind == "lost-file" && r.vacated {
			// The entry may legally be gone — but the inode itself must
			// survive at one of its legal homes unless every durable
			// link was possibly destroyed. When content is covered the
			// surviving home must hold it; otherwise presence suffices.
			if r.kills >= snap.links[f.ino] {
				continue
			}
			if !survives(r.homes, f.data, r) {
				out = append(out, Violation{Kind: "lost-inode", Path: f.path, Guar: guar,
					Detail: fmt.Sprintf("vacated from %s but surviving at none of its legal homes %v",
						f.path, r.homes)})
			}
			continue
		}
		if v != nil {
			out = append(out, *v)
		}
	}

	for _, orp := range snap.orphans {
		r := o.relaxFor(orp.covOp, orp.covOp, "", orp.homes, orp.ino, lastOp)
		if r.kills >= len(orp.homes) {
			continue // every path to it was possibly destroyed
		}
		if !survives(r.homes, orp.data, r) {
			out = append(out, Violation{Kind: "lost-inode", Path: orp.homes[0], Guar: guar,
				Detail: fmt.Sprintf("fsync'd content unreachable at any of its homes %v", r.homes)})
		}
	}
	return out
}

// Final is the volatile end-state: walking the real FS after a
// full-image "crash" must match it exactly.
func (o *Oracle) Final() *Model { return o.final }
