// Package hunt implements bounded black-box crash-consistency hunting in
// the style of B3 (Mohan et al., OSDI '18): a seeded generator enumerates
// every valid syscall sequence up to a small length bound over a tiny
// name/data domain, each sequence is recorded once on a crash device, the
// harness crashes at every persistence point its write-cache model admits,
// remounts, and checks the recovered tree against an expected-state
// oracle that knows exactly what a correct file system must have
// persisted — so it catches files a structurally consistent image
// silently lost, not just broken metadata.
package hunt

import (
	"fmt"
	"sort"

	"ironfs/internal/vfs"
)

// OpKind names one generator syscall.
type OpKind string

// The generator vocabulary. Write overwrites from offset 0 (keeping any
// longer tail, like the VFS does); Append writes at the current EOF.
// Rename may target an existing file (rename-over). Fsync targets a file
// or a directory; Sync flushes the whole file system.
const (
	OpCreate OpKind = "create"
	OpMkdir  OpKind = "mkdir"
	OpWrite  OpKind = "write"
	OpAppend OpKind = "append"
	OpRename OpKind = "rename"
	OpLink   OpKind = "link"
	OpUnlink OpKind = "unlink"
	OpFsync  OpKind = "fsync"
	OpSync   OpKind = "sync"
)

// Op is one generated syscall instance.
type Op struct {
	Kind OpKind `json:"kind"`
	// Path is the primary operand (file or directory).
	Path string `json:"path,omitempty"`
	// Path2 is the rename/link destination.
	Path2 string `json:"path2,omitempty"`
	// Data selects the payload shape for write/append (an index into the
	// fixed payload family; actual bytes also depend on the op's position
	// in the sequence, so distinct ops write distinguishable content).
	Data int `json:"data,omitempty"`
}

// String renders one op compactly: "rename(/a,/b)", "write(/a,1)".
func (o Op) String() string {
	switch o.Kind {
	case OpRename, OpLink:
		return fmt.Sprintf("%s(%s,%s)", o.Kind, o.Path, o.Path2)
	case OpWrite, OpAppend:
		return fmt.Sprintf("%s(%s,%d)", o.Kind, o.Path, o.Data)
	case OpSync:
		return "sync"
	default:
		return fmt.Sprintf("%s(%s)", o.Kind, o.Path)
	}
}

// Sequence is one generated workload.
type Sequence []Op

// String renders "create(/a); write(/a,0); fsync(/a)".
func (s Sequence) String() string {
	out := ""
	for i, o := range s {
		if i > 0 {
			out += "; "
		}
		out += o.String()
	}
	return out
}

// Shape is the sequence's op-kind signature ("create.write.fsync"), the
// workload component of the dedup fingerprint.
func (s Sequence) Shape() string {
	out := ""
	for i, o := range s {
		if i > 0 {
			out += "."
		}
		out += string(o.Kind)
	}
	return out
}

// payloadFor builds the bytes op i of a sequence writes: sel picks the
// size class (0 small — inline-ish; 1 large — spills blocks), and the
// byte pattern folds in both, so any two distinct (i, sel) payloads
// differ and block-level swaps or tears are visible as content damage.
func payloadFor(i, sel int) []byte {
	size := 96
	if sel != 0 {
		size = 5000
	}
	data := make([]byte, size)
	for j := range data {
		data[j] = byte(i*31 + sel*17 + j)
	}
	return data
}

// The baseline image. Every hunt sequence starts from a volume that
// already holds one durable file — created, written, and cleanly
// unmounted before the crash log starts recording. B3 does the same with
// its pre-populated seed image, and it is what gives the oracle a
// guarantee that exists at *every* crash point: a correct FS may lose any
// not-yet-synced sequence state, but it may never damage basePath.
const basePath = "/p"

// basePayload is basePath's durable content.
func basePayload() []byte {
	data := make([]byte, 96)
	for j := range data {
		data[j] = byte(211 + j)
	}
	return data
}

// preamble populates the baseline on a freshly formatted, directly
// mounted (uncached) volume; the caller unmounts cleanly afterwards.
func preamble(fsys vfs.FileSystem) error {
	if err := fsys.Create(basePath, 0o644); err != nil {
		return err
	}
	_, err := fsys.Write(basePath, 0, basePayload())
	return err
}

// inode is one model file: its content and link count.
type inode struct {
	data  []byte
	links int
}

// tree is the volatile in-memory model the oracle tracks: the state every
// issued op has produced, before any durability considerations. Files are
// modeled at the inode level so hard links share content.
type tree struct {
	dirs   map[string]bool
	paths  map[string]int // file path -> inode id
	inodes map[int]*inode
	nextID int
}

// newTree returns the post-preamble state every sequence starts from.
func newTree() *tree {
	return &tree{
		dirs:   map[string]bool{"/": true},
		paths:  map[string]int{basePath: 0},
		inodes: map[int]*inode{0: {data: basePayload(), links: 1}},
		nextID: 1,
	}
}

func (t *tree) clone() *tree {
	c := &tree{
		dirs:   make(map[string]bool, len(t.dirs)),
		paths:  make(map[string]int, len(t.paths)),
		inodes: make(map[int]*inode, len(t.inodes)),
		nextID: t.nextID,
	}
	for p := range t.dirs {
		c.dirs[p] = true
	}
	for p, id := range t.paths {
		c.paths[p] = id
	}
	for id, in := range t.inodes {
		data := make([]byte, len(in.data))
		copy(data, in.data)
		c.inodes[id] = &inode{data: data, links: in.links}
	}
	return c
}

// parentOf returns the parent directory path ("/" for top-level names).
func parentOf(p string) string {
	for i := len(p) - 1; i > 0; i-- {
		if p[i] == '/' {
			return p[:i]
		}
	}
	return "/"
}

// valid reports whether op can be issued in the current state — the
// generator's enumeration guard, matching VFS preconditions.
func (t *tree) valid(op Op) bool {
	switch op.Kind {
	case OpCreate:
		return !t.exists(op.Path) && t.dirs[parentOf(op.Path)]
	case OpMkdir:
		return !t.exists(op.Path) && t.dirs[parentOf(op.Path)]
	case OpWrite, OpAppend:
		_, ok := t.paths[op.Path]
		return ok
	case OpRename:
		_, ok := t.paths[op.Path]
		if !ok || op.Path == op.Path2 {
			return false
		}
		if t.dirs[op.Path2] {
			return false
		}
		return t.dirs[parentOf(op.Path2)]
	case OpLink:
		_, ok := t.paths[op.Path]
		return ok && !t.exists(op.Path2) && t.dirs[parentOf(op.Path2)]
	case OpUnlink:
		_, ok := t.paths[op.Path]
		return ok
	case OpFsync:
		return t.exists(op.Path)
	case OpSync:
		return true
	default:
		return false
	}
}

func (t *tree) exists(p string) bool {
	if t.dirs[p] {
		return true
	}
	_, ok := t.paths[p]
	return ok
}

// dropLink decrements a link count, freeing the inode at zero.
func (t *tree) dropLink(id int) {
	in := t.inodes[id]
	in.links--
	if in.links == 0 {
		delete(t.inodes, id)
	}
}

// apply mutates the model by op (assumed valid); i is the op's sequence
// position (payload salt).
func (t *tree) apply(op Op, i int) {
	switch op.Kind {
	case OpCreate:
		id := t.nextID
		t.nextID++
		t.inodes[id] = &inode{links: 1}
		t.paths[op.Path] = id
	case OpMkdir:
		t.dirs[op.Path] = true
	case OpWrite:
		in := t.inodes[t.paths[op.Path]]
		data := payloadFor(i, op.Data)
		if len(in.data) < len(data) {
			grown := make([]byte, len(data))
			copy(grown, in.data)
			in.data = grown
		}
		copy(in.data, data)
	case OpAppend:
		in := t.inodes[t.paths[op.Path]]
		in.data = append(in.data, payloadFor(i, op.Data)...)
	case OpRename:
		if old, ok := t.paths[op.Path2]; ok {
			t.dropLink(old)
		}
		t.paths[op.Path2] = t.paths[op.Path]
		delete(t.paths, op.Path)
	case OpLink:
		id := t.paths[op.Path]
		t.inodes[id].links++
		t.paths[op.Path2] = id
	case OpUnlink:
		t.dropLink(t.paths[op.Path])
		delete(t.paths, op.Path)
	case OpFsync, OpSync:
		// durability only; no tree change
	}
}

// filePaths returns the file namespace sorted.
func (t *tree) filePaths() []string {
	out := make([]string, 0, len(t.paths))
	for p := range t.paths {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// dirPaths returns the directories (excluding "/") sorted.
func (t *tree) dirPaths() []string {
	out := make([]string, 0, len(t.dirs))
	for p := range t.dirs {
		if p != "/" {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// issue replays op i of a sequence onto a real file system.
func issue(fsys vfs.FileSystem, op Op, i int) error {
	switch op.Kind {
	case OpCreate:
		return fsys.Create(op.Path, 0o644)
	case OpMkdir:
		return fsys.Mkdir(op.Path, 0o755)
	case OpWrite:
		_, err := fsys.Write(op.Path, 0, payloadFor(i, op.Data))
		return err
	case OpAppend:
		st, err := fsys.Stat(op.Path)
		if err != nil {
			return err
		}
		_, err = fsys.Write(op.Path, st.Size, payloadFor(i, op.Data))
		return err
	case OpRename:
		return fsys.Rename(op.Path, op.Path2)
	case OpLink:
		return fsys.Link(op.Path, op.Path2)
	case OpUnlink:
		return fsys.Unlink(op.Path)
	case OpFsync:
		return fsys.Fsync(op.Path)
	case OpSync:
		return fsys.Sync()
	default:
		return fmt.Errorf("hunt: unknown op kind %q", op.Kind)
	}
}
