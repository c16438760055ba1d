package fstest

import (
	"fmt"
	"sort"
	"strings"

	"ironfs/internal/vfs"
)

// The reference model every harness here grades against: the live random
// tester (Run) compares each result with it, and the expected-state oracle
// (oracle.go) derives what a crash must keep from it.

// OpKind names one operation of the shared vocabulary.
type OpKind string

// The vocabulary. Write writes at Off (keeping any longer tail, like the
// VFS does); Append writes at the current EOF; Truncate sets the size to
// Off. Rename may target an existing name (rename-over). Fsync targets a
// file or a directory; Sync flushes the whole file system. The crash
// generator (internal/hunt) draws from the first nine; truncate, rmdir and
// writes at an offset are the live tester's.
const (
	OpCreate   OpKind = "create"
	OpMkdir    OpKind = "mkdir"
	OpWrite    OpKind = "write"
	OpAppend   OpKind = "append"
	OpRename   OpKind = "rename"
	OpLink     OpKind = "link"
	OpUnlink   OpKind = "unlink"
	OpFsync    OpKind = "fsync"
	OpSync     OpKind = "sync"
	OpTruncate OpKind = "truncate"
	OpRmdir    OpKind = "rmdir"
)

// Op is one operation instance.
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
	// Off is the write offset, or the length a truncate leaves.
	Off int64 `json:"off,omitempty"`
}

// String renders one op compactly: "rename(/a,/b)", "write(/a,1)",
// "write(/a,1@4096)", "truncate(/a,100)".
func (o Op) String() string {
	switch o.Kind {
	case OpRename, OpLink:
		return fmt.Sprintf("%s(%s,%s)", o.Kind, o.Path, o.Path2)
	case OpWrite, OpAppend:
		if o.Off != 0 {
			return fmt.Sprintf("%s(%s,%d@%d)", o.Kind, o.Path, o.Data, o.Off)
		}
		return fmt.Sprintf("%s(%s,%d)", o.Kind, o.Path, o.Data)
	case OpTruncate:
		return fmt.Sprintf("%s(%s,%d)", o.Kind, o.Path, o.Off)
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

// Payload builds the bytes op i of a sequence writes: sel picks the
// size class (0 small — inline-ish; 1 large — spills blocks), and the
// byte pattern folds in both, so any two distinct (i, sel) payloads
// differ and block-level swaps or tears are visible as content damage.
func Payload(i, sel int) []byte {
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

// The baseline image. Every sequence starts from a volume that already
// holds one durable file — created, written, and cleanly unmounted before
// the crash log starts recording. B3 does the same with its pre-populated
// seed image, and it is what gives the oracle a guarantee that exists at
// *every* crash point: a correct FS may lose any not-yet-synced sequence
// state, but it may never damage BasePath.
const BasePath = "/p"

// basePayload is BasePath's durable content.
func basePayload() []byte {
	data := make([]byte, 96)
	for j := range data {
		data[j] = byte(211 + j)
	}
	return data
}

// Preamble populates the baseline on a freshly formatted, mounted volume.
func Preamble(fsys vfs.FileSystem) error {
	if err := fsys.Create(BasePath, 0o644); err != nil {
		return err
	}
	_, err := fsys.Write(BasePath, 0, basePayload())
	return err
}

// inode is one model file: its content and link count.
type inode struct {
	data  []byte
	links int
}

// Model is the volatile in-memory state every issued op has produced,
// before any durability considerations. Files are modelled at the inode
// level so hard links share content. There are no symbolic links.
type Model struct {
	dirs   map[string]bool
	paths  map[string]int // file path -> inode id
	inodes map[int]*inode
	nextID int
}

// NewModel returns the baseline state every sequence starts from.
func NewModel() *Model {
	return &Model{
		dirs:   map[string]bool{"/": true},
		paths:  map[string]int{BasePath: 0},
		inodes: map[int]*inode{0: {data: basePayload(), links: 1}},
		nextID: 1,
	}
}

// Clone returns an independent copy.
func (m *Model) Clone() *Model {
	c := &Model{
		dirs:   make(map[string]bool, len(m.dirs)),
		paths:  make(map[string]int, len(m.paths)),
		inodes: make(map[int]*inode, len(m.inodes)),
		nextID: m.nextID,
	}
	for p := range m.dirs {
		c.dirs[p] = true
	}
	for p, id := range m.paths {
		c.paths[p] = id
	}
	for id, in := range m.inodes {
		c.inodes[id] = &inode{data: append([]byte(nil), in.data...), links: in.links}
	}
	return c
}

// parentOf returns the parent directory path ("/" for top-level names).
func parentOf(p string) string {
	if i := strings.LastIndexByte(p, '/'); i > 0 {
		return p[:i]
	}
	return "/"
}

// IsDir reports whether p names a directory.
func (m *Model) IsDir(p string) bool { return m.dirs[p] }

func (m *Model) exists(p string) bool {
	_, file := m.paths[p]
	return file || m.dirs[p]
}

// resolve walks p from the root as namei does: a missing component is
// vfs.ErrNotExist, a file before the last one vfs.ErrNotDir.
func (m *Model) resolve(p string) (isDir bool, err error) {
	for i := 1; i <= len(p); i++ {
		if i < len(p) && p[i] != '/' {
			continue
		}
		prefix := p[:i]
		switch {
		case m.dirs[prefix]:
		case i < len(p) && m.exists(prefix):
			return false, vfs.ErrNotDir
		case i == len(p) && m.exists(prefix):
			return false, nil
		default:
			return false, vfs.ErrNotExist
		}
	}
	return true, nil
}

// dirErr is the error resolving d as a directory gives.
func (m *Model) dirErr(d string) error {
	isDir, err := m.resolve(d)
	if err == nil && !isDir {
		err = vfs.ErrNotDir
	}
	return err
}

// fileErr is the error resolving p as a file gives.
func (m *Model) fileErr(p string) error {
	isDir, err := m.resolve(p)
	if err == nil && isDir {
		err = vfs.ErrIsDir
	}
	return err
}

// empty reports whether directory d has no entries.
func (m *Model) empty(d string) bool { return len(m.list(d)) == 0 }

// Predict returns the error op must fail with in the current state — the
// vfs sentinel, in the order namei checks — or nil when it must succeed.
func (m *Model) Predict(op Op) error {
	switch op.Kind {
	case OpSync:
		return nil
	case OpFsync:
		_, err := m.resolve(op.Path)
		return err
	case OpCreate, OpMkdir:
		if err := m.dirErr(parentOf(op.Path)); err != nil {
			return err
		}
		if m.exists(op.Path) {
			return vfs.ErrExist
		}
	case OpWrite, OpAppend, OpTruncate:
		return m.fileErr(op.Path)
	case OpUnlink, OpRmdir:
		if err := m.dirErr(parentOf(op.Path)); err != nil {
			return err
		}
		switch {
		case !m.exists(op.Path):
			return vfs.ErrNotExist
		case op.Kind == OpUnlink && m.dirs[op.Path]:
			return vfs.ErrIsDir
		case op.Kind == OpRmdir && !m.dirs[op.Path]:
			return vfs.ErrNotDir
		case op.Kind == OpRmdir && !m.empty(op.Path):
			return vfs.ErrNotEmpty
		}
	case OpLink:
		if err := m.fileErr(op.Path); err != nil {
			return err
		}
		if err := m.dirErr(parentOf(op.Path2)); err != nil {
			return err
		}
		if m.exists(op.Path2) {
			return vfs.ErrExist
		}
	case OpRename:
		if err := m.dirErr(parentOf(op.Path)); err != nil {
			return err
		}
		if !m.exists(op.Path) {
			return vfs.ErrNotExist
		}
		if err := m.dirErr(parentOf(op.Path2)); err != nil {
			return err
		}
		src, dst := op.Path, op.Path2
		switch {
		case src == dst:
		case strings.HasPrefix(dst, src+"/"):
			return vfs.ErrInval
		case !m.exists(dst):
		case m.dirs[src] && !m.dirs[dst]:
			return vfs.ErrNotDir
		case !m.dirs[src] && m.dirs[dst]:
			return vfs.ErrIsDir
		case m.dirs[dst] && !m.empty(dst):
			return vfs.ErrNotEmpty
		}
	default:
		return fmt.Errorf("fstest: unknown op kind %q", op.Kind)
	}
	return nil
}

// dropLink decrements a link count, freeing the inode at zero.
func (m *Model) dropLink(id int) {
	in := m.inodes[id]
	in.links--
	if in.links == 0 {
		delete(m.inodes, id)
	}
}

// resize grows (zero-filling) or cuts in to size bytes.
func (in *inode) resize(size int) {
	if size <= len(in.data) {
		in.data = in.data[:size]
		return
	}
	grown := make([]byte, size)
	copy(grown, in.data)
	in.data = grown
}

// Apply mutates the model by op, which Predict must pass; i is the op's
// sequence position (payload salt).
func (m *Model) Apply(op Op, i int) {
	switch op.Kind {
	case OpCreate:
		id := m.nextID
		m.nextID++
		m.inodes[id] = &inode{links: 1}
		m.paths[op.Path] = id
	case OpMkdir:
		m.dirs[op.Path] = true
	case OpWrite:
		in := m.inodes[m.paths[op.Path]]
		data := Payload(i, op.Data)
		if end := int(op.Off) + len(data); len(in.data) < end {
			in.resize(end)
		}
		copy(in.data[op.Off:], data)
	case OpAppend:
		in := m.inodes[m.paths[op.Path]]
		in.data = append(in.data, Payload(i, op.Data)...)
	case OpTruncate:
		m.inodes[m.paths[op.Path]].resize(int(op.Off))
	case OpRename:
		if op.Path == op.Path2 {
			return
		}
		if old, ok := m.paths[op.Path2]; ok {
			m.dropLink(old)
		}
		delete(m.dirs, op.Path2)
		m.move(op.Path, op.Path2)
	case OpLink:
		id := m.paths[op.Path]
		m.inodes[id].links++
		m.paths[op.Path2] = id
	case OpUnlink:
		m.dropLink(m.paths[op.Path])
		delete(m.paths, op.Path)
	case OpRmdir:
		delete(m.dirs, op.Path)
	case OpFsync, OpSync:
		// durability only; no tree change
	}
}

// move renames src, and everything beneath it, to dst.
func (m *Model) move(src, dst string) {
	to := func(p string) (string, bool) {
		if p == src {
			return dst, true
		}
		if rest, ok := strings.CutPrefix(p, src+"/"); ok {
			return dst + "/" + rest, true
		}
		return "", false
	}
	for _, p := range m.dirPaths() {
		if q, ok := to(p); ok {
			delete(m.dirs, p)
			m.dirs[q] = true
		}
	}
	for _, p := range m.filePaths() {
		if q, ok := to(p); ok {
			m.paths[q] = m.paths[p]
			delete(m.paths, p)
		}
	}
}

// filePaths returns the file namespace sorted.
func (m *Model) filePaths() []string {
	out := make([]string, 0, len(m.paths))
	for p := range m.paths {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// dirPaths returns the directories (excluding "/") sorted.
func (m *Model) dirPaths() []string {
	out := make([]string, 0, len(m.dirs))
	for p := range m.dirs {
		if p != "/" {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// list returns directory d's entry names, sorted.
func (m *Model) list(d string) []string {
	var out []string
	for _, ps := range [][]string{m.filePaths(), m.dirPaths()} {
		for _, p := range ps {
			if parentOf(p) == d {
				out = append(out, p[strings.LastIndexByte(p, '/')+1:])
			}
		}
	}
	sort.Strings(out)
	return out
}

// Issue replays op i of a sequence onto a real file system.
func (o Op) Issue(fsys vfs.FileSystem, i int) error {
	switch o.Kind {
	case OpCreate:
		return fsys.Create(o.Path, 0o644)
	case OpMkdir:
		return fsys.Mkdir(o.Path, 0o755)
	case OpWrite:
		_, err := fsys.Write(o.Path, o.Off, Payload(i, o.Data))
		return err
	case OpAppend:
		st, err := fsys.Stat(o.Path)
		if err != nil {
			return err
		}
		_, err = fsys.Write(o.Path, st.Size, Payload(i, o.Data))
		return err
	case OpTruncate:
		return fsys.Truncate(o.Path, o.Off)
	case OpRename:
		return fsys.Rename(o.Path, o.Path2)
	case OpLink:
		return fsys.Link(o.Path, o.Path2)
	case OpUnlink:
		return fsys.Unlink(o.Path)
	case OpRmdir:
		return fsys.Rmdir(o.Path)
	case OpFsync:
		return fsys.Fsync(o.Path)
	case OpSync:
		return fsys.Sync()
	default:
		return fmt.Errorf("fstest: unknown op kind %q", o.Kind)
	}
}
