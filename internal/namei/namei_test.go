package namei

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/journal"
	"ironfs/internal/stat"
	"ironfs/internal/vfs"
)

// spyLock is a locker that logs under a name and knows whether it is held.
type spyLock struct {
	name string
	f    *fakeStore
}

func (l *spyLock) Lock()   { l.f.held = l.name; l.f.log = append(l.f.log, "lock:"+l.name) }
func (l *spyLock) Unlock() { l.f.held = ""; l.f.log = append(l.f.log, "unlock:"+l.name) }

type fakeNode struct {
	TypedAttr
	ents   map[string]int
	target string
	data   []byte
}

func (n fakeNode) WithAttrs(a Attr) fakeNode { n.Attr = a; return n }

// fakeStore is an in-memory tree. Every store call is logged, and a call
// made with no lock held fails the test.
type fakeStore struct {
	t         *testing.T
	held      string
	log       []string
	unmounted bool
	nodes     map[int]*fakeNode
	touched   map[uint64]bool
	// errs fails the store calls it names, each with its error.
	errs map[string]error
	clk  *disk.Clock
}

func (f *fakeStore) call(name string) error {
	f.t.Helper()
	if f.held == "" {
		f.t.Errorf("%s called with no lock held (log %v)", name, f.log)
	}
	f.log = append(f.log, name)
	return f.errs[name]
}

func (f *fakeStore) MountedLocked() bool { f.call("mounted"); return !f.unmounted }
func (f *fakeStore) RootLocked() (int, fakeNode, error) {
	f.call("root")
	f.clk.Advance(5)
	return 1, *f.nodes[1], nil
}
func (f *fakeStore) LoadLocked(ref int) (fakeNode, error) {
	return *f.nodes[ref], f.call("load")
}
func (f *fakeStore) LookupLocked(_ int, dn fakeNode, name string) (int, byte, error) {
	f.call("lookup")
	if ref, ok := dn.ents[name]; ok {
		return ref, byte(f.nodes[ref].FileType()), nil
	}
	return 0, 0, vfs.ErrNotExist
}
func (f *fakeStore) ReadLinkLocked(_ int, n fakeNode) (string, error) {
	f.call("readlink")
	return n.target, nil
}
func (f *fakeStore) StoreLocked(ref int, n fakeNode) error {
	err := f.call("store")
	if err == nil {
		f.touched[uint64(ref)] = true
		*f.nodes[ref] = n
	}
	return err
}
func (f *fakeStore) CreateLocked(_ int, dn fakeNode, name string, kind vfs.FileType, a Attr) (int, fakeNode, error) {
	f.call("create")
	ref := len(f.nodes) + 1
	f.nodes[ref] = &fakeNode{TypedAttr: Typed(kind, a), ents: map[string]int{}}
	dn.ents[name] = ref
	return ref, *f.nodes[ref], nil
}
func (f *fakeStore) DirListLocked(_ int, n fakeNode) ([]vfs.DirEntry, error) {
	f.call("list")
	var out []vfs.DirEntry
	for name, ref := range n.ents {
		out = append(out, vfs.DirEntry{Name: name, Ino: uint32(ref), Type: f.nodes[ref].FileType()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
func (f *fakeStore) DirAddLocked(_ int, dn fakeNode, name string, child int, _ byte) (fakeNode, error) {
	f.call("add")
	dn.ents[name] = child
	return dn, nil
}
func (f *fakeStore) DirRemoveLocked(_ int, dn fakeNode, name string) error {
	if err := f.call("remove"); err != nil {
		return err
	}
	delete(dn.ents, name)
	return nil
}
func (f *fakeStore) DirEmptyLocked(_ int, n fakeNode) (bool, error) {
	return len(n.ents) == 0, f.call("empty")
}
func (f *fakeStore) DirChangedLocked(ref int, dn fakeNode) (fakeNode, error) {
	f.call("changed")
	return dn, f.StoreLocked(ref, dn)
}
func (f *fakeStore) FreeLocked(ref int, _ fakeNode) error {
	f.call("free")
	*f.nodes[ref] = fakeNode{}
	return nil
}
func (f *fakeStore) WriteLinkLocked(_ int, n fakeNode, target string) (fakeNode, error) {
	f.call("writelink")
	n.target = target
	return n, nil
}
func (f *fakeStore) ReadAtLocked(_ int, n fakeNode, off int64, p []byte) (int, error) {
	f.call(fmt.Sprintf("readat:%d+%d", off, len(p)))
	return copy(p, n.data[min(off, int64(len(n.data))):]), nil
}
func (f *fakeStore) WriteAtLocked(_ int, n fakeNode, off int64, p []byte) (fakeNode, int, error) {
	f.call(fmt.Sprintf("writeat:%d+%d", off, len(p)))
	if end := off + int64(len(p)); end > int64(len(n.data)) {
		n.data = append(n.data, make([]byte, end-int64(len(n.data)))...)
	}
	return n, copy(n.data[off:], p), nil
}
func (f *fakeStore) CutLocked(_ int, n fakeNode, size int64) (fakeNode, error) {
	f.call(fmt.Sprintf("cut:%d", size))
	n.data = n.data[:min(size, int64(len(n.data)))]
	return n, nil
}
func (f *fakeStore) KeyOf(ref int) uint64     { return uint64(ref) }
func (f *fakeStore) MaybeCommitLocked() error { return f.call("maybecommit") }
func (f *fakeStore) SyncLocked() error        { return f.call("sync") }

// journal.Committer: nothing is ever dirty, so an Fsync of a touched object
// ends at Commit's DirtyLocked.
func (f *fakeStore) DirtyLocked() bool                         { f.call("dirty"); return false }
func (f *fakeStore) TouchedLocked(key uint64) bool             { f.call("touched"); return f.touched[key] }
func (f *fakeStore) FreezeLocked(uint64) (journal.Plan, error) { panic("unreachable") }
func (f *fakeStore) WritePlan(journal.Plan) error              { panic("unreachable") }
func (f *fakeStore) FinishLocked(journal.Plan) error           { panic("unreachable") }

// harness builds a namespace over /file (0644), /dir and /link → /file,
// with distinct write- and read-side lockers.
func harness(t *testing.T) (*ns, *fakeStore, *vfs.Health, *stat.Histogram) {
	f := &fakeStore{t: t, touched: map[uint64]bool{}, clk: disk.NewClock()}
	dir := func(ents map[string]int) *fakeNode {
		return &fakeNode{TypedAttr: Typed(vfs.TypeDirectory, Attr{Mode: 0o755, Links: 1}), ents: ents}
	}
	f.nodes = map[int]*fakeNode{
		1: dir(map[string]int{"file": 2, "dir": 3, "link": 4}),
		2: {TypedAttr: Typed(vfs.TypeRegular, Attr{Mode: 0o644, Links: 1, Size: 10}), data: []byte("0123456789")},
		3: dir(map[string]int{}),
		4: {TypedAttr: Typed(vfs.TypeSymlink, Attr{Mode: 0o777, Links: 1}), target: "/file"},
	}
	health := new(vfs.Health)
	reg := stat.NewRegistry()
	prev := stat.SetDefault(reg)
	t.Cleanup(func() { stat.SetDefault(prev) })
	w := &spyLock{"w", f}
	n := New[int, fakeNode](f, Volume{Mu: w, RMu: &spyLock{"r", f}, Health: health,
		Journal: journal.New(w, health, f.clk, nil, "fake"), SymlinkMax: 64, MaxFileSize: 100})
	return &n, f, health, reg.Histogram("fs_fsync_wait_ns", "fs", "fake")
}

type ns = Namespace[int, fakeNode]

func second(_ any, err error) error { return err }

// entryPoints is every operation of the layer with the lock it must take:
// the read side for the five lookups and ReadDir, the volume lock for the
// rest.
var entryPoints = []struct {
	name, side string
	run        func(*ns) error
}{
	{"Open", "r", func(n *ns) error { return n.Open("/file") }},
	{"Access", "r", func(n *ns) error { return n.Access("/file") }},
	{"Stat", "r", func(n *ns) error { return second(n.Stat("/file")) }},
	{"Lstat", "r", func(n *ns) error { return second(n.Lstat("/link")) }},
	{"Readlink", "r", func(n *ns) error { return second(n.Readlink("/link")) }},
	{"Create", "w", func(n *ns) error { return n.Create("/new", 0o644) }},
	{"Mkdir", "w", func(n *ns) error { return n.Mkdir("/newdir", 0o755) }},
	{"Chmod", "w", func(n *ns) error { return n.Chmod("/file", 0o600) }},
	{"Chown", "w", func(n *ns) error { return n.Chown("/file", 1, 2) }},
	{"Utimes", "w", func(n *ns) error { return n.Utimes("/file", 3, 4) }},
	{"Fsync", "w", func(n *ns) error { return n.Fsync("/file") }},
	{"Sync", "w", func(n *ns) error { return n.Sync() }},
	{"Symlink", "w", func(n *ns) error { return n.Symlink("/file", "/newlink") }},
	{"ReadDir", "r", func(n *ns) error { return second(n.ReadDir("/")) }},
	{"Unlink", "w", func(n *ns) error { return n.Unlink("/file") }},
	{"Rmdir", "w", func(n *ns) error { return n.Rmdir("/dir") }},
	{"Link", "w", func(n *ns) error { return n.Link("/file", "/hard") }},
	{"Rename", "w", func(n *ns) error { return n.Rename("/file", "/dir/moved") }},
	{"Write", "w", func(n *ns) error { return second(n.Write("/file", 0, []byte("x"))) }},
	{"Truncate", "w", func(n *ns) error { return n.Truncate("/file", 4) }},
}

func TestLockThenGuardThenStore(t *testing.T) {
	for _, op := range entryPoints {
		n, f, _, _ := harness(t)
		if err := op.run(n); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if len(f.log) < 4 || f.log[0] != "lock:"+op.side || f.log[1] != "mounted" ||
			f.log[len(f.log)-1] != "unlock:"+op.side {
			t.Errorf("%s: sequence %v, want lock:%s mounted … unlock:%s", op.name, f.log, op.side, op.side)
		}
	}
}

func TestFailedGuardMakesNoStoreCall(t *testing.T) {
	cases := []struct {
		name  string
		spoil func(*fakeStore, *vfs.Health)
		want  map[string]error // by lock side
	}{
		{"unmounted", func(f *fakeStore, _ *vfs.Health) { f.unmounted = true },
			map[string]error{"r": vfs.ErrNotMounted, "w": vfs.ErrNotMounted}},
		{"read-only", func(_ *fakeStore, h *vfs.Health) { h.Degrade(vfs.ReadOnly, "test", nil) },
			map[string]error{"r": nil, "w": vfs.ErrReadOnly}},
		{"panicked", func(_ *fakeStore, h *vfs.Health) { h.Degrade(vfs.Panicked, "test", nil) },
			map[string]error{"r": vfs.ErrPanicked, "w": vfs.ErrPanicked}},
	}
	for _, c := range cases {
		for _, op := range entryPoints {
			n, f, health, _ := harness(t)
			c.spoil(f, health)
			want := c.want[op.side]
			if err := op.run(n); !errors.Is(err, want) {
				t.Errorf("%s: %s: err = %v, want %v", c.name, op.name, err, want)
			}
			if got := strings.Join(f.log, " "); want != nil && got != "lock:"+op.side+" mounted unlock:"+op.side {
				t.Errorf("%s: %s reached the store: %s", c.name, op.name, got)
			}
		}
	}
}

func TestFsyncBracketsTheWaitOnEveryPath(t *testing.T) {
	for _, path := range []string{"/file", "/missing"} {
		n, _, _, wait := harness(t)
		err := n.Fsync(path)
		if (path == "/missing") != errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("Fsync(%s) = %v", path, err)
		}
		// The walk's root load advanced the clock by 5 between Begin and End.
		if wait.Count() != 1 || wait.Sum() != 5 {
			t.Errorf("Fsync(%s): fsync wait recorded %d times, sum %d; want once, 5", path, wait.Count(), wait.Sum())
		}
	}
}

func TestSetattrStampsAndCommitsOnlyAfterStore(t *testing.T) {
	n, f, _, _ := harness(t)
	if err := n.Chmod("/link", 0o170600); err != nil {
		t.Fatal(err)
	}
	file, link := f.nodes[2], f.nodes[4]
	if file.Mode != ModeRegular|0o600 || file.Ctime != 1 || link.Mode != ModeSymlink|0o777 {
		t.Errorf("chmod through the link: file mode %#o ctime %d, link mode %#o", file.Mode, file.Ctime, link.Mode)
	}
	if got := strings.Join(f.log[len(f.log)-3:], " "); got != "store maybecommit unlock:w" {
		t.Errorf("tail of the sequence = %s", got)
	}

	boom := errors.New("boom")
	n, f, _, _ = harness(t)
	f.errs = map[string]error{"store": boom}
	if err := n.Chown("/file", 7, 8); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if strings.Contains(strings.Join(f.log, " "), "maybecommit") {
		t.Errorf("a failed store still reached the commit funnel: %v", f.log)
	}

	n, f, _, _ = harness(t)
	f.errs = map[string]error{"maybecommit": boom}
	if err := n.Utimes("/file", 9, 10); !errors.Is(err, boom) {
		t.Errorf("the commit funnel's error did not reach the caller: %v", err)
	}
}

// TestWalkDeeperThanStackArray: a path with more components than the
// split's stack array holds resolves, and so does a symlink whose target
// plus the rest of the path outgrows it.
func TestWalkDeeperThanStackArray(t *testing.T) {
	n, f, _, _ := harness(t)
	path := ""
	for i := 0; i < vfs.SplitDepth+2; i++ {
		path += "/d"
		if err := n.Mkdir(path, 0o755); err != nil {
			t.Fatalf("Mkdir at depth %d: %v", i+1, err)
		}
	}
	if err := n.Create(path+"/leaf", 0o644); err != nil {
		t.Fatal(err)
	}
	leaf, err := n.Stat(path + "/leaf")
	if err != nil || leaf.Type != vfs.TypeRegular {
		t.Fatalf("Stat of a %d-component path = %+v, %v", vfs.SplitDepth+3, leaf, err)
	}
	// /deep names the next-to-deepest directory; the walk goes on with d/leaf.
	ref := len(f.nodes) + 1
	f.nodes[ref] = &fakeNode{TypedAttr: Typed(vfs.TypeSymlink, Attr{Mode: 0o777, Links: 1}), target: path[:len(path)-2]}
	f.nodes[1].ents["deep"] = ref
	if got, err := n.Stat("/deep/d/leaf"); err != nil || got.Ino != leaf.Ino {
		t.Errorf("Stat through a deep symlink = ino %d, %v; want ino %d", got.Ino, err, leaf.Ino)
	}
}

// TestEntryOpsVisitInOrder pins the order in which the entry operations
// call the store after the walk: the entry, then the parent's record of the
// change, then the object, then the commit funnel.
func TestEntryOpsVisitInOrder(t *testing.T) {
	cases := []struct {
		name string
		run  func(*ns, *fakeStore) error
		tail string // the log after the last walk step
	}{
		{"Symlink", func(n *ns, _ *fakeStore) error { return n.Symlink("/file", "/s") },
			"create writelink store maybecommit unlock:w"},
		{"ReadDir", func(n *ns, _ *fakeStore) error { return second(n.ReadDir("/dir")) }, "list unlock:r"},
		{"Unlink, last link", func(n *ns, _ *fakeStore) error { return n.Unlink("/file") },
			"remove changed store free maybecommit unlock:w"},
		{"Unlink, one of two", func(n *ns, f *fakeStore) error { f.nodes[2].Links = 2; return n.Unlink("/file") },
			"remove changed store store maybecommit unlock:w"},
		{"Rmdir", func(n *ns, _ *fakeStore) error { return n.Rmdir("/dir") },
			"empty remove changed store free maybecommit unlock:w"},
		{"Link", func(n *ns, _ *fakeStore) error { return n.Link("/file", "/dir/hard") },
			"add changed store store maybecommit unlock:w"},
		{"Rename", func(n *ns, _ *fakeStore) error { return n.Rename("/file", "/dir/moved") },
			"remove changed store add changed store maybecommit unlock:w"},
		{"Rename over a file", func(n *ns, _ *fakeStore) error { return n.Rename("/link", "/file") },
			"load remove free remove changed store add changed store maybecommit unlock:w"},
		{"Rename over an empty directory", func(n *ns, f *fakeStore) error {
			f.nodes[1].ents["dir2"] = 5
			f.nodes[5] = &fakeNode{TypedAttr: Typed(vfs.TypeDirectory, Attr{Mode: 0o755, Links: 1}), ents: map[string]int{}}
			return n.Rename("/dir2", "/dir")
		}, "load empty remove free remove changed store add changed store maybecommit unlock:w"},
	}
	for _, c := range cases {
		n, f, _, _ := harness(t)
		if err := c.run(n, f); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		log := strings.Join(f.log, " ")
		if !strings.HasSuffix(log, " "+c.tail) {
			t.Errorf("%s: sequence %s, want it to end %s", c.name, log, c.tail)
		}
	}
}

// TestEntryOpsRefuseBeforeChanging: every refusal of the entry operations,
// and a rename to the name it already has, comes before their first
// mutating store call.
func TestEntryOpsRefuseBeforeChanging(t *testing.T) {
	cases := []struct {
		name string
		run  func(*ns, *fakeStore) error
		want error
	}{
		{"Symlink, empty target", func(n *ns, _ *fakeStore) error { return n.Symlink("", "/s") }, vfs.ErrInval},
		{"Symlink, over-long target", func(n *ns, _ *fakeStore) error { return n.Symlink(strings.Repeat("x", 65), "/s") }, vfs.ErrInval},
		{"Symlink over a name", func(n *ns, _ *fakeStore) error { return n.Symlink("/file", "/dir") }, vfs.ErrExist},
		{"ReadDir of a file", func(n *ns, _ *fakeStore) error { return second(n.ReadDir("/file")) }, vfs.ErrNotDir},
		{"Unlink of a directory", func(n *ns, _ *fakeStore) error { return n.Unlink("/dir") }, vfs.ErrIsDir},
		{"Unlink of a missing name", func(n *ns, _ *fakeStore) error { return n.Unlink("/nope") }, vfs.ErrNotExist},
		{"Rmdir of a file", func(n *ns, _ *fakeStore) error { return n.Rmdir("/file") }, vfs.ErrNotDir},
		{"Rmdir of the root", func(n *ns, _ *fakeStore) error { return n.Rmdir("/") }, vfs.ErrInval},
		{"Rmdir of a non-empty directory", func(n *ns, f *fakeStore) error { f.nodes[3].ents["x"] = 2; return n.Rmdir("/dir") }, vfs.ErrNotEmpty},
		{"Link of a directory", func(n *ns, _ *fakeStore) error { return n.Link("/dir", "/d2") }, vfs.ErrIsDir},
		{"Link over a name", func(n *ns, _ *fakeStore) error { return n.Link("/file", "/dir") }, vfs.ErrExist},
		{"Link at the ceiling", func(n *ns, f *fakeStore) error { f.nodes[2].Links = 0xFFFF; return n.Link("/file", "/hard") }, vfs.ErrTooManyLink},
		{"Rename of a missing name", func(n *ns, _ *fakeStore) error { return n.Rename("/nope", "/x") }, vfs.ErrNotExist},
		{"Rename over a non-empty directory", func(n *ns, f *fakeStore) error {
			f.nodes[5] = &fakeNode{TypedAttr: Typed(vfs.TypeDirectory, Attr{Mode: 0o755, Links: 1}), ents: map[string]int{}}
			f.nodes[3].ents["x"], f.nodes[1].ents["dir2"] = 2, 5
			return n.Rename("/dir2", "/dir")
		}, vfs.ErrNotEmpty},
		{"Rename of a file over a directory", func(n *ns, _ *fakeStore) error { return n.Rename("/file", "/dir") }, vfs.ErrIsDir},
		{"Rename of a directory over a file", func(n *ns, _ *fakeStore) error { return n.Rename("/dir", "/file") }, vfs.ErrNotDir},
		{"Rename to its own name", func(n *ns, _ *fakeStore) error { return n.Rename("/file", "/file") }, nil},
		{"Rename beneath itself", func(n *ns, _ *fakeStore) error { return n.Rename("/dir", "/dir/x") }, vfs.ErrInval},
		{"Rename beneath itself through a link", func(n *ns, f *fakeStore) error {
			f.nodes[5] = &fakeNode{TypedAttr: Typed(vfs.TypeDirectory, Attr{Mode: 0o755, Links: 1}), ents: map[string]int{}}
			f.nodes[6] = &fakeNode{TypedAttr: Typed(vfs.TypeSymlink, Attr{Mode: 0o777, Links: 1}), target: "/dir/sub"}
			f.nodes[3].ents["sub"], f.nodes[1].ents["sub"] = 5, 6
			return n.Rename("/dir", "/sub/x")
		}, vfs.ErrInval},
	}
	mutators := []string{"create", "writelink", "add", "remove", "changed", "store", "free", "maybecommit"}
	for _, c := range cases {
		n, f, _, _ := harness(t)
		if err := c.run(n, f); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		for _, entry := range f.log {
			for _, m := range mutators {
				if entry == m {
					t.Errorf("%s: refused after a %s call: %v", c.name, m, f.log)
				}
			}
		}
	}
}

// TestLinkAtTheCeilingWalksOnlyTheSource: a file at the link-count ceiling
// is refused before the new name's directory is even walked.
func TestLinkAtTheCeilingWalksOnlyTheSource(t *testing.T) {
	n, f, _, _ := harness(t)
	f.nodes[2].Links = 0xFFFF
	if err := n.Link("/file", "/dir/hard"); !errors.Is(err, vfs.ErrTooManyLink) {
		t.Fatalf("err = %v", err)
	}
	if got := strings.Join(f.log, " "); got != "lock:w mounted root lookup load unlock:w" {
		t.Errorf("sequence %s", got)
	}
}

// TestReadLockFollowsNoAtime: Read takes the volume lock and stamps atime,
// or under noatime takes the read side and stores nothing. Either way it
// runs the read guard: a read-only volume still reads, without a stamp.
func TestReadLockFollowsNoAtime(t *testing.T) {
	cases := []struct {
		name              string
		noatime, readOnly bool
		want              string
		stamped           bool
	}{
		{"atime", false, false, "readat:2+3 store maybecommit unlock:w", true},
		{"noatime", true, false, "readat:2+3 unlock:r", false},
		{"read-only", false, true, "readat:2+3 unlock:w", false},
	}
	for _, c := range cases {
		n, f, health, _ := harness(t)
		n.SetNoAtime(c.noatime)
		if c.readOnly {
			health.Degrade(vfs.ReadOnly, "test", nil)
		}
		buf := make([]byte, 3)
		got, err := n.Read("/file", 2, buf)
		if err != nil || string(buf[:got]) != "234" {
			t.Errorf("%s: read %q, %v", c.name, buf[:got], err)
		}
		log := strings.Join(f.log, " ")
		if side := c.want[len(c.want)-1:]; !strings.HasPrefix(log, "lock:"+side+" mounted ") || !strings.HasSuffix(log, " "+c.want) {
			t.Errorf("%s: sequence %s, want lock:%s mounted … %s", c.name, log, side, c.want)
		}
		if stamped := f.nodes[2].Atime != 0; stamped != c.stamped {
			t.Errorf("%s: atime %d", c.name, f.nodes[2].Atime)
		}
	}
}

// TestReadClampsToTheSize: the store is handed only the bytes inside the
// file, and nothing at or past EOF, where Read still stamps atime.
// Refusals come before the store is asked for any byte.
func TestReadClampsToTheSize(t *testing.T) {
	cases := []struct {
		path string
		off  int64
		want string // the log after the walk
		err  error
	}{
		{"/file", 4, "readat:4+6 store maybecommit unlock:w", nil},
		{"/link", 9, "readat:9+1 store maybecommit unlock:w", nil},
		{"/file", 10, "store maybecommit unlock:w", nil},
		{"/file", 50, "store maybecommit unlock:w", nil},
		{"/dir", 0, "load unlock:w", vfs.ErrIsDir},
		{"/file", -1, "load unlock:w", vfs.ErrInval},
	}
	for _, c := range cases {
		n, f, _, _ := harness(t)
		_, err := n.Read(c.path, c.off, make([]byte, 20))
		if !errors.Is(err, c.err) {
			t.Errorf("Read(%s, %d): err = %v, want %v", c.path, c.off, err, c.err)
		}
		if log := strings.Join(f.log, " "); !strings.HasSuffix(log, " "+c.want) {
			t.Errorf("Read(%s, %d): sequence %s, want it to end %s", c.path, c.off, log, c.want)
		}
	}
}

// TestWriteAndTruncateRecordTheSize: Write grows the size to what it wrote
// and never shrinks it, Truncate sets it and asks the store to cut only
// when it shrinks; both stamp mtime and commit after the store. The
// limits refuse before any byte moves, and a failed store still reports
// the bytes the Write moved.
func TestWriteAndTruncateRecordTheSize(t *testing.T) {
	cases := []struct {
		name string
		run  func(*ns) error
		want string // the log after the walk
		size uint64
		err  error
	}{
		{"Write past EOF", func(n *ns) error { return second(n.Write("/file", 12, []byte("ab"))) },
			"writeat:12+2 store maybecommit unlock:w", 14, nil},
		{"Write inside", func(n *ns) error { return second(n.Write("/file", 2, []byte("ab"))) },
			"writeat:2+2 store maybecommit unlock:w", 10, nil},
		{"Write to the limit", func(n *ns) error { return second(n.Write("/file", 99, []byte("a"))) },
			"writeat:99+1 store maybecommit unlock:w", 100, nil},
		{"Write past the limit", func(n *ns) error { return second(n.Write("/file", 99, []byte("ab"))) }, "load unlock:w", 10, vfs.ErrInval},
		{"Write at a negative offset", func(n *ns) error { return second(n.Write("/file", -1, []byte("a"))) }, "load unlock:w", 10, vfs.ErrInval},
		{"Write of a directory", func(n *ns) error { return second(n.Write("/dir", 0, []byte("a"))) }, "load unlock:w", 0, vfs.ErrIsDir},
		{"Truncate down", func(n *ns) error { return n.Truncate("/file", 4) }, "cut:4 store maybecommit unlock:w", 4, nil},
		{"Truncate up", func(n *ns) error { return n.Truncate("/file", 40) }, "load store maybecommit unlock:w", 40, nil},
		{"Truncate to the size", func(n *ns) error { return n.Truncate("/file", 10) }, "load store maybecommit unlock:w", 10, nil},
		{"Truncate past the limit", func(n *ns) error { return n.Truncate("/file", 101) }, "load unlock:w", 10, vfs.ErrInval},
		{"Truncate to a negative size", func(n *ns) error { return n.Truncate("/file", -1) }, "load unlock:w", 10, vfs.ErrInval},
		{"Truncate of a directory", func(n *ns) error { return n.Truncate("/dir", 0) }, "load unlock:w", 0, vfs.ErrIsDir},
	}
	for _, c := range cases {
		n, f, _, _ := harness(t)
		if err := c.run(n); !errors.Is(err, c.err) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.err)
		}
		if log := strings.Join(f.log, " "); !strings.HasSuffix(log, " "+c.want) {
			t.Errorf("%s: sequence %s, want it to end %s", c.name, log, c.want)
		}
		node := f.nodes[2]
		if strings.HasSuffix(c.name, "directory") {
			node = f.nodes[3]
		}
		if node.Size != c.size || (c.err == nil) != (node.Mtime != 0) {
			t.Errorf("%s: size %d mtime %d, want size %d", c.name, node.Size, node.Mtime, c.size)
		}
	}

	boom := errors.New("boom")
	for _, spoil := range []func(*fakeStore){
		func(f *fakeStore) { f.errs = map[string]error{"store": boom} },
		func(f *fakeStore) { f.errs = map[string]error{"maybecommit": boom} },
	} {
		n, f, _, _ := harness(t)
		spoil(f)
		if got, err := n.Write("/file", 0, []byte("abc")); got != 3 || !errors.Is(err, boom) {
			t.Errorf("Write with a failing store or commit = %d, %v; want 3, boom", got, err)
		}
	}
}

// TestSwallowEndsTheCallAtEachStep: at each step Volume.Swallow covers, a
// failure goes through it and what it returns ends the call, with no later
// store call; unset, the failure propagates as it is.
func TestSwallowEndsTheCallAtEachStep(t *testing.T) {
	steps := []struct {
		op, step string
		run      func(*ns) error
	}{
		{"Truncate", "store", func(n *ns) error { return n.Truncate("/file", 4) }},
		{"Truncate", "maybecommit", func(n *ns) error { return n.Truncate("/file", 4) }},
		{"Rmdir", "load", func(n *ns) error { return n.Rmdir("/dir") }},
		{"Rmdir", "empty", func(n *ns) error { return n.Rmdir("/dir") }},
		{"Rmdir", "remove", func(n *ns) error { return n.Rmdir("/dir") }},
	}
	boom := errors.New("boom")
	for _, c := range steps {
		for _, set := range []bool{false, true} {
			n, f, _, _ := harness(t)
			f.errs = map[string]error{c.step: boom}
			var saw error
			want := boom
			if set {
				n.v.Swallow = func(err error) error { saw = err; return nil }
				want = nil
			}
			if err := c.run(n); !errors.Is(err, want) {
				t.Errorf("%s, %s fails, hook set %v: err = %v, want %v", c.op, c.step, set, err, want)
			}
			if set && saw != boom {
				t.Errorf("%s, %s fails: Swallow saw %v", c.op, c.step, saw)
			}
			if log := strings.Join(f.log, " "); !strings.HasSuffix(log, " "+c.step+" unlock:w") {
				t.Errorf("%s, %s fails, hook set %v: sequence %s goes on past the step", c.op, c.step, set, log)
			}
		}
	}
}

// TestZeroLinksRefusesBeforeTheEntryGoes: Unlink of an object whose link
// count is already zero returns what Volume.ZeroLinks returns, before any
// store call changes anything. Unset, the count underflows and the object
// keeps its node.
func TestZeroLinksRefusesBeforeTheEntryGoes(t *testing.T) {
	n, f, _, _ := harness(t)
	f.nodes[2].Links = 0
	if err := n.Unlink("/file"); err != nil {
		t.Fatalf("Unlink with no hook: %v", err)
	}
	if f.nodes[2].Links != 0xFFFF {
		t.Errorf("link count %d, want the underflow to 0xFFFF", f.nodes[2].Links)
	}

	boom := errors.New("boom")
	n, f, _, _ = harness(t)
	f.nodes[2].Links = 0
	n.v.ZeroLinks = func() error { return boom }
	if err := n.Unlink("/file"); !errors.Is(err, boom) {
		t.Fatalf("Unlink = %v, want the hook's error", err)
	}
	if got := strings.Join(f.log, " "); got != "lock:w mounted root lookup load unlock:w" {
		t.Errorf("sequence %s", got)
	}
}
