package namei

import (
	"errors"
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
}

// fakeStore is an in-memory tree. Every store call is logged, and a call
// made with no lock held fails the test.
type fakeStore struct {
	t         *testing.T
	held      string
	log       []string
	unmounted bool
	nodes     map[int]*fakeNode
	touched   map[uint64]bool
	storeErr  error
	commitErr error
	clk       *disk.Clock
}

func (f *fakeStore) call(name string) {
	f.t.Helper()
	if f.held == "" {
		f.t.Errorf("%s called with no lock held (log %v)", name, f.log)
	}
	f.log = append(f.log, name)
}

func (f *fakeStore) MountedLocked() bool { f.call("mounted"); return !f.unmounted }
func (f *fakeStore) RootLocked() (int, *fakeNode, error) {
	f.call("root")
	f.clk.Advance(5)
	return 1, f.nodes[1], nil
}
func (f *fakeStore) LoadLocked(ref int) (*fakeNode, error) {
	f.call("load")
	return f.nodes[ref], nil
}
func (f *fakeStore) LookupLocked(_ int, dn *fakeNode, name string) (int, error) {
	f.call("lookup")
	if ref, ok := dn.ents[name]; ok {
		return ref, nil
	}
	return 0, vfs.ErrNotExist
}
func (f *fakeStore) ReadLinkLocked(_ int, n *fakeNode) (string, error) {
	f.call("readlink")
	return n.target, nil
}
func (f *fakeStore) StoreLocked(ref int, n *fakeNode) error {
	f.call("store")
	if f.storeErr == nil {
		f.touched[uint64(ref)] = true
	}
	return f.storeErr
}
func (f *fakeStore) CreateLocked(_ int, dn *fakeNode, name string, kind vfs.FileType, a Attr) (int, *fakeNode, error) {
	f.call("create")
	ref := len(f.nodes) + 1
	f.nodes[ref] = &fakeNode{TypedAttr: Typed(kind, a), ents: map[string]int{}}
	dn.ents[name] = ref
	return ref, f.nodes[ref], nil
}
func (f *fakeStore) KeyOf(ref int) uint64     { return uint64(ref) }
func (f *fakeStore) MaybeCommitLocked() error { f.call("maybecommit"); return f.commitErr }
func (f *fakeStore) SyncLocked() error        { f.call("sync"); return f.commitErr }

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
		2: {TypedAttr: Typed(vfs.TypeRegular, Attr{Mode: 0o644, Links: 1})},
		3: dir(map[string]int{}),
		4: {TypedAttr: Typed(vfs.TypeSymlink, Attr{Mode: 0o777, Links: 1}), target: "/file"},
	}
	health := new(vfs.Health)
	wait := stat.NewHistogram()
	w := &spyLock{"w", f}
	n := New[int, *fakeNode](f, Volume{Mu: w, RMu: &spyLock{"r", f}, Health: health,
		Journal: journal.New(w, health, f.clk, wait)})
	return &n, f, health, wait
}

type ns = Namespace[int, *fakeNode]

func second(_ any, err error) error { return err }

// entryPoints is every operation of the layer with the lock it must take:
// the read side for the five lookups, the volume lock for the rest.
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
	f.storeErr = boom
	if err := n.Chown("/file", 7, 8); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if strings.Contains(strings.Join(f.log, " "), "maybecommit") {
		t.Errorf("a failed store still reached the commit funnel: %v", f.log)
	}

	n, f, _, _ = harness(t)
	f.commitErr = boom
	if err := n.Utimes("/file", 9, 10); !errors.Is(err, boom) {
		t.Errorf("the commit funnel's error did not reach the caller: %v", err)
	}
}
