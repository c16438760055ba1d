package vfs

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSplitPath(t *testing.T) {
	cases := []struct {
		in   string
		want []string
		err  bool
	}{
		{"/", []string{}, false},
		{"/a", []string{"a"}, false},
		{"/a/b/c", []string{"a", "b", "c"}, false},
		{"/a//b/", []string{"a", "b"}, false},
		{"/a/./b", []string{"a", "b"}, false},
		{"/a/../b", []string{"b"}, false},
		{"/../..", []string{}, false},
		{"", nil, true},
		{"relative/path", nil, true},
	}
	for _, c := range cases {
		got, err := SplitPath(nil, c.in)
		if (err != nil) != c.err {
			t.Errorf("SplitPath(%q) err = %v", c.in, err)
			continue
		}
		if err == nil && strings.Join(got, "|") != strings.Join(c.want, "|") {
			t.Errorf("SplitPath(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	long := "/" + strings.Repeat("x", MaxNameLen+1)
	if _, err := SplitPath(nil, long); err != ErrNameTooLong {
		t.Errorf("overlong name = %v", err)
	}
}

func TestSplitDir(t *testing.T) {
	dir, name, err := SplitDir(nil, "/a/b/c")
	if err != nil || name != "c" || strings.Join(dir, "/") != "a/b" {
		t.Fatalf("SplitDir = %v %q %v", dir, name, err)
	}
	if _, _, err := SplitDir(nil, "/"); err == nil {
		t.Error("SplitDir(/) did not fail")
	}
}

func TestBaseAndJoin(t *testing.T) {
	if Base("/a/b") != "b" || Base("/") != "/" {
		t.Error("Base broken")
	}
	if Join("a", "b") != "/a/b" {
		t.Error("Join broken")
	}
}

// TestQuickSplitInvariants: for any input, the result never contains "..",
// ".", or empty components.
func TestQuickSplitInvariants(t *testing.T) {
	f := func(raw string) bool {
		parts, err := SplitPath(nil, "/"+raw)
		if err != nil {
			return true // rejecting is fine
		}
		for _, p := range parts {
			if p == "" || p == "." || p == ".." || strings.Contains(p, "/") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHealthStateMachine(t *testing.T) {
	var h Health
	if h.State() != Healthy || h.CheckWrite() != nil || h.CheckRead() != nil {
		t.Fatal("zero value not healthy")
	}
	h.Degrade(ReadOnly, "journal", ErrIO)
	if h.CheckWrite() != ErrReadOnly || h.CheckRead() != nil {
		t.Fatal("read-only semantics wrong")
	}
	h.Degrade(Panicked, "super", ErrCorrupt)
	if h.CheckWrite() != ErrPanicked || h.CheckRead() != ErrPanicked {
		t.Fatal("panicked semantics wrong")
	}
	// Degrading "up" is ignored.
	h.Degrade(ReadOnly, "journal", ErrIO)
	if h.State() != Panicked {
		t.Fatal("panicked state weakened")
	}
	h.Reset()
	if h.State() != Healthy {
		t.Fatal("reset failed")
	}
}

func TestHealthTransitionLog(t *testing.T) {
	var h Health
	if h.Cause() != "" || len(h.Transitions()) != 0 {
		t.Fatal("healthy state should have empty log")
	}
	// Repeated same-state degrades log only the real transition.
	h.Degrade(ReadOnly, "journal", ErrIO)
	h.Degrade(ReadOnly, "journal", ErrIO)
	h.Degrade(Panicked, "super", ErrCorrupt)
	h.Degrade(ReadOnly, "journal", ErrIO) // ignored: would weaken
	log := h.Transitions()
	if len(log) != 2 {
		t.Fatalf("want 2 transitions, got %d: %+v", len(log), log)
	}
	if log[0] != (Transition{From: Healthy, To: ReadOnly, Subsystem: "journal", Cause: ErrIO.Error()}) {
		t.Errorf("first transition wrong: %+v", log[0])
	}
	if log[1] != (Transition{From: ReadOnly, To: Panicked, Subsystem: "super", Cause: ErrCorrupt.Error()}) {
		t.Errorf("second transition wrong: %+v", log[1])
	}
	if want := "super: " + ErrCorrupt.Error(); h.Cause() != want {
		t.Errorf("Cause() = %q want %q", h.Cause(), want)
	}
	// The returned slice is a copy.
	log[0].Subsystem = "mutated"
	if h.Transitions()[0].Subsystem != "journal" {
		t.Error("Transitions() aliased internal log")
	}
	// A nil cause is allowed.
	h.Reset()
	h.Degrade(ReadOnly, "scrub", nil)
	if h.Cause() != "scrub" {
		t.Errorf("nil-cause Cause() = %q", h.Cause())
	}
	h.Reset()
	if len(h.Transitions()) != 0 {
		t.Fatal("Reset did not clear log")
	}
	// The log is bounded even under a pathological degrade loop.
	for i := 0; i < 100; i++ {
		h.Degrade(ReadOnly, "journal", ErrIO)
		if i%2 == 1 {
			h.state = Healthy // reach inside to force re-degrades
		}
	}
	if n := len(h.Transitions()); n > maxTransitions {
		t.Fatalf("log unbounded: %d entries", n)
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[HealthState]string{
		Healthy: "healthy", ReadOnly: "read-only", Panicked: "panicked",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	for ft, want := range map[FileType]string{
		TypeRegular: "file", TypeDirectory: "dir", TypeSymlink: "symlink",
	} {
		if ft.String() != want {
			t.Errorf("FileType %d = %q", ft, ft.String())
		}
	}
}
