package vfs

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// splitPathRef is SplitPath as it was before it split in place: the
// strings.Split result, filtered into a fresh slice. It is the reference
// the in-place splitter must match.
func splitPathRef(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, ErrInval
	}
	var parts []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
			continue
		case "..":
			if len(parts) > 0 {
				parts = parts[:len(parts)-1]
			}
		default:
			if len(c) > MaxNameLen {
				return nil, ErrNameTooLong
			}
			parts = append(parts, c)
		}
	}
	return parts, nil
}

// TestSplitPathMatchesReference runs the in-place splitter and the
// strings.Split reference over the same paths, from an empty stack array
// and appended after components the caller already holds.
func TestSplitPathMatchesReference(t *testing.T) {
	name255 := strings.Repeat("n", MaxNameLen)
	name256 := strings.Repeat("n", MaxNameLen+1)
	deep := strings.Repeat("/d", SplitDepth+5)
	paths := []string{
		"/", "//", "///", "/a", "/a/", "//a//b/", "/a/./b", "/a/../b",
		"/..", "/../..", "/a/b/../../..", "/./.", "/a/..", "/.../b", "/a/.b/..c",
		"/" + name255, "/a/" + name255 + "/b", "/" + name256, "/a/" + name256 + "/b",
		deep, deep + "/..", deep + "/../" + name256,
		"", "a", "a/b", ".", "./a",
	}
	for _, path := range paths {
		want, wantErr := splitPathRef(path)
		var buf [SplitDepth]string
		got, err := SplitPath(buf[:0], path)
		if !errors.Is(err, wantErr) || (err == nil && !slices.Equal(got, want)) {
			t.Errorf("SplitPath(%.40q) = %q, %v; reference %q, %v", path, got, err, want, wantErr)
		}
		// Appended after a held prefix, ".." never climbs into the prefix.
		held := []string{"held0", "held1"}
		got, err = SplitPath(held, path)
		if !errors.Is(err, wantErr) {
			t.Errorf("SplitPath(held, %.40q) err = %v, want %v", path, err, wantErr)
		} else if err == nil && !slices.Equal(got, append(held[:2:2], want...)) {
			t.Errorf("SplitPath(held, %.40q) = %q, want held0 held1 then %q", path, got, want)
		}
	}
}

// TestSplitPathAllocs: a path that fits the caller's stack array splits
// without allocating; a deeper one grows the slice instead of failing.
func TestSplitPathAllocs(t *testing.T) {
	path := "/a/b/./c/../" + strings.Repeat("x", MaxNameLen)
	var got int
	var err error
	if n := testing.AllocsPerRun(100, func() {
		var buf [SplitDepth]string
		var parts []string
		parts, err = SplitPath(buf[:0], path)
		got = len(parts)
	}); n != 0 || err != nil || got != 3 {
		t.Errorf("SplitPath into a stack array: %d parts, %v, %v allocs; want 3, nil, 0", got, err, n)
	}
	deep := strings.Repeat("/d", SplitDepth+1)
	var buf [SplitDepth]string
	if parts, err := SplitPath(buf[:0], deep); err != nil || len(parts) != SplitDepth+1 {
		t.Errorf("SplitPath of %d components = %d parts, %v", SplitDepth+1, len(parts), err)
	}
}
