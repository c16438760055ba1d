package vfs

import "strings"

// MaxNameLen is the maximum length of a single path component, shared by
// all file systems in this repository.
const MaxNameLen = 255

// SplitDepth is the component count a caller's stack array for SplitPath
// is sized to: a path with more components grows the slice onto the heap.
const SplitDepth = 16

// SplitPath normalizes an absolute slash-separated path and appends its
// components to dst, returning the extended slice. It rejects relative
// paths, empty components, and over-long names; "." components are dropped
// and ".." is resolved lexically within path, never into what dst already
// held. The root path "/" appends nothing. The components are substrings
// of path, so a caller that passes a stack array's slice splits without
// allocating.
func SplitPath(dst []string, path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, ErrInval
	}
	base := len(dst)
	for rest, more := path[1:], true; more; {
		var c string
		c, rest, more = strings.Cut(rest, "/")
		switch c {
		case "", ".":
		case "..":
			if len(dst) > base {
				dst = dst[:len(dst)-1]
			}
		default:
			if len(c) > MaxNameLen {
				return nil, ErrNameTooLong
			}
			dst = append(dst, c)
		}
	}
	return dst, nil
}

// SplitDir splits a path into its parent's components, appended to dst as
// by SplitPath, and the final name. The root itself has no final name and
// returns ErrInval.
func SplitDir(dst []string, path string) (dir []string, name string, err error) {
	base := len(dst)
	parts, err := SplitPath(dst, path)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == base {
		return nil, "", ErrInval
	}
	return parts[:len(parts)-1], parts[len(parts)-1], nil
}

// Base returns the final component of a path, or "/" for the root.
func Base(path string) string {
	var buf [SplitDepth]string
	parts, err := SplitPath(buf[:0], path)
	if err != nil || len(parts) == 0 {
		return "/"
	}
	return parts[len(parts)-1]
}

// Join concatenates components into an absolute path.
func Join(parts ...string) string {
	return "/" + strings.Join(parts, "/")
}
