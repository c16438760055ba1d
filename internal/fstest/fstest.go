// Package fstest provides a model-based testing harness shared by every
// file system in this repository: it drives a file system under test and a
// trivially-correct in-memory model through the same randomized operation
// sequence and fails on any observable divergence (contents, sizes,
// directory listings, error/success disposition). It also provides the
// crash-consistency sweep used by the journaling tests.
package fstest

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"ironfs/internal/vfs"
)

// model is the in-memory oracle: a map from path to node.
type model struct {
	files map[string]*mfile
	dirs  map[string]bool
}

type mfile struct {
	data    []byte
	symlink string
	links   int
}

func newModel() *model {
	return &model{files: map[string]*mfile{}, dirs: map[string]bool{"/": true}}
}

func parent(path string) string {
	i := strings.LastIndex(path, "/")
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

// Op is one step of a generated workload.
type Op struct {
	// Kind is the operation name, for failure messages.
	Kind string
	// Apply runs the operation against both systems and returns a
	// description of any divergence.
	Apply func(fs vfs.FileSystem, m *model) error
}

// Config bounds the generated workload.
type Config struct {
	// Seed makes runs reproducible.
	Seed int64
	// Ops is the number of operations to generate.
	Ops int
	// MaxFileKB bounds write sizes.
	MaxFileKB int
}

// errDiverged wraps a model/fs divergence.
func diverge(format string, args ...interface{}) error {
	return fmt.Errorf("model divergence: "+format, args...)
}

// bothErr checks that fs and model agree on success/failure. The model is
// authoritative about *whether* the op should succeed; exact error codes
// are not compared (policies legitimately differ).
func bothErr(kind string, fsErr error, modelOK bool) error {
	if (fsErr == nil) != modelOK {
		return diverge("%s: fs err=%v, model ok=%v", kind, fsErr, modelOK)
	}
	return nil
}

// Run drives the file system and the model through cfg.Ops random
// operations, verifying contents along the way. The file system must be
// mounted. It returns the first divergence.
func Run(fs vfs.FileSystem, cfg Config) error {
	if cfg.Ops == 0 {
		cfg.Ops = 300
	}
	if cfg.MaxFileKB == 0 {
		cfg.MaxFileKB = 64
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := newModel()

	// Path pool: a mix of existing and fresh names keeps both hit and
	// miss paths exercised.
	pathOf := func(i int) string { return fmt.Sprintf("/f%02d", i) }
	dirOf := func(i int) string { return fmt.Sprintf("/dir%02d", i) }
	anyFile := func() string { return pathOf(rng.Intn(24)) }
	anyDir := func() string { return dirOf(rng.Intn(6)) }
	inDir := func() string { return anyDir() + fmt.Sprintf("/g%02d", rng.Intn(8)) }
	pick := func() string {
		switch rng.Intn(3) {
		case 0:
			return anyFile()
		case 1:
			return anyDir()
		default:
			return inDir()
		}
	}

	payload := make([]byte, cfg.MaxFileKB<<10)
	rng.Read(payload)

	for i := 0; i < cfg.Ops; i++ {
		switch rng.Intn(12) {
		case 0: // create
			p := pick()
			ok := !m.exists(p) && m.dirs[parent(p)]
			err := fs.Create(p, 0o644)
			if e := bothErr("create "+p, err, ok); e != nil {
				return e
			}
			if ok {
				m.files[p] = &mfile{links: 1}
			}
		case 1: // mkdir
			p := anyDir()
			ok := !m.exists(p) && m.dirs[parent(p)]
			err := fs.Mkdir(p, 0o755)
			if e := bothErr("mkdir "+p, err, ok); e != nil {
				return e
			}
			if ok {
				m.dirs[p] = true
			}
		case 2: // write
			p := pick()
			f := m.files[p]
			ok := f != nil && f.symlink == ""
			off := 0
			if f != nil && len(f.data) > 0 {
				off = rng.Intn(len(f.data) + 1)
			}
			n := 1 + rng.Intn(cfg.MaxFileKB<<10/4)
			chunk := payload[rng.Intn(len(payload)-n+1):][:n]
			_, err := fs.Write(p, int64(off), chunk)
			if e := bothErr(fmt.Sprintf("write %s off=%d n=%d", p, off, n), err, ok); e != nil {
				return e
			}
			if ok {
				if off+n > len(f.data) {
					nd := make([]byte, off+n)
					copy(nd, f.data)
					f.data = nd
				}
				copy(f.data[off:], chunk)
			}
		case 3: // read + verify
			p := pick()
			f := m.files[p]
			ok := f != nil && f.symlink == ""
			buf := make([]byte, cfg.MaxFileKB<<10)
			n, err := fs.Read(p, 0, buf)
			if e := bothErr("read "+p, err, ok); e != nil {
				return e
			}
			if ok {
				want := f.data
				if len(want) > len(buf) {
					want = want[:len(buf)]
				}
				if n != len(want) || !bytes.Equal(buf[:n], want) {
					return diverge("read %s: got %d bytes, want %d (content mismatch=%v)",
						p, n, len(want), !bytes.Equal(buf[:n], want))
				}
			}
		case 4: // truncate
			p := pick()
			f := m.files[p]
			ok := f != nil && f.symlink == ""
			var size int
			if f != nil {
				size = rng.Intn(len(f.data) + 2048)
			}
			err := fs.Truncate(p, int64(size))
			if e := bothErr(fmt.Sprintf("truncate %s to %d", p, size), err, ok); e != nil {
				return e
			}
			if ok {
				if size <= len(f.data) {
					f.data = f.data[:size]
				} else {
					nd := make([]byte, size)
					copy(nd, f.data)
					f.data = nd
				}
			}
		case 5: // unlink
			p := pick()
			f := m.files[p]
			ok := f != nil
			err := fs.Unlink(p)
			if e := bothErr("unlink "+p, err, ok); e != nil {
				return e
			}
			if ok {
				delete(m.files, p)
			}
		case 6: // rmdir
			p := anyDir()
			ok := m.dirs[p] && m.emptyDir(p)
			err := fs.Rmdir(p)
			if e := bothErr("rmdir "+p, err, ok); e != nil {
				return e
			}
			if ok {
				delete(m.dirs, p)
			}
		case 7: // rename (files only, to keep the model simple)
			src, dst := anyFile(), anyFile()
			sf := m.files[src]
			ok := sf != nil
			err := fs.Rename(src, dst)
			if e := bothErr(fmt.Sprintf("rename %s %s", src, dst), err, ok); e != nil {
				return e
			}
			if ok && src != dst { // a self-rename changes nothing
				m.files[dst] = sf
				delete(m.files, src)
			}
		case 8: // stat + verify size
			p := pick()
			f := m.files[p]
			isDir := m.dirs[p]
			fi, err := fs.Stat(p)
			ok := f != nil || isDir
			if e := bothErr("stat "+p, err, ok); e != nil {
				return e
			}
			if f != nil && f.symlink == "" && fi.Size != int64(len(f.data)) {
				return diverge("stat %s: size %d, want %d", p, fi.Size, len(f.data))
			}
		case 9: // readdir + verify names
			p := "/"
			if rng.Intn(2) == 0 {
				p = anyDir()
			}
			ents, err := fs.ReadDir(p)
			ok := m.dirs[p]
			if e := bothErr("readdir "+p, err, ok); e != nil {
				return e
			}
			if ok {
				got := make([]string, 0, len(ents))
				for _, e := range ents {
					got = append(got, e.Name)
				}
				want := m.list(p)
				sort.Strings(got)
				sort.Strings(want)
				if strings.Join(got, ",") != strings.Join(want, ",") {
					return diverge("readdir %s: got %v, want %v", p, got, want)
				}
			}
		case 10: // sync or fsync
			if rng.Intn(2) == 0 {
				if err := fs.Sync(); err != nil {
					return fmt.Errorf("sync: %w", err)
				}
			} else {
				p := pick()
				err := fs.Fsync(p)
				if e := bothErr("fsync "+p, err, m.exists(p)); e != nil {
					return e
				}
			}
		case 11: // chmod/utimes on an existing file
			p := pick()
			ok := m.exists(p)
			err := fs.Chmod(p, uint16(rng.Intn(0o777)))
			if e := bothErr("chmod "+p, err, ok); e != nil {
				return e
			}
		}
	}
	return Verify(fs, m)
}

func (m *model) exists(p string) bool { return m.files[p] != nil || m.dirs[p] }

func (m *model) emptyDir(p string) bool {
	prefix := p + "/"
	for f := range m.files {
		if strings.HasPrefix(f, prefix) {
			return false
		}
	}
	for d := range m.dirs {
		if d != p && strings.HasPrefix(d, prefix) {
			return false
		}
	}
	return true
}

// list returns the model's direct children of dir.
func (m *model) list(dir string) []string {
	prefix := dir + "/"
	if dir == "/" {
		prefix = "/"
	}
	var out []string
	add := func(p string) {
		if !strings.HasPrefix(p, prefix) {
			return
		}
		rest := p[len(prefix):]
		if rest != "" && !strings.Contains(rest, "/") {
			out = append(out, rest)
		}
	}
	for f := range m.files {
		add(f)
	}
	for d := range m.dirs {
		if d != "/" {
			add(d)
		}
	}
	return out
}

// Verify checks every model file's contents against the file system.
func Verify(fs vfs.FileSystem, m *model) error {
	for p, f := range m.files {
		if f.symlink != "" {
			continue
		}
		buf := make([]byte, len(f.data))
		n, err := fs.Read(p, 0, buf)
		if err != nil {
			return diverge("final read %s: %v", p, err)
		}
		if n != len(f.data) || !bytes.Equal(buf[:n], f.data) {
			return diverge("final content of %s differs (%d vs %d bytes)", p, n, len(f.data))
		}
	}
	return nil
}
