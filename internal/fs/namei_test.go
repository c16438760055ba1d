package fs

import (
	"errors"
	"fmt"
	"testing"

	"ironfs/internal/vfs"
)

// errName renders an error as the vfs sentinel it wraps.
func errName(err error) string {
	for name, sentinel := range map[string]error{
		"ErrInval": vfs.ErrInval, "ErrNotExist": vfs.ErrNotExist, "ErrExist": vfs.ErrExist,
		"ErrNotDir": vfs.ErrNotDir, "ErrNotMounted": vfs.ErrNotMounted,
	} {
		if errors.Is(err, sentinel) {
			return name
		}
	}
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// statLine renders what a stat call returned, with the inode number
// replaced by whether it is `same`'s — numbers differ between file systems,
// identities do not.
func statLine(fi vfs.FileInfo, err error, same vfs.FileInfo) string {
	if err != nil {
		return errName(err)
	}
	return fmt.Sprintf("%v mode=%o uid=%d gid=%d atime=%d mtime=%d same=%v",
		fi.Type, fi.Mode, fi.UID, fi.GID, fi.Atime, fi.Mtime, fi.Ino == same.Ino)
}

// TestNamespaceConformance is the black-box contract of the shared
// namespace layer (internal/namei), run over every registered file system:
// the path walk and the lookup and attribute operations are one piece of
// code, so what they promise is stated once and required of all five
// alike. The ntfs half of the "type bits" rows failed before the layer
// existed: ntfs stored and returned whatever mode bits the caller passed.
func TestNamespaceConformance(t *testing.T) {
	// The fixture every probe runs against, in order:
	//   /file  /dir/  /dir/file  /dlink → /dir  /dangle → /nowhere
	//   /loop → /loop  /l1 → /file  /l2 → /l1 … /l9 → /l8
	build := func(t *testing.T, fsys vfs.FileSystem) {
		t.Helper()
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(fsys.Create("/file", 0o644))
		must(fsys.Mkdir("/dir", 0o755))
		must(fsys.Create("/dir/file", 0o640))
		must(fsys.Symlink("/dir", "/dlink"))
		must(fsys.Symlink("/nowhere", "/dangle"))
		must(fsys.Symlink("/loop", "/loop"))
		must(fsys.Symlink("/file", "/l1"))
		for i := 2; i <= 9; i++ {
			must(fsys.Symlink(fmt.Sprintf("/l%d", i-1), fmt.Sprintf("/l%d", i)))
		}
	}
	stat := func(fsys vfs.FileSystem, path, same string) string {
		ref, _ := fsys.Stat(same)
		fi, err := fsys.Stat(path)
		return statLine(fi, err, ref)
	}
	lstat := func(fsys vfs.FileSystem, path, same string) string {
		ref, _ := fsys.Stat(same)
		fi, err := fsys.Lstat(path)
		return statLine(fi, err, ref)
	}
	const fileLine = "file mode=644 uid=0 gid=0"

	probes := []struct {
		name string
		run  func(fsys vfs.FileSystem) string
		want string // "" = only required to agree across file systems
	}{
		{"chain of 8 links resolves", func(f vfs.FileSystem) string { return stat(f, "/l8", "/file")[:len(fileLine)] }, fileLine},
		{"chain of 9 links", func(f vfs.FileSystem) string { return stat(f, "/l9", "/file") }, "ErrInval"},
		{"chain of 9 links, Open", func(f vfs.FileSystem) string { return errName(f.Open("/l9")) }, "ErrInval"},
		{"self-loop", func(f vfs.FileSystem) string { return stat(f, "/loop", "/file") }, "ErrInval"},
		{"self-loop, Lstat", func(f vfs.FileSystem) string { return lstat(f, "/loop", "/file")[:len("symlink mode=777")] }, "symlink mode=777"},
		{"mid-path link followed by Stat", func(f vfs.FileSystem) string { return stat(f, "/dlink/file", "/dir/file") }, ""},
		{"mid-path link followed by Lstat", func(f vfs.FileSystem) string { return lstat(f, "/dlink/file", "/dir/file") }, ""},
		{"final link followed by Stat", func(f vfs.FileSystem) string { return stat(f, "/l1", "/file") }, ""},
		{"final link not followed by Lstat", func(f vfs.FileSystem) string { return lstat(f, "/l1", "/file") }, ""},
		{"dangling link, Stat", func(f vfs.FileSystem) string { return stat(f, "/dangle", "/file") }, "ErrNotExist"},
		{"dangling link, Access", func(f vfs.FileSystem) string { return errName(f.Access("/dangle")) }, "ErrNotExist"},
		{"dangling link, Lstat", func(f vfs.FileSystem) string { return lstat(f, "/dangle", "/file")[:len("symlink")] }, "symlink"},
		{"Readlink of a link", func(f vfs.FileSystem) string { s, err := f.Readlink("/l2"); return s + " " + errName(err) }, "/l1 ok"},
		{"Readlink of a file", func(f vfs.FileSystem) string { _, err := f.Readlink("/file"); return errName(err) }, "ErrInval"},
		{"Readlink of a directory", func(f vfs.FileSystem) string { _, err := f.Readlink("/dir"); return errName(err) }, "ErrInval"},
		{"Create over a file", func(f vfs.FileSystem) string { return errName(f.Create("/file", 0o600)) }, "ErrExist"},
		{"Create over a link", func(f vfs.FileSystem) string { return errName(f.Create("/dangle", 0o600)) }, "ErrExist"},
		{"Mkdir over a directory", func(f vfs.FileSystem) string { return errName(f.Mkdir("/dir", 0o700)) }, "ErrExist"},
		{"Create under a file", func(f vfs.FileSystem) string { return errName(f.Create("/file/x", 0o600)) }, "ErrNotDir"},
		{"Mkdir under a file", func(f vfs.FileSystem) string { return errName(f.Mkdir("/file/x", 0o700)) }, "ErrNotDir"},
		{"Create under a missing directory", func(f vfs.FileSystem) string { return errName(f.Create("/nodir/x", 0o600)) }, "ErrNotExist"},
		{"Create through a directory link", func(f vfs.FileSystem) string {
			return errName(f.Create("/dlink/new", 0o600)) + " " + stat(f, "/dir/new", "/dlink/new")[:len("file mode=600")]
		}, "ok file mode=600"},
		{"Mkdir through a directory link", func(f vfs.FileSystem) string {
			return errName(f.Mkdir("/dlink/sub", 0o711)) + " " + stat(f, "/dir/sub", "/dlink/sub")[:len("dir mode=711")]
		}, "ok dir mode=711"},
		{"Chmod through a link hits the target", func(f vfs.FileSystem) string {
			return errName(f.Chmod("/l3", 0o600)) + " " + stat(f, "/file", "/file")[:len("file mode=600")] + " " + lstat(f, "/l3", "/file")[:len("symlink mode=777")]
		}, "ok file mode=600 symlink mode=777"},
		{"Chown through a link hits the target", func(f vfs.FileSystem) string {
			return errName(f.Chown("/l3", 7, 8)) + " " + stat(f, "/file", "/file")[:len("file mode=600 uid=7 gid=8")]
		}, "ok file mode=600 uid=7 gid=8"},
		{"Utimes through a link hits the target", func(f vfs.FileSystem) string {
			return errName(f.Utimes("/l3", 11, 22)) + " " + stat(f, "/file", "/file")
		}, "ok file mode=600 uid=7 gid=8 atime=11 mtime=22 same=true"},
		{"Create drops caller type bits", func(f vfs.FileSystem) string {
			return errName(f.Create("/typed", 0o100644)) + " " + stat(f, "/typed", "/typed")[:len("file mode=644")]
		}, "ok file mode=644"},
		{"Chmod drops caller type bits", func(f vfs.FileSystem) string {
			return errName(f.Chmod("/typed", 0o170755)) + " " + stat(f, "/typed", "/typed")[:len("file mode=755")]
		}, "ok file mode=755"},
		{"Mkdir drops caller type bits", func(f vfs.FileSystem) string {
			return errName(f.Mkdir("/typeddir", 0o100700)) + " " + stat(f, "/typeddir", "/typeddir")[:len("dir mode=700")]
		}, "ok dir mode=700"},
		{"Fsync of a missing path", func(f vfs.FileSystem) string { return errName(f.Fsync("/missing")) }, "ErrNotExist"},
		{"Fsync through a link", func(f vfs.FileSystem) string { return errName(f.Fsync("/l1")) }, "ok"},
		{"relative path", func(f vfs.FileSystem) string {
			_, serr := f.Stat("file")
			return errName(serr) + " " + errName(f.Open("dir/file")) + " " + errName(f.Create("rel", 0o600)) + " " + errName(f.Chmod("file", 0o600))
		}, "ErrInval ErrInval ErrInval ErrInval"},
		{"empty path", func(f vfs.FileSystem) string {
			_, serr := f.Lstat("")
			return errName(serr) + " " + errName(f.Access("")) + " " + errName(f.Mkdir("", 0o700)) + " " + errName(f.Fsync(""))
		}, "ErrInval ErrInval ErrInval ErrInval"},
		{"the root", func(f vfs.FileSystem) string {
			_, rerr := f.Readlink("/")
			return stat(f, "/", "/")[:len("dir mode=755")] + " " + errName(f.Open("/")) + " " + errName(f.Create("/", 0o600)) + " " + errName(f.Mkdir("/", 0o700)) + " " + errName(rerr)
		}, "dir mode=755 ok ErrInval ErrInval ErrInval"},
		{"dot-dot is lexical", func(f vfs.FileSystem) string {
			return stat(f, "/dir/../file", "/file")[len("file mode=600 uid=7 gid=8 atime=11 mtime=22 "):] + " " +
				stat(f, "/../..", "/")[:len("dir")] + " " + stat(f, "/dlink/../file", "/file")[len("file mode=600 uid=7 gid=8 atime=11 mtime=22 "):]
		}, "same=true dir same=true"},
	}

	transcripts := map[string][]string{}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			fsys, _ := mountFresh(t, name, nil)
			build(t, fsys)
			for _, p := range probes {
				got := p.run(fsys)
				if p.want != "" && got != p.want {
					t.Errorf("%s: got %q, want %q", p.name, got, p.want)
				}
				transcripts[name] = append(transcripts[name], got)
			}

			// Every shared operation refuses an unmounted volume.
			if err := fsys.Unmount(); err != nil {
				t.Fatal(err)
			}
			_, serr := fsys.Stat("/file")
			_, lerr := fsys.Lstat("/file")
			_, rerr := fsys.Readlink("/l1")
			for op, err := range map[string]error{
				"Open": fsys.Open("/file"), "Access": fsys.Access("/file"), "Stat": serr, "Lstat": lerr,
				"Readlink": rerr, "Fsync": fsys.Fsync("/file"), "Sync": fsys.Sync(),
				"Chmod": fsys.Chmod("/file", 0o600), "Chown": fsys.Chown("/file", 1, 1),
				"Utimes": fsys.Utimes("/file", 1, 1), "Create": fsys.Create("/x", 0o600), "Mkdir": fsys.Mkdir("/y", 0o700),
			} {
				if !errors.Is(err, vfs.ErrNotMounted) {
					t.Errorf("%s after Unmount: %v, want ErrNotMounted", op, err)
				}
			}
		})
	}
	ref := Names()[0]
	for _, name := range Names()[1:] {
		for i, p := range probes {
			if i < len(transcripts[name]) && i < len(transcripts[ref]) && transcripts[name][i] != transcripts[ref][i] {
				t.Errorf("%s: %s answers %q, %s answers %q", p.name, name, transcripts[name][i], ref, transcripts[ref][i])
			}
		}
	}
}
