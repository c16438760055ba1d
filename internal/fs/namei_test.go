package fs

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"ironfs/internal/fs/ext3"
	"ironfs/internal/fs/jfs"
	"ironfs/internal/fs/ntfs"
	"ironfs/internal/vfs"
)

// errName renders an error as the vfs sentinel it wraps.
func errName(err error) string {
	for name, sentinel := range map[string]error{
		"ErrInval": vfs.ErrInval, "ErrNotExist": vfs.ErrNotExist, "ErrExist": vfs.ErrExist,
		"ErrNotDir": vfs.ErrNotDir, "ErrNotMounted": vfs.ErrNotMounted, "ErrIsDir": vfs.ErrIsDir,
		"ErrNotEmpty": vfs.ErrNotEmpty,
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

// readLine renders what reading n bytes of path at off returned: the
// count, the error and the bytes, each run of zeros folded to <0*k>.
func readLine(fsys vfs.FileSystem, path string, off int64, n int) string {
	buf := make([]byte, n)
	got, err := fsys.Read(path, off, buf)
	var b strings.Builder
	for i := 0; i < got; {
		if buf[i] != 0 {
			b.WriteByte(buf[i])
			i++
			continue
		}
		j := i
		for j < got && buf[j] == 0 {
			j++
		}
		fmt.Fprintf(&b, "<0*%d>", j-i)
		i = j
	}
	return fmt.Sprintf("%d %s %s", got, errName(err), b.String())
}

// sizeLine renders the size stat reports for path.
func sizeLine(fsys vfs.FileSystem, path string) string {
	fi, err := fsys.Stat(path)
	if err != nil {
		return errName(err)
	}
	return fmt.Sprintf("size=%d", fi.Size)
}

// stampLine renders whether reading path at off moved its atime.
func stampLine(fsys vfs.FileSystem, path string, off int64) string {
	before, _ := fsys.Stat(path)
	_, err := fsys.Read(path, off, make([]byte, 10))
	after, _ := fsys.Stat(path)
	return fmt.Sprintf("%s stamped=%v", errName(err), after.Atime > before.Atime)
}

// fileLimits is each capped format's largest file in bytes: its block map's
// reach. ReiserFS's items map any offset.
var fileLimits = map[string]int64{
	"ext3": ext3.MaxFileSize, "ixt3": ext3.MaxFileSize, "jfs": jfs.MaxFileSize, "ntfs": ntfs.MaxFileSize,
}

// TestNamespaceConformance is the black-box contract of the shared
// namespace layer (internal/namei), run over every registered file system:
// the path walk and the namespace operations are one piece of code, so
// what they promise is stated once and required of all five alike. The ntfs half of the "type bits" rows failed before the layer
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
		{"Unlink of a directory", func(f vfs.FileSystem) string { return errName(f.Unlink("/dir")) }, "ErrIsDir"},
		{"Rmdir of a file", func(f vfs.FileSystem) string { return errName(f.Rmdir("/file")) }, "ErrNotDir"},
		{"Rmdir of a non-empty directory", func(f vfs.FileSystem) string { return errName(f.Rmdir("/dir")) }, "ErrNotEmpty"},
		{"Link of a directory", func(f vfs.FileSystem) string { return errName(f.Link("/dir", "/dirlink")) }, "ErrIsDir"},
		{"Link over an existing name", func(f vfs.FileSystem) string { return errName(f.Link("/file", "/dir/file")) }, "ErrExist"},
		{"Link adds a name", func(f vfs.FileSystem) string {
			err := f.Link("/l1", "/l1b")
			fi, _ := f.Lstat("/l1b")
			return errName(err) + " " + lstat(f, "/l1b", "/l1")[:len("symlink")] + fmt.Sprintf(" links=%d", fi.Links)
		}, "ok symlink links=2"},
		{"Unlink drops one name", func(f vfs.FileSystem) string {
			err := f.Unlink("/l1b")
			fi, _ := f.Lstat("/l1")
			return errName(err) + " " + lstat(f, "/l1b", "/l1") + fmt.Sprintf(" links=%d", fi.Links)
		}, "ok ErrNotExist links=1"},
		{"Rename over a non-empty directory", func(f vfs.FileSystem) string {
			return errName(f.Rename("/typeddir", "/dir")) + " " + errName(f.Open("/typeddir")) + " " + errName(f.Open("/dir/file"))
		}, "ErrNotEmpty ok ok"},
		{"Rename over a file replaces it", func(f vfs.FileSystem) string {
			if err := f.Create("/ra", 0o600); err != nil {
				return errName(err)
			}
			if err := f.Create("/rb", 0o644); err != nil {
				return errName(err)
			}
			ra, _ := f.Stat("/ra")
			err := f.Rename("/ra", "/rb")
			fi, serr := f.Stat("/rb")
			return errName(err) + " " + errName(f.Access("/ra")) + " " + errName(serr) + fmt.Sprintf(" mode=%o same=%v", fi.Mode, fi.Ino == ra.Ino)
		}, "ok ErrNotExist ok mode=600 same=true"},
		{"Rename within a directory", func(f vfs.FileSystem) string {
			if err := f.Create("/dir/s1", 0o600); err != nil {
				return errName(err)
			}
			err := f.Rename("/dir/s1", "/dir/s2")
			ents, _ := f.ReadDir("/dir")
			var names []string
			for _, e := range ents {
				names = append(names, e.Name)
			}
			sort.Strings(names)
			return errName(err) + " " + errName(f.Open("/dir/s1")) + " " + strings.Join(names, " ")
		}, "ok ErrNotExist file new s2 sub"},
		{"Rmdir of an empty directory", func(f vfs.FileSystem) string {
			return errName(f.Rmdir("/typeddir")) + " " + errName(f.Open("/typeddir"))
		}, "ok ErrNotExist"},
		{"Symlink with an empty target", func(f vfs.FileSystem) string {
			return errName(f.Symlink("", "/empty")) + " " + errName(f.Access("/empty"))
		}, "ErrInval ErrNotExist"},
		{"Symlink with an over-long target", func(f vfs.FileSystem) string {
			return errName(f.Symlink("/"+strings.Repeat("a", 4096), "/long")) + " " + errName(f.Access("/long"))
		}, "ErrInval ErrNotExist"},
		{"Rename of a file to itself", func(f vfs.FileSystem) string {
			before, _ := f.Stat("/file")
			err := f.Rename("/file", "/file")
			after, serr := f.Stat("/file")
			return fmt.Sprintf("%s %s same=%v", errName(err), errName(serr), after.Ino == before.Ino)
		}, "ok ok same=true"},
		{"Rename of an empty directory to itself", func(f vfs.FileSystem) string {
			if err := f.Mkdir("/self", 0o700); err != nil {
				return errName(err)
			}
			err := f.Rename("/self", "/self")
			fi, serr := f.Stat("/self")
			return fmt.Sprintf("%s %s %v", errName(err), errName(serr), fi.Type)
		}, "ok ok dir"},
		{"Rename of a directory beneath itself", func(f vfs.FileSystem) string {
			if err := f.Mkdir("/a", 0o755); err != nil {
				return errName(err)
			}
			if err := f.Mkdir("/a/b", 0o755); err != nil {
				return errName(err)
			}
			if err := f.Symlink("/a/b", "/ab"); err != nil {
				return errName(err)
			}
			return errName(f.Rename("/a", "/a/b/x")) + " " + errName(f.Rename("/a", "/a/x")) + " " +
				errName(f.Rename("/a", "/ab/x")) + " " + errName(f.Open("/a/b")) + " " + errName(f.Open("/ab"))
		}, "ErrInval ErrInval ErrInval ok ok"},
		{"ReadDir of a file", func(f vfs.FileSystem) string { _, err := f.ReadDir("/file"); return errName(err) }, "ErrNotDir"},
		{"ReadDir through a link", func(f vfs.FileSystem) string {
			ents, err := f.ReadDir("/dlink")
			return fmt.Sprintf("%s %d", errName(err), len(ents))
		}, ""},
		{"Read, Write and Truncate of a directory", func(f vfs.FileSystem) string {
			_, rerr := f.Read("/dir", 0, make([]byte, 1))
			_, werr := f.Write("/dir", 0, []byte("x"))
			return errName(rerr) + " " + errName(werr) + " " + errName(f.Truncate("/dlink", 0))
		}, "ErrIsDir ErrIsDir ErrIsDir"},
		{"negative offset or size", func(f vfs.FileSystem) string {
			_, rerr := f.Read("/file", -1, make([]byte, 1))
			_, werr := f.Write("/file", -1, []byte("x"))
			return errName(rerr) + " " + errName(werr) + " " + errName(f.Truncate("/file", -1))
		}, "ErrInval ErrInval ErrInval"},
		{"a hole reads as zeros", func(f vfs.FileSystem) string {
			// A small file (a ReiserFS tail) and one past a block.
			out := ""
			for _, c := range []struct {
				path string
				off  int64
			}{{"/small", 100}, {"/sparse", 10000}} {
				if err := f.Create(c.path, 0o644); err != nil {
					return errName(err)
				}
				if _, err := f.Write(c.path, c.off, []byte("x")); err != nil {
					return errName(err)
				}
				out += readLine(f, c.path, 0, int(c.off)+100) + " "
			}
			return out
		}, "101 ok <0*100>x 10001 ok <0*10000>x "},
		{"a read past EOF returns 0", func(f vfs.FileSystem) string {
			return readLine(f, "/sparse", 10001, 10) + " " + readLine(f, "/sparse", 20000, 10) + " " + readLine(f, "/small", 101, 10)
		}, "0 ok  0 ok  0 ok "},
		{"Write past EOF sets the size", func(f vfs.FileSystem) string {
			_, err := f.Write("/sparse", 12000, []byte("y"))
			return errName(err) + " " + sizeLine(f, "/sparse") + " " + readLine(f, "/sparse", 9999, 3) + " " + readLine(f, "/sparse", 11999, 3)
		}, "ok size=12001 3 ok <0*1>x<0*1> 2 ok <0*1>y"},
		{"Truncate sets the size", func(f vfs.FileSystem) string {
			// The cut bytes of the new last block read as zeros when the
			// file grows again.
			return errName(f.Truncate("/sparse", 10000)) + " " + sizeLine(f, "/sparse") + " " +
				errName(f.Truncate("/sparse", 10001)) + " " + sizeLine(f, "/sparse") + " " + readLine(f, "/sparse", 9999, 3) + " " +
				errName(f.Truncate("/small", 50)) + " " + sizeLine(f, "/small") + " " + readLine(f, "/small", 0, 100)
		}, "ok size=10000 ok size=10001 2 ok <0*2> ok size=50 50 ok <0*50>"},
		{"a truncate-grown small file reads as zeros past its data", func(f vfs.FileSystem) string {
			_, err := f.Write("/small", 0, []byte("ab"))
			return errName(err) + " " + errName(f.Truncate("/small", 2)) + " " + errName(f.Truncate("/small", 101)) + " " +
				readLine(f, "/small", 0, 200) + " " + readLine(f, "/small", 100, 10) + " " +
				errName(f.Truncate("/small", 50)) + " " + readLine(f, "/small", 0, 200)
		}, "ok ok ok 101 ok ab<0*99> 1 ok <0*1> ok 50 ok ab<0*48>"},
		{"a read stamps atime, from a small file too", func(f vfs.FileSystem) string {
			return stampLine(f, "/small", 0) + " " + stampLine(f, "/sparse", 0)
		}, "ok stamped=true ok stamped=true"},
		{"a read at or past EOF stamps atime", func(f vfs.FileSystem) string {
			return stampLine(f, "/small", 101) + " " + stampLine(f, "/sparse", 10001) + " " + stampLine(f, "/sparse", 20000)
		}, "ok stamped=true ok stamped=true ok stamped=true"},
		{"Rename of a file over an empty directory", func(f vfs.FileSystem) string {
			if err := f.Mkdir("/rd", 0o755); err != nil {
				return errName(err)
			}
			if err := f.Create("/rf", 0o644); err != nil {
				return errName(err)
			}
			return errName(f.Rename("/rf", "/rd")) + " " + stat(f, "/rf", "/rf")[:len("file")] + " " + stat(f, "/rd", "/rd")[:len("dir")]
		}, "ErrIsDir file dir"},
		{"Rename of a directory over a file", func(f vfs.FileSystem) string {
			return errName(f.Rename("/rd", "/rf")) + " " + stat(f, "/rf", "/rf")[:len("file")] + " " + stat(f, "/rd", "/rd")[:len("dir")]
		}, "ErrNotDir file dir"},
		{"a write into a hole reads zeros around it, also in a reused block", func(f vfs.FileSystem) string {
			// The freed block comes back for the hole below EOF; what it
			// held must not show through.
			if err := f.Create("/used", 0o644); err != nil {
				return errName(err)
			}
			if _, err := f.Write("/used", 0, bytes.Repeat([]byte{'u'}, 4096)); err != nil {
				return errName(err)
			}
			if err := f.Sync(); err != nil {
				return errName(err)
			}
			if err := f.Unlink("/used"); err != nil {
				return errName(err)
			}
			if err := f.Sync(); err != nil {
				return errName(err)
			}
			if err := f.Create("/holey", 0o644); err != nil {
				return errName(err)
			}
			if err := f.Truncate("/holey", 3000); err != nil {
				return errName(err)
			}
			_, err := f.Write("/holey", 0, []byte("x"))
			return errName(err) + " " + readLine(f, "/holey", 0, 3000)
		}, "ok 3000 ok x<0*2999>"},
		{"a file cut back to tail size keeps its data when it grows", func(f vfs.FileSystem) string {
			if err := f.Create("/cut", 0o644); err != nil {
				return errName(err)
			}
			if _, err := f.Write("/cut", 0, bytes.Repeat([]byte{'c'}, 5000)); err != nil {
				return errName(err)
			}
			if err := f.Truncate("/cut", 700); err != nil {
				return errName(err)
			}
			_, err := f.Write("/cut", 700, []byte("x"))
			return errName(err) + " " + readLine(f, "/cut", 0, 800)
		}, "ok 701 ok " + strings.Repeat("c", 700) + "x"},
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

			// The format's size limit: a write or truncate up to it
			// succeeds, one byte past it is refused. ReiserFS has none,
			// and is probed past the largest of the others.
			limit, capped := fileLimits[name]
			want := "ok size=%d ErrInval ErrInval ok"
			if !capped {
				limit, want = ext3.MaxFileSize, "ok size=%d ok ok ok"
			}
			if err := fsys.Create("/big", 0o644); err != nil {
				t.Fatal(err)
			}
			_, werr := fsys.Write("/big", limit-1, []byte("x"))
			size := sizeLine(fsys, "/big")
			_, perr := fsys.Write("/big", limit, []byte("x"))
			got := fmt.Sprintf("%s %s %s %s %s", errName(werr), size, errName(perr), errName(fsys.Truncate("/big", limit+1)), errName(fsys.Truncate("/big", 0)))
			if want = fmt.Sprintf(want, limit); got != want {
				t.Errorf("size limit: got %q, want %q", got, want)
			}

			// Every shared operation refuses an unmounted volume.
			if err := fsys.Unmount(); err != nil {
				t.Fatal(err)
			}
			_, serr := fsys.Stat("/file")
			_, lerr := fsys.Lstat("/file")
			_, rerr := fsys.Readlink("/l1")
			_, derr := fsys.ReadDir("/dir")
			_, rderr := fsys.Read("/file", 0, make([]byte, 1))
			_, wrerr := fsys.Write("/file", 0, []byte("x"))
			for op, err := range map[string]error{
				"Read": rderr, "Write": wrerr, "Truncate": fsys.Truncate("/file", 0),
				"Open": fsys.Open("/file"), "Access": fsys.Access("/file"), "Stat": serr, "Lstat": lerr,
				"Readlink": rerr, "Fsync": fsys.Fsync("/file"), "Sync": fsys.Sync(),
				"Chmod": fsys.Chmod("/file", 0o600), "Chown": fsys.Chown("/file", 1, 1),
				"Utimes": fsys.Utimes("/file", 1, 1), "Create": fsys.Create("/x", 0o600), "Mkdir": fsys.Mkdir("/y", 0o700),
				"Symlink": fsys.Symlink("/file", "/z"), "ReadDir": derr, "Unlink": fsys.Unlink("/file"),
				"Rmdir": fsys.Rmdir("/dir"), "Link": fsys.Link("/file", "/w"), "Rename": fsys.Rename("/file", "/v"),
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
