package ext3

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// newTestFS formats a fresh simulated disk and mounts an instance with the
// given options.
func newTestFS(t *testing.T, opts Options) (*FS, *disk.Disk) {
	t.Helper()
	d, err := disk.New(8192, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatalf("disk.New: %v", err)
	}
	if err := Mkfs(d, opts); err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	fs := New(d, opts, iron.NewRecorder())
	if err := fs.Mount(); err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return fs, d
}

func TestMkfsMount(t *testing.T) {
	for _, opts := range []Options{{}, AllIron()} {
		fs, _ := newTestFS(t, opts)
		st, err := fs.Statfs()
		if err != nil {
			t.Fatalf("Statfs: %v", err)
		}
		if st.TotalBlocks != 8192 {
			t.Errorf("TotalBlocks = %d, want 8192", st.TotalBlocks)
		}
		if st.FreeBlocks <= 0 || st.FreeInodes <= 0 {
			t.Errorf("no free space reported: %+v", st)
		}
		if err := fs.Unmount(); err != nil {
			t.Fatalf("Unmount: %v", err)
		}
	}
}

func TestCreateWriteRead(t *testing.T) {
	for _, opts := range []Options{{}, AllIron()} {
		t.Run(fmt.Sprintf("iron=%v", opts != Options{}), func(t *testing.T) {
			fs, _ := newTestFS(t, opts)
			if err := fs.Create("/hello.txt", 0o644); err != nil {
				t.Fatalf("Create: %v", err)
			}
			msg := []byte("hello, iron world")
			if n, err := fs.Write("/hello.txt", 0, msg); err != nil || n != len(msg) {
				t.Fatalf("Write = %d, %v", n, err)
			}
			buf := make([]byte, len(msg))
			if n, err := fs.Read("/hello.txt", 0, buf); err != nil || n != len(msg) {
				t.Fatalf("Read = %d, %v", n, err)
			}
			if !bytes.Equal(buf, msg) {
				t.Fatalf("read %q, want %q", buf, msg)
			}
			fi, err := fs.Stat("/hello.txt")
			if err != nil {
				t.Fatalf("Stat: %v", err)
			}
			if fi.Size != int64(len(msg)) || fi.Type != vfs.TypeRegular {
				t.Fatalf("Stat = %+v", fi)
			}
		})
	}
}

func TestPersistenceAcrossRemount(t *testing.T) {
	for _, opts := range []Options{{}, AllIron()} {
		fs, d := newTestFS(t, opts)
		if err := fs.Mkdir("/dir", 0o755); err != nil {
			t.Fatalf("Mkdir: %v", err)
		}
		if err := fs.Create("/dir/f", 0o644); err != nil {
			t.Fatalf("Create: %v", err)
		}
		data := bytes.Repeat([]byte("abc"), 5000) // spans several blocks
		if _, err := fs.Write("/dir/f", 0, data); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := fs.Unmount(); err != nil {
			t.Fatalf("Unmount: %v", err)
		}

		fs2 := New(d, opts, nil)
		if err := fs2.Mount(); err != nil {
			t.Fatalf("re-Mount: %v", err)
		}
		buf := make([]byte, len(data))
		if n, err := fs2.Read("/dir/f", 0, buf); err != nil || n != len(data) {
			t.Fatalf("Read = %d, %v", n, err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatal("data differs after remount")
		}
	}
}

func TestLargeFileIndirect(t *testing.T) {
	fs, _ := newTestFS(t, Options{})
	if err := fs.Create("/big", 0o644); err != nil {
		t.Fatalf("Create: %v", err)
	}
	// 600 blocks: exercises direct, single- and double-indirect tiers.
	const nb = 600
	blk := make([]byte, BlockSize)
	for i := 0; i < nb; i++ {
		for j := range blk {
			blk[j] = byte(i)
		}
		if _, err := fs.Write("/big", int64(i)*BlockSize, blk); err != nil {
			t.Fatalf("Write block %d: %v", i, err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	for _, i := range []int{0, 11, 12, 500, 523, 524, nb - 1} {
		got := make([]byte, BlockSize)
		if _, err := fs.Read("/big", int64(i)*BlockSize, got); err != nil {
			t.Fatalf("Read block %d: %v", i, err)
		}
		if got[0] != byte(i) || got[BlockSize-1] != byte(i) {
			t.Fatalf("block %d content wrong: %d", i, got[0])
		}
	}
	// Shrink across the indirect boundary and verify space comes back.
	before, _ := fs.Statfs()
	if err := fs.Truncate("/big", 5*BlockSize); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	after, _ := fs.Statfs()
	if after.FreeBlocks <= before.FreeBlocks {
		t.Errorf("truncate freed nothing: %d -> %d", before.FreeBlocks, after.FreeBlocks)
	}
	fi, _ := fs.Stat("/big")
	if fi.Size != 5*BlockSize {
		t.Errorf("size after truncate = %d", fi.Size)
	}
}

func TestDirOps(t *testing.T) {
	fs, _ := newTestFS(t, Options{})
	dirs := []string{"/a", "/a/b", "/a/b/c"}
	for _, d := range dirs {
		if err := fs.Mkdir(d, 0o755); err != nil {
			t.Fatalf("Mkdir %s: %v", d, err)
		}
	}
	for i := 0; i < 40; i++ {
		if err := fs.Create(fmt.Sprintf("/a/b/f%02d", i), 0o644); err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
	}
	ents, err := fs.ReadDir("/a/b")
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(ents) != 41 { // 40 files + subdir c
		t.Fatalf("ReadDir = %d entries, want 41", len(ents))
	}
	if err := fs.Rmdir("/a/b"); !errors.Is(err, vfs.ErrNotEmpty) {
		t.Fatalf("Rmdir non-empty = %v, want ErrNotEmpty", err)
	}
	for i := 0; i < 40; i++ {
		if err := fs.Unlink(fmt.Sprintf("/a/b/f%02d", i)); err != nil {
			t.Fatalf("Unlink %d: %v", i, err)
		}
	}
	if err := fs.Rmdir("/a/b/c"); err != nil {
		t.Fatalf("Rmdir c: %v", err)
	}
	if err := fs.Rmdir("/a/b"); err != nil {
		t.Fatalf("Rmdir b: %v", err)
	}
	if err := fs.Access("/a/b"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("Access removed dir = %v", err)
	}
}

func TestLinkRenameSymlink(t *testing.T) {
	fs, _ := newTestFS(t, Options{})
	if err := fs.Create("/f1", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/f1", 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Link("/f1", "/f2"); err != nil {
		t.Fatalf("Link: %v", err)
	}
	fi, _ := fs.Stat("/f1")
	if fi.Links != 2 {
		t.Fatalf("links = %d, want 2", fi.Links)
	}
	if err := fs.Unlink("/f1"); err != nil {
		t.Fatalf("Unlink: %v", err)
	}
	buf := make([]byte, 7)
	if _, err := fs.Read("/f2", 0, buf); err != nil || string(buf) != "payload" {
		t.Fatalf("Read via second link: %q, %v", buf, err)
	}
	if err := fs.Rename("/f2", "/f3"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if err := fs.Access("/f2"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("old name still present: %v", err)
	}
	if err := fs.Symlink("/f3", "/ln"); err != nil {
		t.Fatalf("Symlink: %v", err)
	}
	if tgt, err := fs.Readlink("/ln"); err != nil || tgt != "/f3" {
		t.Fatalf("Readlink = %q, %v", tgt, err)
	}
	if _, err := fs.Read("/ln", 0, buf); err != nil || string(buf) != "payload" {
		t.Fatalf("Read through symlink: %q, %v", buf, err)
	}
	li, err := fs.Lstat("/ln")
	if err != nil || li.Type != vfs.TypeSymlink {
		t.Fatalf("Lstat = %+v, %v", li, err)
	}
}

func TestJournalReplayAfterCrash(t *testing.T) {
	d, err := disk.New(8192, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(d, Options{}); err != nil {
		t.Fatal(err)
	}
	fs := New(d, Options{}, nil)
	if err := fs.Mount(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/durable", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/durable", 0, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	// Sync commits the transaction to the journal (checkpoint is lazy);
	// then we simply abandon the FS instance without unmounting — a crash.
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	fs2 := New(d, Options{}, nil)
	if err := fs2.Mount(); err != nil {
		t.Fatalf("recovery mount: %v", err)
	}
	buf := make([]byte, 9)
	if _, err := fs2.Read("/durable", 0, buf); err != nil || string(buf) != "committed" {
		t.Fatalf("after replay: %q, %v", buf, err)
	}
}

// TestReplayRefreshesGroupDescriptors: Mount decodes the group descriptors
// before it replays the journal. When the replay brings their block home,
// the mounted volume must allocate from the replayed free counts, not the
// stale ones read first: the next descriptor write would put those on disk
// under bitmaps that disagree with them.
func TestReplayRefreshesGroupDescriptors(t *testing.T) {
	for _, v := range []struct {
		name string
		opts Options
	}{{"ext3", Options{}}, {"ixt3", AllIron()}} {
		opts := v.opts
		fs, d := newTestFS(t, opts)
		stale := rawBlock(t, d, gdtBlock)
		if err := fs.Create("/a", 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Write("/a", 0, bytes.Repeat([]byte("a"), 3*BlockSize)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Fsync("/a"); err != nil { // commits; the checkpoint is lazy
			t.Fatal(err)
		}
		if !bytes.Equal(rawBlock(t, d, gdtBlock), stale) {
			t.Fatal("the commit checkpointed the descriptors: nothing left to replay")
		}

		crashed := New(d, opts, nil)
		if err := crashed.Mount(); err != nil {
			t.Fatalf("recovery mount: %v", err)
		}
		home := rawBlock(t, d, gdtBlock)
		if bytes.Equal(home, stale) {
			t.Fatal("replay did not bring the descriptors home")
		}
		freeInodes := func(img []byte) (n uint32) {
			for g := range crashed.gds {
				var gd groupDesc
				gd.unmarshal(img[g*gdEncodedLen:])
				n += gd.FreeInodes
			}
			return n
		}
		for g := range crashed.gds {
			var want groupDesc
			want.unmarshal(home[g*gdEncodedLen:])
			if crashed.gds[g] != want {
				t.Fatalf("%s: group %d mounted as %+v, replayed %+v", v.name, g, crashed.gds[g], want)
			}
		}
		// The next descriptor write counts down from the replayed image.
		if err := crashed.Create("/b", 0o644); err != nil {
			t.Fatal(err)
		}
		if err := crashed.Sync(); err != nil {
			t.Fatal(err)
		}
		if got, want := freeInodes(rawBlock(t, d, gdtBlock)), freeInodes(home)-1; got != want {
			t.Fatalf("%s: one create after replay left %d inodes free, want %d", v.name, got, want)
		}
	}
}
