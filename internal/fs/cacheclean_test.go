package fs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ironfs/internal/bcache"
	"ironfs/internal/disk"
	"ironfs/internal/vfs"
)

// readFailDev fails every block read from the from'th one on, while from
// is set: a sticky fault on whatever an operation reads at that point, its
// retries included.
type readFailDev struct {
	disk.Device
	from, reads int
}

var errInjectedRead = errors.New("injected read fault")

func (d *readFailDev) ReadBlock(n int64, buf []byte) error {
	if d.from > 0 {
		d.reads++
		if d.reads >= d.from {
			return errInjectedRead
		}
	}
	return d.Device.ReadBlock(n, buf)
}

// TestFailedOpLeavesCleanCacheAsMedia: jfs, ntfs and reiserfs edit the
// cached buffer of a block and stage that same buffer, so an edit must
// come after the last step of its operation that can fail. An operation
// that fails part-way may have staged some of its edits, which the next
// commit carries, but it leaves no clean cached block that differs from
// the media: after a Sync, every resident block reads as the disk does.
// Each operation runs on a cold cache and fails at its second block read,
// and then at each later one in turn.
func TestFailedOpLeavesCleanCacheAsMedia(t *testing.T) {
	ops := []struct {
		name string
		do   func(vfs.FileSystem) error
	}{
		{"create", func(f vfs.FileSystem) error { return f.Create("/d/new", 0o644) }},
		{"mkdir", func(f vfs.FileSystem) error { return f.Mkdir("/d/sub", 0o755) }},
		{"partial write", func(f vfs.FileSystem) error {
			_, err := f.Write("/d/f1", 100, []byte("patched"))
			return err
		}},
		{"extending write", func(f vfs.FileSystem) error {
			_, err := f.Write("/big", 20*txnBlock, txnPayload(0x5A, 2))
			return err
		}},
		// Cut inside the run past the direct pointers: the extension
		// block's pointers are freed, then cleared.
		{"truncate", func(f vfs.FileSystem) error { return f.Truncate("/big", 15*txnBlock+100) }},
		{"unlink", func(f vfs.FileSystem) error { return f.Unlink("/d/f2") }},
		{"rename", func(f vfs.FileSystem) error { return f.Rename("/d/f3", "/d/f9") }},
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			if name == "ext3" || name == "ixt3" {
				t.Skip("ext3 aborts its journal at a failed metadata read, so nothing commits after one")
			}
			img := cacheFixture(t, name)
			for _, op := range ops {
				t.Run(op.name, func(t *testing.T) {
					checked := 0
					for from := 2; ; from++ {
						raw, dev, fsys := mountImage(t, name, img)
						dev.from = from
						opErr := op.do(fsys)
						reads := dev.reads
						dev.from = 0
						if reads < from {
							break // the operation read fewer blocks than that
						}
						if err := fsys.Sync(); err != nil {
							continue // the failure stopped the volume: nothing more commits
						}
						checked++
						cache := fsys.(interface{ BlockCache() *bcache.Cache }).BlockCache()
						media := make([]byte, txnBlock)
						for blk := int64(0); blk < raw.NumBlocks(); blk++ {
							if !cache.Resident(blk) {
								continue
							}
							if err := raw.ReadRaw(blk, media); err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(cache.Get(blk), media) {
								t.Errorf("failing from read %d (%v): cached block %d differs from the media after a sync", from, opErr, blk)
							}
						}
					}
					if checked == 0 {
						t.Errorf("no failing run of %s left the volume able to commit", op.name)
					}
				})
			}
		})
	}
}

// cacheFixture is a synced image holding /d with three one-block files
// among 60 empty ones, enough to give ReiserFS's tree a second level, and
// /big, which maps blocks past every file system's direct pointers.
func cacheFixture(t *testing.T, name string) []byte {
	t.Helper()
	raw, _, fsys := mountImage(t, name, nil)
	if err := fsys.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := range 60 {
		if err := fsys.Create(fmt.Sprintf("/d/e%02d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range []string{"/d/f1", "/d/f2", "/d/f3"} {
		writeFile(t, fsys, p, txnPayload(byte(i), 1))
	}
	writeFile(t, fsys, "/big", txnPayload(0xB0, 20))
	if err := fsys.Unmount(); err != nil {
		t.Fatal(err)
	}
	return raw.Snapshot()
}

// mountImage mounts name over a fresh disk holding img, or a freshly made
// file system when img is nil.
func mountImage(t *testing.T, name string, img []byte) (*disk.Disk, *readFailDev, vfs.FileSystem) {
	t.Helper()
	raw, err := disk.New(4096, disk.DefaultGeometry(), disk.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if img == nil {
		err = Mkfs(name, raw, txnOptions(name))
	} else {
		err = raw.Restore(img)
	}
	if err != nil {
		t.Fatal(err)
	}
	dev := &readFailDev{Device: raw}
	fsys, err := Mount(name, dev, txnOptions(name))
	if err != nil {
		t.Fatal(err)
	}
	return raw, dev, fsys
}
