package ext3

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ironfs/internal/bcache"
	"ironfs/internal/disk"
	"ironfs/internal/iron"
)

// shareBlock is block i of the streamed file f: every byte names both.
func shareBlock(f, i int) []byte {
	b := make([]byte, BlockSize)
	for j := range b {
		b[j] = byte(f*31+i) ^ byte(j>>4)
	}
	return b
}

// TestSharedReadersKeepFrames runs readers under the shared lock beside a
// writer, over a 32-block cache in one shard, and byte-checks everything
// they read. Run under -race. Each reader streams a set of files twice the
// cache's size with Read: demand misses and read-ahead fill frames the
// cache owns. Every eighth block it also holds the eight blocks just read
// ahead, looked up with readMeta (the Get every metadata read makes under
// the shared lock), while it reads the rest of the set with ReadAtLocked
// under the same shared lock, evicting them, and checks them after. The writer meanwhile creates a file of 48 fresh blocks, fsyncs it
// and unlinks it: its dirty blocks push the shard over capacity, so an
// insert evicts the newest clean block, often one a reader just filled,
// and its frame goes straight to the next fill. Between rounds it
// overwrites five bytes of each of eight blocks the readers stream with
// the bytes already there: read-for-modify, in the frame Modify reads a
// miss into, staged dirty and committed by the next fsync. Three
// shortcuts fail here: a miss that inserts its frame before it copies out
// races with another reader's fill into it, a Get that leaves the frame
// the cache's hands a holder a buffer the holder's own reads then refill,
// and a read-for-modify frame that goes back to the pool while its writer
// still patches and stages it.
func TestSharedReadersKeepFrames(t *testing.T) {
	const readers, files, blocks, passes, held = 3, 2, 32, 12, 8
	d, err := disk.New(8192, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{NoAtime: true}
	if err := Mkfs(d, opts); err != nil {
		t.Fatal(err)
	}
	fs := New(d, opts, iron.NewRecorder())
	// A small cache before Mount, which builds the transaction over it
	// (fsck keeps the default one, used only by a failed repair).
	fs.cache = bcache.NewSharded(32, 1)
	fs.SetReadAhead(8)
	if err := fs.Mount(); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, files)
	for f := range paths {
		paths[f] = fmt.Sprintf("/s%d", f)
		if err := fs.Create(paths[f], 0o644); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < blocks; i++ {
			if _, err := fs.Write(paths[f], int64(i*BlockSize), shareBlock(f, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var commits atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		body := make([]byte, 48*BlockSize)
		for k := 0; !stop.Load(); k++ {
			for i := range body {
				body[i] = byte(k + i>>12)
			}
			p := fmt.Sprintf("/w%d", k)
			if err := fs.Create(p, 0o644); err != nil {
				t.Error(err)
				return
			}
			if _, err := fs.Write(p, 0, body); err != nil {
				t.Error(err)
				return
			}
			if err := fs.Fsync(p); err != nil {
				t.Error(err)
				return
			}
			if err := fs.Unlink(p); err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 8; j++ {
				f, i, off := k%files, (k*7+j*5)%blocks, (k*131+j*517)%(BlockSize-5)
				if _, err := fs.Write(paths[f], int64(i*BlockSize+off), shareBlock(f, i)[off:off+5]); err != nil {
					t.Error(err)
					return
				}
			}
			commits.Add(1)
		}
	}()
	// hold looks blocks [lo, lo+held) of file f up with readMeta under the
	// shared lock and, still holding them, reads every other block of the
	// set with ReadAtLocked, as the readers around a holder do: more blocks
	// than the cache holds, so the held ones are evicted. Then it checks
	// what it holds.
	hold := func(f, lo int, buf []byte) error {
		fs.mu.RLock()
		defer fs.mu.RUnlock()
		_, in, err := fs.ResolveLocked(paths[f], true)
		if err != nil {
			return err
		}
		var bufs [held][]byte
		for i := range bufs {
			phys, err := fs.bmap(&in, int64(lo+i), false)
			if err != nil {
				return err
			}
			if bufs[i], err = fs.readMeta(phys, BTData); err != nil {
				return err
			}
		}
		for g, p := range paths {
			ino, in, err := fs.ResolveLocked(p, true)
			if err != nil {
				return err
			}
			for i := 0; i < blocks; i++ {
				if g == f && i >= lo && i < lo+held {
					continue
				}
				if _, err := fs.ReadAtLocked(ino, in, int64(i*BlockSize), buf); err != nil {
					return err
				}
				if !bytes.Equal(buf, shareBlock(g, i)) {
					return fmt.Errorf("%s block %d read back wrong beside held blocks", p, i)
				}
			}
		}
		for i, b := range bufs {
			if !bytes.Equal(b, shareBlock(f, lo+i)) {
				return fmt.Errorf("%s block %d changed while held", paths[f], lo+i)
			}
		}
		return nil
	}
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			buf := make([]byte, BlockSize)
			for pass := 0; pass < passes; pass++ {
				for k := 0; k < files; k++ {
					f := (k + r) % files
					for i := 0; i < blocks; i++ {
						if n, err := fs.Read(paths[f], int64(i*BlockSize), buf); err != nil || n != BlockSize {
							t.Errorf("read %s block %d: %d, %v", paths[f], i, n, err)
							return
						}
						if !bytes.Equal(buf, shareBlock(f, i)) {
							t.Errorf("reader %d pass %d: %s block %d read back wrong", r, pass, paths[f], i)
							return
						}
						// The blocks just read ahead are frames the cache
						// owns: hold them.
						if i%held == r && i+held < blocks {
							if err := hold(f, i+1, buf); err != nil {
								t.Errorf("reader %d pass %d: %v", r, pass, err)
								return
							}
						}
					}
				}
			}
		}()
	}
	rwg.Wait()
	stop.Store(true)
	wg.Wait()
	if commits.Load() == 0 {
		t.Error("the writer committed nothing while the readers ran")
	}
	if probs, err := fs.CheckConsistency(); err != nil || len(probs) > 0 {
		t.Errorf("after the run: %v, %v", probs, err)
	}
}
