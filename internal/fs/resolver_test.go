package fs

import (
	"fmt"
	"math/rand"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/vfs"
)

// The gray-box resolvers keep their classification map across device
// writes that touched nothing the map was derived from. The oracle for
// every test here is a resolver built fresh over the same disk: it has no
// history, so it walks the image as it is now.

// resolverOpts turns every IRON region on for ixt3 so its checksum,
// replica and parity blocks are classified too.
func resolverOpts(name string) Options {
	if name == "ixt3" {
		return Options{Mc: true, Dc: true, Mr: true, Dp: true, Tc: true}
	}
	return Options{}
}

// tableType is the structure type whose blocks each resolver's walk reads:
// a write landing on one must rebuild the map.
var tableType = map[string]iron.BlockType{
	"ext3": "inode", "ixt3": "inode", "jfs": "inode", "ntfs": "MFT record", "reiserfs": "root",
}

// diffFresh describes the first block of d that r classifies differently
// from a resolver with no history, or returns "".
func diffFresh(name string, d *disk.Disk, r faultinject.TypeResolver) string {
	fresh, err := NewResolver(name, d)
	if err != nil {
		return err.Error()
	}
	for b := int64(0); b < d.NumBlocks(); b++ {
		if got, want := r.Classify(b), fresh.Classify(b); got != want {
			return fmt.Sprintf("block %d classifies %q, a fresh resolver says %q", b, got, want)
		}
	}
	return ""
}

func assertFresh(t testing.TB, name string, d *disk.Disk, r faultinject.TypeResolver, when string) {
	t.Helper()
	if diff := diffFresh(name, d, r); diff != "" {
		t.Fatalf("%s, %s: %s", name, when, diff)
	}
}

// checkedResolver sits where the fault layer consults the resolver — once
// before every device I/O — and compares the whole map against a fresh
// resolver whenever the disk has been written since the last comparison:
// that is after every single device write the file system issues. It runs
// inside the file system's commit path, so it reports the first difference
// with Errorf and lets the operation finish.
type checkedResolver struct {
	t      *testing.T
	name   string
	d      *disk.Disk
	r      faultinject.TypeResolver
	writes int64
	checks int
}

func (c *checkedResolver) Classify(b int64) iron.BlockType {
	if w := c.d.Stats().Writes; w != c.writes && !c.t.Failed() {
		c.writes = w
		c.checks++
		if diff := diffFresh(c.name, c.d, c.r); diff != "" {
			c.t.Errorf("%s, after device write %d: %s", c.name, w, diff)
		}
	}
	return c.r.Classify(b)
}

// churn drives a seeded create / write-past-the-direct-blocks / mkdir /
// rename / truncate / unlink / fsync stream. Individual operations may be
// refused (a full directory, a name that is gone); the stream only has to
// keep the allocator, the inode table and the journal moving.
func churn(fsys vfs.FileSystem, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	big := make([]byte, 15*4096) // past ext3's 12 and jfs's 8 direct blocks, into ntfs's run extension
	var files, dirs []string
	dirs = append(dirs, "")
	for i := 0; i < ops; i++ {
		switch k := rng.Intn(8); {
		case k <= 1 || len(files) == 0:
			p := fmt.Sprintf("%s/f%d", dirs[rng.Intn(len(dirs))], i)
			if fsys.Create(p, 0o644) == nil {
				files = append(files, p)
				_, _ = fsys.Write(p, 0, big[:(1+rng.Intn(15))*4096])
			}
		case k == 2:
			p := fmt.Sprintf("/d%d", i)
			if fsys.Mkdir(p, 0o755) == nil {
				dirs = append(dirs, p)
			}
		case k == 3:
			j := rng.Intn(len(files))
			p := fmt.Sprintf("%s/r%d", dirs[rng.Intn(len(dirs))], i)
			if fsys.Rename(files[j], p) == nil {
				files[j] = p
			}
		case k == 4:
			_ = fsys.Truncate(files[rng.Intn(len(files))], int64(rng.Intn(14))*4096)
		case k == 5:
			j := rng.Intn(len(files))
			if fsys.Unlink(files[j]) == nil {
				files = append(files[:j], files[j+1:]...)
			}
		case k == 6:
			_, _ = fsys.Write(files[rng.Intn(len(files))], int64(rng.Intn(4))*4096, big[:4096])
		default:
			_ = fsys.Fsync(files[rng.Intn(len(files))])
		}
	}
	_ = fsys.Sync()
}

// churnedImage returns the snapshot of a volume after churn(seed): an
// image whose file tree differs from any other seed's.
func churnedImage(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	v, err := MountVolume(MountOpts{FS: name, Opts: resolverOpts(name)})
	if err != nil {
		t.Fatal(err)
	}
	churn(v.FS, seed, 30)
	if err := v.FS.Unmount(); err != nil {
		t.Fatal(err)
	}
	return v.Disk.Snapshot()
}

// firstOfType finds a block r classifies as bt.
func firstOfType(t *testing.T, r faultinject.TypeResolver, d *disk.Disk, bt iron.BlockType) int64 {
	t.Helper()
	for b := int64(1); b < d.NumBlocks(); b++ {
		if r.Classify(b) == bt {
			return b
		}
	}
	t.Fatalf("no %q block on the image", bt)
	return 0
}

// TestResolverConformance is the differential contract of the write-aware
// type map, over every registered file system: whatever lands on the disk,
// by whatever route, the long-lived resolver answers as a fresh one does.
func TestResolverConformance(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			t.Run("live", func(t *testing.T) {
				opts := resolverOpts(name)

				// Every device write of a live workload through the fault layer.
				v, err := MountVolume(MountOpts{FS: name, Opts: opts, Faults: true})
				if err != nil {
					t.Fatal(err)
				}
				tm := v.Resolver.(*faultinject.TypeMap)
				chk := &checkedResolver{t: t, name: name, d: v.Disk, r: v.Resolver, writes: v.Disk.Stats().Writes}
				v.Faults.SetResolver(chk)
				before := tm.Rebuilds()
				churn(v.FS, 0x1207, 60)
				assertFresh(t, name, v.Disk, v.Resolver, "after the stream")
				if chk.checks < 100 {
					t.Fatalf("only %d device writes were checked", chk.checks)
				}
				// Journal and data writes are most of the stream and none of
				// the read set, so far fewer walks than writes.
				walks := tm.Rebuilds() - before
				t.Logf("%d device writes checked, %d walks", chk.checks, walks)
				if walks*2 > int64(chk.checks) {
					t.Errorf("%d walks for %d device writes", walks, chk.checks)
				}
				v.Faults.SetResolver(v.Resolver)

				// Ring overflow: another tree's metadata lands through the raw
				// disk, followed by more rewrites of one block than the disk's
				// write log holds, all between two Classify calls.
				other := churnedImage(t, name, 0x5eed)
				bs := int64(v.Disk.BlockSize())
				for b := int64(0); b < v.Disk.NumBlocks(); b++ {
					if err := v.Disk.WriteBlock(b, other[b*bs:(b+1)*bs]); err != nil {
						t.Fatal(err)
					}
				}
				last := v.Disk.NumBlocks() - 1
				for i := 0; i < 1000; i++ {
					if err := v.Disk.WriteBlock(last, other[last*bs:]); err != nil {
						t.Fatal(err)
					}
				}
				assertFresh(t, name, v.Disk, v.Resolver, "after the write log overflowed")

				// A misdirected write lands on a block the walk reads, one past
				// the block the file system addressed.
				tb := firstOfType(t, v.Resolver, v.Disk, tableType[name])
				v.Faults.Arm(&faultinject.Fault{Class: iron.MisdirectedWrite, Range: faultinject.BlockRange{Start: tb - 1, End: tb}})
				before = tm.Rebuilds()
				if err := v.Faults.WriteBlock(tb-1, make([]byte, bs)); err != nil || v.Faults.Fired() != 1 {
					t.Fatalf("misdirected write: err %v, fired %d", err, v.Faults.Fired())
				}
				assertFresh(t, name, v.Disk, v.Resolver, "after a misdirected write onto the table")
				if tm.Rebuilds() == before {
					t.Error("a zeroed table block did not rebuild the map")
				}

				// Restore swaps the whole image under the resolver.
				if err := v.Disk.Restore(churnedImage(t, name, 7)); err != nil {
					t.Fatal(err)
				}
				assertFresh(t, name, v.Disk, v.Resolver, "after Restore")
			})

			t.Run("mkfs", func(t *testing.T) {
				// Blank, then a garbage superblock, then a valid one.
				d, err := disk.New(4096, disk.DefaultGeometry(), nil)
				if err != nil {
					t.Fatal(err)
				}
				r, err := NewResolver(name, d)
				if err != nil {
					t.Fatal(err)
				}
				assertFresh(t, name, d, r, "blank")
				junk := make([]byte, d.BlockSize())
				rand.New(rand.NewSource(1)).Read(junk)
				for b := int64(0); b < 4; b++ {
					if err := d.WriteBlock(b, junk); err != nil {
						t.Fatal(err)
					}
				}
				assertFresh(t, name, d, r, "garbage superblock")
				if err := Mkfs(name, d, resolverOpts(name)); err != nil {
					t.Fatal(err)
				}
				assertFresh(t, name, d, r, "after mkfs")
				if r.Classify(firstOfType(t, r, d, tableType[name])) == iron.Unclassified {
					t.Fatal("formatted image still classifies as blank")
				}
			})

			t.Run("cache-flush", func(t *testing.T) {
				// A volatile write cache absorbs a workload; the disk sees none
				// of it until the cache's log is flushed in one batch.
				d, err := disk.New(4096, disk.DefaultGeometry(), nil)
				if err != nil {
					t.Fatal(err)
				}
				opts := resolverOpts(name)
				if err := Mkfs(name, d, opts); err != nil {
					t.Fatal(err)
				}
				r, err := NewResolver(name, d)
				if err != nil {
					t.Fatal(err)
				}
				assertFresh(t, name, d, r, "formatted")
				cache := faultinject.NewCacheDevice(d)
				fsys, err := Mount(name, cache, opts)
				if err != nil {
					t.Fatal(err)
				}
				churn(fsys, 3, 12)
				assertFresh(t, name, d, r, "workload absorbed by the cache")
				var reqs []disk.Request
				for _, w := range cache.Log() {
					reqs = append(reqs, disk.Request{Block: w.Block, Data: w.Data})
				}
				if err := d.WriteBatch(reqs); err != nil {
					t.Fatal(err)
				}
				assertFresh(t, name, d, r, "after the cache flush")
			})
		})
	}
}

// TestResolverSeesRestore: a resolver that classified image A must not go
// on serving A's map after the disk is restored to image B — fingerprint,
// hunt, fstest and ironfsck all restore onto live disks.
func TestResolverSeesRestore(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a, b := churnedImage(t, name, 1), churnedImage(t, name, 2)
			d, err := disk.New(4096, disk.DefaultGeometry(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Restore(a); err != nil {
				t.Fatal(err)
			}
			r, err := NewResolver(name, d)
			if err != nil {
				t.Fatal(err)
			}
			assertFresh(t, name, d, r, "image A")
			if err := d.Restore(b); err != nil {
				t.Fatal(err)
			}
			assertFresh(t, name, d, r, "image B restored over A")
		})
	}
}

// classifyFixture is a mounted volume with a multi-block file on it, plus
// one block of each kind the cost tests write to.
type classifyFixture struct {
	v                    *Volume
	data, journal, table int64
	buf                  []byte
}

func newClassifyFixture(t testing.TB, name string) *classifyFixture {
	v, err := MountVolume(MountOpts{FS: name, Opts: resolverOpts(name)})
	if err != nil {
		t.Fatal(err)
	}
	churn(v.FS, 11, 20)
	f := &classifyFixture{v: v, buf: make([]byte, v.Disk.BlockSize())}
	journal := map[iron.BlockType]bool{"j-data": true, "j-desc": true, "j-commit": true, "logfile": true}
	for b := int64(1); b < v.Disk.NumBlocks(); b++ {
		switch bt := v.Resolver.Classify(b); {
		case bt == "data" && f.data == 0:
			f.data = b
		case journal[bt] && f.journal == 0:
			f.journal = b
		case bt == tableType[name] && f.table == 0:
			f.table = b
		}
	}
	if f.data == 0 || f.journal == 0 || f.table == 0 {
		t.Fatalf("%s: fixture blocks data=%d journal=%d table=%d", name, f.data, f.journal, f.table)
	}
	return f
}

// rewrite writes block b back to the disk unchanged: a device write that
// moves the generation without moving the image.
func (f *classifyFixture) rewrite(t testing.TB, b int64) {
	if err := f.v.Disk.ReadRaw(b, f.buf); err != nil {
		t.Fatal(err)
	}
	if err := f.v.Disk.WriteBlock(b, f.buf); err != nil {
		t.Fatal(err)
	}
}

// TestClassifyAllocs gates the fault layer's steady-state cost: after a
// write to a data block the map is adopted, not rebuilt, and neither that
// nor the live peek at a journal block allocates.
func TestClassifyAllocs(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			f := newClassifyFixture(t, name)
			tm := f.v.Resolver.(*faultinject.TypeMap)
			writeOnly := testing.AllocsPerRun(200, func() { f.rewrite(t, f.data) })
			tm.Classify(f.data) // catch up: 200 unobserved writes overflow the disk's log
			walks := tm.Rebuilds()
			got := testing.AllocsPerRun(200, func() {
				f.rewrite(t, f.data)
				tm.Classify(f.data)
			})
			if got != writeOnly {
				t.Errorf("Classify after a data-block write: %v allocs (the write alone: %v)", got, writeOnly)
			}
			if tm.Rebuilds() != walks {
				t.Errorf("data-block writes walked the image %d times", tm.Rebuilds()-walks)
			}
			if n := testing.AllocsPerRun(200, func() { tm.Classify(f.journal) }); n != 0 {
				t.Errorf("Classify of journal block %d: %v allocs", f.journal, n)
			}
			f.rewrite(t, f.table)
			tm.Classify(f.data)
			if tm.Rebuilds() != walks+1 {
				t.Errorf("a write to table block %d walked the image %d times, want 1", f.table, tm.Rebuilds()-walks)
			}
		})
	}
}

func benchmarkClassify(b *testing.B, pick func(*classifyFixture) int64) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			f := newClassifyFixture(b, name)
			blk := pick(f)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.rewrite(b, blk)
				f.v.Resolver.Classify(f.data)
			}
		})
	}
}

// BenchmarkClassifyAfterWrite is the common case above the fault layer: a
// data (or journal) block was written, the map is adopted as is.
func BenchmarkClassifyAfterWrite(b *testing.B) {
	benchmarkClassify(b, func(f *classifyFixture) int64 { return f.data })
}

// BenchmarkClassifyAfterInodeWrite is the expensive case: the write landed
// in the read set and the image is walked again.
func BenchmarkClassifyAfterInodeWrite(b *testing.B) {
	benchmarkClassify(b, func(f *classifyFixture) int64 { return f.table })
}
