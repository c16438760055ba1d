package fs

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/sched"
	"ironfs/internal/stat"
	"ironfs/internal/trace"
	"ironfs/internal/vfs"
)

// raWindow is the read-ahead window every test here mounts with: the one
// bench and the sweep run.
const raWindow = 8

// raOptions mounts noatime, so a read stages nothing, and ixt3 with every
// IRON mechanism on, as bench does.
func raOptions(name string) Options {
	o := Options{NoAtime: true}
	if name == "ixt3" {
		o.Mc, o.Mr, o.Dc, o.Dp, o.Tc = true, true, true, true, true
	}
	return o
}

// raBlock is block i of the file tagged f: every byte names both, so a
// block that comes back from the wrong place or from before a write shows.
func raBlock(f string, i int) []byte {
	b := make([]byte, txnBlock)
	for j := range b {
		b[j] = f[j%len(f)] ^ byte(i) ^ byte(j>>5)
	}
	return b
}

func raFile(f string, blocks int) []byte {
	var out []byte
	for i := 0; i < blocks; i++ {
		out = append(out, raBlock(f, i)...)
	}
	return out
}

// readPieces reads path in 4 KiB pieces from offset 0, as a streaming
// client does, and returns what came back.
func readPieces(t *testing.T, fsys vfs.FileSystem, path string, size int) []byte {
	t.Helper()
	out := make([]byte, size)
	for off := 0; off < size; off += txnBlock {
		if n, err := fsys.Read(path, int64(off), out[off:off+txnBlock]); err != nil || n != txnBlock {
			t.Fatalf("read %s at %d: %d, %v", path, off, n, err)
		}
	}
	return out
}

func dropCaches(t testing.TB, fsys vfs.FileSystem) {
	t.Helper()
	if err := fsys.Sync(); err != nil {
		t.Fatal(err)
	}
	fsys.(interface{ DropCaches() }).DropCaches()
}

// raFixture lays down the files the read-ahead tests stream: /z (8 blocks)
// and /a (24 blocks, past every file system's direct pointers, so a pointer
// block sits inside its data), then /d with 48 entries (enough to split a
// reiserfs leaf) whose directory blocks or tree nodes land right after /a,
// and /d/b (4 blocks), whose reiserfs pointers land there too.
func raFixture(t *testing.T, fsys vfs.FileSystem) {
	t.Helper()
	for _, f := range []struct {
		path   string
		blocks int
	}{{"/z", 8}, {"/a", 24}} {
		if err := fsys.Create(f.path, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := fsys.Write(f.path, 0, raFile(f.path, f.blocks)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fsys.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		if err := fsys.Create(fmt.Sprintf("/d/entry-with-a-longish-name-%03d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := fsys.Create("/d/b", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Write("/d/b", 0, raFile("/d/b", 4)); err != nil {
		t.Fatal(err)
	}
}

// TestReadAheadKeepsDirtyBlocks: a block the cache holds dirty is newer than
// the media, and read-ahead must never put the media's copy over it. The
// per-volume detector's loop did (Put replaces), so an overwrite the
// transaction still held read back as its old bytes until a remount: the
// write acknowledged but invisible.
func TestReadAheadKeepsDirtyBlocks(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, fsys vfs.FileSystem)
	}{
		{"dirty data block", func(t *testing.T, fsys vfs.FileSystem) {
			// Overwrite block d of a 32-block file in place, then stream the
			// file: a miss before d fetches a window that covers it.
			const blocks = 32
			want := raFile("/f", blocks)
			if err := fsys.Create("/f", 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := fsys.Write("/f", 0, want); err != nil {
				t.Fatal(err)
			}
			var stale []int
			for d := 1; d < 24; d++ {
				dropCaches(t, fsys)
				fresh := raBlock(fmt.Sprintf("/f@%d", d), d)
				if _, err := fsys.Write("/f", int64(d*txnBlock), fresh); err != nil {
					t.Fatal(err)
				}
				copy(want[d*txnBlock:], fresh)
				if got := readPieces(t, fsys, "/f", len(want)); !bytes.Equal(got[d*txnBlock:][:txnBlock], fresh) {
					stale = append(stale, d)
				} else if !bytes.Equal(got, want) {
					t.Fatalf("overwrite of block %d: the file reads back wrong elsewhere", d)
				}
			}
			if len(stale) > 0 {
				t.Errorf("blocks %v, each overwritten in place, read back their old bytes", stale)
			}
		}},
		{"dirty directory and pointer blocks", func(t *testing.T, fsys vfs.FileSystem) {
			// Grow /a by a block (its pointer block, inside /a, goes dirty),
			// create /d/new and grow /d/b (the directory block or tree node
			// right after /a goes dirty), then stream /a across both.
			raFixture(t, fsys)
			dropCaches(t, fsys)
			if _, err := fsys.Write("/a", 24*txnBlock, raBlock("/a", 24)); err != nil {
				t.Fatal(err)
			}
			if err := fsys.Create("/d/new", 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := fsys.Write("/d/b", 4*txnBlock, raBlock("/d/b", 4)); err != nil {
				t.Fatal(err)
			}
			if got := readPieces(t, fsys, "/a", 25*txnBlock); !bytes.Equal(got, raFile("/a", 25)) {
				t.Error("/a, grown by a block, reads back wrong")
			}
			if _, err := fsys.Stat("/d/new"); err != nil {
				t.Errorf("stat /d/new after streaming /a: %v", err)
			}
			if got := readPieces(t, fsys, "/d/b", 5*txnBlock); !bytes.Equal(got, raFile("/d/b", 5)) {
				t.Error("/d/b, grown by a block, reads back wrong")
			}
		}},
	}
	for _, name := range Names() {
		for _, row := range rows {
			t.Run(name+"/"+row.name, func(t *testing.T) {
				v, err := MountVolume(MountOpts{FS: name, Opts: raOptions(name), ReadAhead: raWindow})
				if err != nil {
					t.Fatal(err)
				}
				row.run(t, v.FS)
			})
		}
	}
}

// TestReadAheadFreedBlocksStayZero: a window that runs on past a file's end
// caches whatever follows it, free blocks included. When one of those is
// allocated to a new file, the bytes the new file has not written must
// read as zeros, not as the deleted file's data.
func TestReadAheadFreedBlocksStayZero(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			v, err := MountVolume(MountOpts{FS: name, Opts: raOptions(name), ReadAhead: raWindow})
			if err != nil {
				t.Fatal(err)
			}
			fsys := v.FS
			for _, f := range []struct {
				path   string
				blocks int
			}{{"/a", 16}, {"/b", 8}} {
				if err := fsys.Create(f.path, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := fsys.Write(f.path, 0, raFile(f.path, f.blocks)); err != nil {
					t.Fatal(err)
				}
			}
			if err := fsys.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := fsys.Unlink("/b"); err != nil {
				t.Fatal(err)
			}
			dropCaches(t, fsys)
			readPieces(t, fsys, "/a", 16*txnBlock)
			// Past any inline tail, and not block-aligned: the write starts
			// from what the new block holds.
			const at = txnBlock + 100
			if err := fsys.Create("/c", 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := fsys.Write("/c", at, []byte("fresh")); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, at)
			if n, err := fsys.Read("/c", 0, got); err != nil || n != at {
				t.Fatalf("read /c: %d, %v", n, err)
			}
			if i := slices.IndexFunc(got, func(b byte) bool { return b != 0 }); i >= 0 {
				t.Errorf("/c reads non-zero bytes at %d, before anything was written there", i)
			}
		})
	}
}

// raScript is the access sequence of the policy test: stream /z and /a,
// list /d, stat every entry, stream /d/b. It returns one line per
// operation with its outcome and a digest of the bytes it returned.
func raScript(fsys vfs.FileSystem, mark func()) []string {
	var out []string
	stream := func(path string, blocks int) {
		buf := make([]byte, txnBlock)
		for i := 0; i < blocks; i++ {
			mark()
			n, err := fsys.Read(path, int64(i*txnBlock), buf)
			out = append(out, fmt.Sprintf("read %s#%d: %d %v %08x", path, i, n, err, crc32.ChecksumIEEE(buf[:n])))
		}
	}
	stream("/z", 8)
	stream("/a", 24)
	mark()
	ents, err := fsys.ReadDir("/d")
	var names []string
	for _, e := range ents {
		names = append(names, e.Name)
	}
	out = append(out, fmt.Sprintf("readdir /d: %v %v", names, err))
	for i := 0; i < 48; i++ {
		mark()
		p := fmt.Sprintf("/d/entry-with-a-longish-name-%03d", i)
		fi, err := fsys.Stat(p)
		out = append(out, fmt.Sprintf("stat %s: %d %v", p, fi.Size, err))
	}
	stream("/d/b", 4)
	return out
}

// policyRun is what a file system did over raScript: the transcript, its
// recorder's events, its health and degrade log, and the first script step
// at which each block was read from the device.
type policyRun struct {
	transcript []string
	events     []iron.Event
	health     vfs.HealthState
	trans      []vfs.Transition
	firstRead  map[int64]int
}

// runPolicy mounts image with the given read-ahead window behind a fault
// layer, arms fault (if any) after the mount and runs raScript.
func runPolicy(t *testing.T, name string, opts Options, image []byte, window int, fault *faultinject.Fault) policyRun {
	t.Helper()
	rec := iron.NewRecorder()
	v, err := MountVolume(MountOpts{FS: name, Opts: opts, Image: image, Faults: true, Trace: true, Recorder: rec, ReadAhead: window})
	if err != nil {
		t.Fatal(err)
	}
	if fault != nil {
		v.Faults.Arm(fault)
	}
	v.Tracer.Reset() // the script's I/O only
	r := policyRun{firstRead: map[int64]int{}}
	step, seen := 0, 0
	mark := func() {
		for _, e := range v.Tracer.Events()[seen:] {
			if _, ok := r.firstRead[e.Block]; !ok && e.Layer == trace.LayerFault && e.Kind == trace.KindRead {
				r.firstRead[e.Block] = step
			}
			seen++
		}
		step++
	}
	r.transcript = raScript(v.FS, mark)
	mark()
	r.events = rec.Events()
	r.health = v.Health()
	r.trans = v.Transitions()
	return r
}

// raTarget is a block the read-ahead run fetched before its demand read
// needed it, and what it is.
type raTarget struct {
	blk  int64
	kind string
}

// raTargets images the fixture under opts and finds the blocks inside a
// read-ahead window: those a fault-free run with read-ahead reads at an
// earlier step of the script than one without. It keeps the first of each
// kind — a data block, and each metadata type.
func raTargets(t *testing.T, name string, opts Options) ([]byte, []raTarget) {
	t.Helper()
	v, err := MountVolume(MountOpts{FS: name, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	withResolver(t, v)
	raFixture(t, v.FS)
	if err := v.FS.Unmount(); err != nil {
		t.Fatal(err)
	}
	image := v.Disk.Snapshot()
	off := runPolicy(t, name, opts, image, 0, nil)
	on := runPolicy(t, name, opts, image, raWindow, nil)
	if !slices.Equal(off.transcript, on.transcript) {
		t.Fatalf("without faults, read-ahead changes what the script returns")
	}
	var early []int64
	for blk, step := range on.firstRead {
		if was, ok := off.firstRead[blk]; ok && step < was {
			early = append(early, blk)
		}
	}
	slices.Sort(early)
	seen := map[string]bool{}
	var out []raTarget
	for _, blk := range early {
		kind := string(v.Resolver.Classify(blk))
		if !seen[kind] {
			seen[kind] = true
			out = append(out, raTarget{blk, kind})
		}
	}
	return image, out
}

// TestReadAheadPolicyInvariant: read-ahead is invisible to the failure
// policy. For every block kind the script's read-ahead fetches early — data,
// and the directory blocks, pointer blocks and tree nodes the windows run
// into — under a sticky read error and under sticky corruption, the run
// with read-ahead returns what the run without returns, records the same
// detection and recovery events in the same order, and ends in the same
// health with the same degrade log. A block that fails its read or its
// checksum ends the window uncached and unrecorded; the demand read meets
// the fault and applies §5/§6 policy as it always did.
func TestReadAheadPolicyInvariant(t *testing.T) {
	classes := []iron.FaultClass{iron.ReadFailure, iron.Corruption}
	check := func(t *testing.T, name string, opts Options, image []byte, tg raTarget, class iron.FaultClass) policyRun {
		t.Helper()
		arm := func() *faultinject.Fault {
			return &faultinject.Fault{Class: class, Range: faultinject.BlockRange{Start: tg.blk, End: tg.blk + 1}, Sticky: true}
		}
		off := runPolicy(t, name, opts, image, 0, arm())
		on := runPolicy(t, name, opts, image, raWindow, arm())
		for i := range off.transcript {
			if off.transcript[i] != on.transcript[i] {
				t.Errorf("step %d: %q without read-ahead, %q with", i, off.transcript[i], on.transcript[i])
				break
			}
		}
		if !slices.Equal(off.events, on.events) {
			t.Errorf("events differ:\nwithout read-ahead %v\nwith              %v", off.events, on.events)
		}
		if off.health != on.health || !slices.Equal(off.trans, on.trans) {
			t.Errorf("health %v %v without read-ahead, %v %v with", off.health, off.trans, on.health, on.trans)
		}
		return on
	}

	kinds := map[string]bool{}
	for _, name := range Names() {
		image, targets := raTargets(t, name, raOptions(name))
		var meta []string
		for _, tg := range targets {
			if tg.kind != "data" {
				meta = append(meta, tg.kind)
			}
			kinds[tg.kind] = true
		}
		if !kinds["data"] || len(meta) == 0 {
			t.Fatalf("%s: read-ahead fetched early only %v; the fixture must put data and metadata inside a window", name, targets)
		}
		t.Logf("%s: blocks inside a window: %v", name, targets)
		for _, tg := range targets {
			for _, class := range classes {
				t.Run(fmt.Sprintf("%s/%s@%d/%v", name, tg.kind, tg.blk, class), func(t *testing.T) {
					check(t, name, raOptions(name), image, tg, class)
				})
			}
		}
	}
	for _, want := range []string{"dir", "indirect"} {
		if !kinds[want] {
			t.Errorf("no file system had a %s block inside a window; kinds seen: %v", want, kinds)
		}
	}

	// ixt3 with Mc on and Dc off: nothing checks data checksums, yet the
	// pointer block inside /a's window must still be verified before it is
	// cached, or readMeta takes the corrupt copy from the cache unverified.
	t.Run("ixt3/Mc-without-Dc/corrupt-indirect", func(t *testing.T) {
		opts := Options{NoAtime: true, Mc: true, Mr: true}
		image, targets := raTargets(t, "ixt3", opts)
		i := slices.IndexFunc(targets, func(tg raTarget) bool { return tg.kind == "indirect" })
		if i < 0 {
			t.Fatalf("no indirect block inside a window: %v", targets)
		}
		on := check(t, "ixt3", opts, image, targets[i], iron.Corruption)
		detected := slices.ContainsFunc(on.events, func(e iron.Event) bool {
			return e.Block == "indirect" && e.Detection == iron.DRedundancy
		})
		recovered := slices.ContainsFunc(on.events, func(e iron.Event) bool {
			return e.Block == "indirect" && e.Recovery == iron.RRedundancy
		})
		if !detected || !recovered || on.health != vfs.Healthy {
			t.Errorf("corrupt indirect block: checksum detect %v, replica recovery %v, health %v; events %v",
				detected, recovered, on.health, on.events)
		}
		if i := slices.IndexFunc(on.transcript, func(s string) bool { return strings.Contains(s, "error") }); i >= 0 {
			t.Errorf("replica recovery should hide the corruption, but %q", on.transcript[i])
		}
	})
}

// TestReadAheadIOBudget pins what a cold interleaved scan costs the device:
// 16 clients, each streaming its own 64-block file in 4 KiB reads, round
// robin — so consecutive misses never touch adjacent blocks — on disk →
// scheduler (depth 32, adaptive), read-ahead 8. The exact cache misses,
// device reads and simulated busy time are functions of the image and
// repeat exactly. A detector that loses the streams once they interleave,
// or a file system that ignores MountOpts.ReadAhead, pays a miss and a
// positioned read per block and fails here.
func TestReadAheadIOBudget(t *testing.T) {
	const clients, blocks = 16, 64
	type cost struct {
		misses, reads int64
		busy          disk.Duration
	}
	budget := map[string]cost{
		"ext3":     {misses: 166, reads: 1045, busy: 664994746},
		"reiserfs": {misses: 169, reads: 1035, busy: 832595262},
		"jfs":      {misses: 163, reads: 1043, busy: 677469236},
		"ntfs":     {misses: 166, reads: 1046, busy: 726693714},
		// ixt3's parity blocks are born with their file's data, so the first
		// one follows the root directory block instead of preceding it, and
		// the scan makes one device read fewer.
		"ixt3": {misses: 169, reads: 1056, busy: 729974434},
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			v, err := MountVolume(MountOpts{FS: name, Opts: raOptions(name), Blocks: 8192})
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < clients; c++ {
				p := fmt.Sprintf("/s%02d", c)
				if err := v.FS.Create(p, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := v.FS.Write(p, 0, raFile(p, blocks)); err != nil {
					t.Fatal(err)
				}
			}
			if err := v.FS.Unmount(); err != nil {
				t.Fatal(err)
			}
			image := v.Disk.Snapshot()

			scan := func() cost {
				reg := stat.NewRegistry()
				defer stat.SetDefault(stat.SetDefault(reg))
				v, err := MountVolume(MountOpts{FS: name, Opts: raOptions(name), Blocks: 8192, Image: image,
					QueueDepth: 32, SchedPolicy: sched.PolicyAdaptive, ReadAhead: raWindow})
				if err != nil {
					t.Fatal(err)
				}
				reg.Reset()
				before := v.Disk.Stats()
				buf := make([]byte, txnBlock)
				for i := 0; i < blocks; i++ {
					for c := 0; c < clients; c++ {
						p := fmt.Sprintf("/s%02d", c)
						if n, err := v.FS.Read(p, int64(i*txnBlock), buf); err != nil || n != txnBlock || !bytes.Equal(buf, raBlock(p, i)) {
							t.Fatalf("read %s block %d: %d, %v, right bytes %v", p, i, n, err, bytes.Equal(buf, raBlock(p, i)))
						}
					}
				}
				var misses int64
				for _, c := range reg.Snapshot().Counters {
					if strings.HasPrefix(c.Key, "bcache_ops_total{op=miss,") {
						misses += c.Value
					}
				}
				ds := v.Disk.Stats().Sub(before)
				return cost{misses, ds.Reads, ds.BusyTime}
			}
			got := scan()
			if again := scan(); again != got {
				t.Fatalf("the scan cost %+v, then %+v: it must repeat exactly", got, again)
			}
			if got != budget[name] {
				t.Errorf("a cold scan of %d interleaved %d-block streams cost %+v, budget %+v", clients, blocks, got, budget[name])
			}
		})
	}
}

// TestReadAheadAllocs pins what streaming allocates once the cache is
// full: read-ahead and the demand misses both read into the frames of the
// blocks they evict, so a block costs next to nothing. On all five file
// systems a cold stream four times the cache's 2 048 blocks reads nine
// files of 1 000 blocks back to back (jfs and ntfs map at most 2 008 and
// 1 012 blocks a file) in 4 KiB pieces with read-ahead 8, and the last
// six files allocate at most raAllocsPerBlock per block: 0.002–0.005 are
// measured, and the bound is four times the most. A demand miss that
// allocates its buffer costs about 0.11 (one in nine blocks), and a
// read-ahead block that does, at least one.
func TestReadAheadAllocs(t *testing.T) {
	const files, blocks, warm = 9, 1000, 3
	const raAllocsPerBlock = 0.02
	body := raFile("stream", blocks)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			v, err := MountVolume(MountOpts{FS: name, Opts: raOptions(name), Blocks: 16384, ReadAhead: raWindow})
			if err != nil {
				t.Fatal(err)
			}
			paths := make([]string, files)
			for i := range paths {
				paths[i] = fmt.Sprintf("/f%d", i)
				if err := v.FS.Create(paths[i], 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := v.FS.Write(paths[i], 0, body); err != nil {
					t.Fatal(err)
				}
			}
			dropCaches(t, v.FS)
			buf := make([]byte, txnBlock)
			read := func(path string) {
				for i := 0; i < blocks; i++ {
					if n, err := v.FS.Read(path, int64(i*txnBlock), buf); err != nil || n != txnBlock {
						t.Fatalf("read %s block %d: %d, %v", path, i, n, err)
					}
				}
			}
			for _, p := range paths[:warm] {
				read(p)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, p := range paths[warm:] {
				read(p)
			}
			runtime.ReadMemStats(&after)
			if !bytes.Equal(buf, raBlock("stream", blocks-1)) {
				t.Fatal("the last block read back wrong")
			}
			per := float64(after.Mallocs-before.Mallocs) / float64((files-warm)*blocks)
			t.Logf("%.3f allocations per block", per)
			if per > raAllocsPerBlock {
				t.Errorf("streaming a full cache allocated %.3f times per block, want at most %.2f", per, raAllocsPerBlock)
			}
		})
	}
}

// BenchmarkDemandMiss prices Read's miss path without read-ahead on every
// file system: one op reads one 4 KiB block of a set as large as the
// cache (2 048 blocks in four files), which DropCaches empties before
// each pass, so every read is a demand miss. With -benchmem, B/op is what
// a miss allocates: next to nothing once the emptied cache's frames
// circulate, 4 KiB when a miss reads into a buffer of its own.
func BenchmarkDemandMiss(b *testing.B) {
	const files, blocks = 4, 512
	body := raFile("miss", blocks)
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			v, err := MountVolume(MountOpts{FS: name, Opts: raOptions(name), Blocks: 16384})
			if err != nil {
				b.Fatal(err)
			}
			paths := make([]string, files)
			for i := range paths {
				paths[i] = fmt.Sprintf("/m%d", i)
				if err := v.FS.Create(paths[i], 0o644); err != nil {
					b.Fatal(err)
				}
				if _, err := v.FS.Write(paths[i], 0, body); err != nil {
					b.Fatal(err)
				}
			}
			buf := make([]byte, txnBlock)
			read := func(i int) {
				p, blk := paths[i/blocks%files], i%blocks
				if n, err := v.FS.Read(p, int64(blk*txnBlock), buf); err != nil || n != txnBlock {
					b.Fatalf("read %s block %d: %d, %v", p, blk, n, err)
				}
			}
			// One pass to fill the frame pool, as the cache's first
			// eviction would.
			dropCaches(b, v.FS)
			for i := range files * blocks {
				read(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%(files*blocks) == 0 {
					b.StopTimer()
					dropCaches(b, v.FS)
					b.StartTimer()
				}
				read(i)
			}
		})
	}
}
