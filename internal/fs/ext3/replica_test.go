package ext3

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/sched"
)

// replicaChurn is the replica crash test's seeded workload: four
// directories, then 40 files each created, written and fsynced, the oldest
// unlinked whenever more than six are live. It stops at the first error,
// which on a cut device is the crash.
func replicaChurn(fs *FS, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for d := 0; d < 4; d++ {
		if err := fs.Mkdir(fmt.Sprintf("/d%d", d), 0o755); err != nil {
			return err
		}
	}
	var live []string
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("/d%d/f%02d", rng.Intn(4), i)
		if err := fs.Create(p, 0o644); err != nil {
			return err
		}
		buf := make([]byte, 1+rng.Intn(3*BlockSize))
		rng.Read(buf)
		if _, err := fs.Write(p, 0, buf); err != nil {
			return err
		}
		if err := fs.Fsync(p); err != nil {
			return err
		}
		if live = append(live, p); len(live) > 6 {
			if err := fs.Unlink(live[0]); err != nil {
				return err
			}
			live = live[1:]
		}
	}
	return nil
}

// ioLog records every write command that passes through it to the media,
// payloads included, in order.
type ioLog struct {
	disk.Device
	cmds [][]disk.Request
}

func (l *ioLog) WriteBlock(n int64, buf []byte) error {
	l.cmds = append(l.cmds, []disk.Request{{Block: n, Data: bytes.Clone(buf)}})
	return l.Device.WriteBlock(n, buf)
}

func (l *ioLog) WriteBatch(reqs []disk.Request) error {
	cmd := make([]disk.Request, len(reqs))
	for i, r := range reqs {
		cmd[i] = disk.Request{Block: r.Block, Data: bytes.Clone(r.Data)}
	}
	l.cmds = append(l.cmds, cmd)
	return l.Device.WriteBatch(reqs)
}

func (l *ioLog) Clock() *disk.Clock { return disk.ClockOf(l.Device) }

// writes returns the logged writes one block at a time, in order.
func (l *ioLog) writes() []disk.Request {
	var out []disk.Request
	for _, c := range l.cmds {
		out = append(out, c...)
	}
	return out
}

// rawBlock reads block n off the media.
func rawBlock(t *testing.T, d *disk.Disk, n int64) []byte {
	t.Helper()
	buf := make([]byte, BlockSize)
	if err := d.ReadRaw(n, buf); err != nil {
		t.Fatalf("raw read of block %d: %v", n, err)
	}
	return buf
}

// rawReplicaOf returns the replica block the map on the media names for
// home block blk, or 0.
func rawReplicaOf(t *testing.T, d *disk.Disk, fs *FS, blk int64) int64 {
	t.Helper()
	rblk, off := fs.rmapLoc(blk)
	return int64(binary.LittleEndian.Uint64(rawBlock(t, d, rblk)[off:]))
}

// replicaMismatch returns a description of the first metadata block no
// operation ever frees — the group descriptors, then each group's bitmaps
// and inode table — whose replica, as the map on the media names it,
// differs from the block, or "" when every named replica matches.
func replicaMismatch(t *testing.T, d *disk.Disk, fs *FS) string {
	t.Helper()
	check := func(blk int64, bt iron.BlockType) string {
		if rep := rawReplicaOf(t, d, fs, blk); rep != 0 && !bytes.Equal(rawBlock(t, d, blk), rawBlock(t, d, rep)) {
			return fmt.Sprintf("%s block %d differs from its replica %d", bt, blk, rep)
		}
		return ""
	}
	msg := check(gdtBlock, BTGDesc)
	for g := uint32(0); g < fs.lay.sb.GroupCount && msg == ""; g++ {
		start := fs.lay.groupStart(g)
		msg = check(start+1, BTBitmap) + check(start+2, BTIBitmap)
		for i := int64(0); i < int64(fs.lay.sb.ITableBlocks) && msg == ""; i++ {
			msg = check(start+groupMetaBlks+i, BTInode)
		}
	}
	return msg
}

// TestReplicaNeverAheadOfCommit cuts a seeded churn on a CrashDevice after
// every device write and recovers the media: every static metadata block
// whose map names a replica must then equal it byte for byte. A replica
// that reached the disk ahead of its transaction's commit block fails
// here; with Mc off it is what readMeta silently returns on a home read
// error.
//
// The churn is deterministic, so a run cut after n writes has put exactly
// the uncut run's first n writes on the media: each cut's image is built
// from the uncut run's CrashDevice log rather than by rerunning the churn,
// and every 64th is checked against a real cut. Each recovery's own writes
// are undone from that image before the next cut.
func TestReplicaNeverAheadOfCommit(t *testing.T) {
	const seed = 0x1207
	noMc, noTc := AllIron(), AllIron()
	noMc.MetaChecksum = false
	noTc.TxnChecksum = false
	for _, set := range []struct {
		name string
		opts Options
	}{{"all", AllIron()}, {"Mc_off", noMc}, {"Tc_off", noTc}} {
		t.Run(set.name, func(t *testing.T) {
			opts := set.opts
			d, err := disk.New(4096, disk.DefaultGeometry(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := Mkfs(d, opts); err != nil {
				t.Fatal(err)
			}
			base := d.Snapshot()
			uncut := faultinject.NewCrashDevice(d, -1)
			fs := New(uncut, opts, nil)
			if err := fs.Mount(); err != nil {
				t.Fatal(err)
			}
			if err := replicaChurn(fs, seed); err != nil {
				t.Fatalf("uncut churn: %v", err)
			}
			writes := uncut.Log()

			img := bytes.Clone(base)
			if err := d.Restore(img); err != nil {
				t.Fatal(err)
			}
			// put writes block n of img to the media.
			put := func(n int64) {
				if err := d.WriteBlock(n, img[n*BlockSize:(n+1)*BlockSize]); err != nil {
					t.Fatal(err)
				}
			}
			recovered, failed, first := 0, 0, ""
			for cut := 0; cut <= len(writes); cut++ {
				if cut > 0 {
					w := writes[cut-1]
					copy(img[w.Block*BlockSize:], w.Data)
					put(w.Block)
				}
				if cut%64 == 0 {
					if err := d.Restore(base); err != nil {
						t.Fatal(err)
					}
					fs := New(faultinject.NewCrashDevice(d, int64(cut)), opts, nil)
					if fs.Mount() == nil {
						_ = replicaChurn(fs, seed) // ends at the cut
					}
					if !bytes.Equal(d.Snapshot(), img) {
						t.Fatalf("cut %d: the media differ from the uncut run's first %d writes", cut, cut)
					}
				}
				recovery := &ioLog{Device: d}
				if fs := New(recovery, opts, nil); fs.Mount() == nil {
					recovered++
					if msg := replicaMismatch(t, d, fs); msg != "" {
						if failed++; first == "" {
							first = fmt.Sprintf("cut %d: %s", cut, msg)
						}
					}
				} // a refused recovery is the crash hunt's, not this test's
				for _, w := range recovery.writes() {
					put(w.Block)
				}
			}
			if recovered < len(writes)/2 {
				t.Fatalf("only %d of %d cuts recovered", recovered, len(writes)+1)
			}
			if failed > 0 {
				t.Fatalf("%d of %d recovered cuts leave a replica unequal to its block; first at %s", failed, recovered, first)
			}
			t.Logf("%d of %d cuts recovered, every named replica equal to its block", recovered, len(writes)+1)
		})
	}
}

// smallOpts is every IRON mechanism on one 512-block group with itable
// inode-table blocks and a journal of jlen blocks, for a 1 024-block
// volume: its replica area is at the 64-slot floor.
func smallOpts(itable, jlen int64) Options {
	opts := AllIron()
	opts.BlocksPerGroup, opts.JournalBlocks, opts.ITableBlocks = 512, jlen, itable
	return opts
}

// smallIron mounts opts on a 1 024-block volume on disk → ioLog → fault
// layer, formatted fresh, or restored from img when it is not nil, with
// fault armed (when not nil) before the mount.
func smallIron(t *testing.T, opts Options, img []byte, fault *faultinject.Fault) (*disk.Disk, *ioLog, *faultinject.Device, *iron.Recorder, *FS) {
	t.Helper()
	d, err := disk.New(1024, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	log := &ioLog{Device: d}
	fdev := faultinject.New(log, nil)
	if img != nil {
		err = d.Restore(img)
	} else {
		err = Mkfs(fdev, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	fdev.SetResolver(NewResolver(d))
	if fault != nil {
		fdev.Arm(fault)
	}
	rec := iron.NewRecorder()
	fs := New(fdev, opts, rec)
	if err := fs.Mount(); err != nil {
		t.Fatalf("mount: %v\n%s", err, rec.Summary())
	}
	if fs.lay.sb.ReplicaLen != 64 {
		t.Fatalf("replica area of %d slots, want the 64-slot floor", fs.lay.sb.ReplicaLen)
	}
	return d, log, fdev, rec, fs
}

// TestReplicaLog pins the replica log's life cycle: slots are reused once
// the head wraps, a commit never writes a slot the committed map names, a
// block the log has no slot for loses its replica rather than keeping a
// stale one, and a commit's replicas reach the disk as one command, or two
// when the head wraps.
func TestReplicaLog(t *testing.T) {
	// Commit until the head has wrapped three times, then fail each
	// replicated block in turn: every one comes back from its replica with
	// the committed bytes. The files are small and only their data is
	// freed, so every block the map names is live metadata.
	t.Run("wraps_three_times", func(t *testing.T) {
		d, _, fdev, rec, fs := smallIron(t, smallOpts(2, 64), nil, nil)
		wraps, head := 0, fs.lay.sb.ReplicaNext
		var live []string
		for i := 0; wraps < 3; i++ {
			if i == 1000 {
				t.Fatalf("%d commits wrapped the log %d times", i, wraps)
			}
			p := fmt.Sprintf("/w%03d", i)
			if err := fs.Create(p, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Write(p, 0, block(byte(i))); err != nil {
				t.Fatal(err)
			}
			if err := fs.Fsync(p); err != nil {
				t.Fatal(err)
			}
			if live = append(live, p); len(live) > 6 {
				if err := fs.Unlink(live[0]); err != nil {
					t.Fatal(err)
				}
				live = live[1:]
			}
			if fs.lay.sb.ReplicaNext < head {
				wraps++
			}
			head = fs.lay.sb.ReplicaNext
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		fs = remountCold(t, fs)
		res := NewResolver(d)
		failed := 0
		for blk := int64(0); blk < int64(fs.lay.sb.CksumStart); blk++ {
			if rawReplicaOf(t, d, fs, blk) == 0 {
				continue
			}
			failed++
			committed := rawBlock(t, d, blk)
			fs.DropCaches()
			rec.Reset()
			fdev.Arm(&faultinject.Fault{Class: iron.ReadFailure, Sticky: true, Range: faultinject.BlockRange{Start: blk, End: blk + 1}})
			fs.mu.Lock()
			got, err := fs.readMeta(blk, res.Classify(blk))
			fs.mu.Unlock()
			fdev.Disarm()
			if err != nil || !bytes.Equal(got, committed) {
				t.Fatalf("block %d with its home failed: %v, committed bytes %v", blk, err, bytes.Equal(got, committed))
			}
			if !rec.Recoveries().Has(iron.RRedundancy) {
				t.Fatalf("block %d read back without RRedundancy:\n%s", blk, rec.Summary())
			}
		}
		if failed < 5 {
			t.Fatalf("only %d replicated blocks to fail", failed)
		}
	})

	// One directory per commit, past the 64 slots. Each step is one
	// commit, so before it the map on the media is the committed one: the
	// step must write no slot that map names, even once every slot is live
	// and the blocks the commit moves free the only slots there are. A
	// block the commit cannot give a fresh slot has its entry cleared.
	// After every step each entry on the media names a replica equal to
	// its block, and each cleared one reads errNoRedundancy. A cold
	// remount halfway leaves the new mount only the map to learn the live
	// slots from.
	t.Run("exhaustion_clears_entry", func(t *testing.T) {
		d, log, _, _, fs := smallIron(t, smallOpts(16, 64), nil, nil)
		had, named := map[int64]bool{}, map[int64]bool{}
		cleared := 0
		for i := 0; i < 80; i++ {
			if i == 40 {
				fs = remountCold(t, fs)
			}
			log.cmds = nil
			dir := fmt.Sprintf("/x%03d", i)
			if err := fs.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			// A directory owns no block until its first entry.
			if err := fs.Create(dir+"/f", 0o644); err != nil {
				t.Fatal(err)
			}
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			for _, w := range log.writes() {
				if named[w.Block] {
					t.Fatalf("mkdir %d wrote replica slot %d, which the committed map names", i, w.Block)
				}
			}
			clear(named)
			for blk := int64(0); blk < int64(fs.lay.sb.CksumStart); blk++ {
				rep := rawReplicaOf(t, d, fs, blk)
				switch {
				case rep != 0:
					named[rep] = true
					had[blk] = true
					if !bytes.Equal(rawBlock(t, d, blk), rawBlock(t, d, rep)) {
						t.Fatalf("mkdir %d: block %d differs from its replica %d", i, blk, rep)
					}
				case had[blk]:
					cleared++
					fs.mu.Lock()
					_, err := fs.readReplica(blk, BTDir)
					fs.mu.Unlock()
					if !errors.Is(err, errNoRedundancy) {
						t.Fatalf("mkdir %d: block %d lost its slot but its replica reads %v", i, blk, err)
					}
				}
			}
			if got := fs.SpaceUsage().Replicas; got != int64(len(named)) {
				t.Fatalf("mkdir %d: census counts %d replicas, the map names %d", i, got, len(named))
			}
		}
		if cleared == 0 {
			t.Fatal("80 directories never exhausted the 64-slot replica log")
		}
		requireClean(t, fs)
	})

	// Mount reads the group descriptors before replay, through the map the
	// last checkpoint left at home, which can be older than the committed
	// map in the journal. After every commit of two laps around the log, a
	// crash image mounted with its descriptors unreadable must recover them
	// from that replica, with or without Mc, and end the mount holding the
	// descriptors replay left at home. A slot reused as soon as the
	// committed map stopped naming it fails here: with Mc the mount is
	// refused.
	for _, mc := range []bool{true, false} {
		t.Run(fmt.Sprintf("pre_replay_replica_Mc=%t", mc), func(t *testing.T) {
			opts := smallOpts(2, 256)
			opts.MetaChecksum = mc
			d, _, _, _, fs := smallIron(t, opts, nil, nil)
			if err := fs.Mkdir("/l", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := fs.Sync(); err != nil { // checkpoints a map naming the descriptors' replica
				t.Fatal(err)
			}
			for i, taken := 0, 0; taken < 2*64; i++ {
				if i == 200 {
					t.Fatalf("%d commits took only %d slots", i, taken)
				}
				p := fmt.Sprintf("/l/%03d", i)
				if err := fs.Create(p, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := fs.Write(p, 0, block(byte(i))); err != nil {
					t.Fatal(err)
				}
				if err := fs.Fsync(p); err != nil {
					t.Fatal(err)
				}
				taken += len(fs.rlog.moves)
				unreadable := &faultinject.Fault{Class: iron.ReadFailure, Sticky: true, Range: faultinject.BlockRange{Start: gdtBlock, End: gdtBlock + 1}}
				cd, _, _, rec, crashed := smallIron(t, opts, d.Snapshot(), unreadable)
				if !rec.Recoveries().Has(iron.RRedundancy) {
					t.Fatalf("commit %d: descriptors not recovered from their replica:\n%s", i, rec.Summary())
				}
				home := rawBlock(t, cd, gdtBlock)
				for g := range crashed.gds {
					var want groupDesc
					want.unmarshal(home[g*gdEncodedLen:])
					if crashed.gds[g] != want {
						t.Fatalf("commit %d: group %d mounted as %+v, %+v at home", i, g, crashed.gds[g], want)
					}
				}
			}
		})
	}

	// The I/O budget of one commit's replicas on disk → sched(32,
	// adaptive): a commit made while the head runs ahead through free
	// slots writes them in one command, however many commits came before;
	// so does the first commit of a volume whose head sits two slots from
	// the end of the area: the wrapped slots are two runs, at the area's
	// start and end, but the drain dispatches them in one ascending sweep,
	// which is one command (two when a drain went out a command per run).
	// Overwriting each block's one slot in place scattered them instead.
	for _, row := range []struct {
		name string
		warm int  // commits before the measured one
		wrap bool // start the measured commit two slots from the end
		cmds int
	}{
		{"one_command_per_commit", 2, false, 1},
		{"one_command_when_head_wraps", 0, true, 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			opts := AllIron()
			d, err := disk.New(8192, disk.DefaultGeometry(), disk.NewClock())
			if err != nil {
				t.Fatal(err)
			}
			if err := Mkfs(d, opts); err != nil {
				t.Fatal(err)
			}
			log := &ioLog{Device: d}
			s := sched.New(log, sched.Config{QueueDepth: 32, Policy: sched.PolicyAdaptive})
			fs := New(s, opts, iron.NewRecorder())
			if err := fs.Mount(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < row.warm; i++ {
				p := fmt.Sprintf("/w%d", i)
				if err := fs.Create(p, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := fs.Fsync(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := fs.Mkdir("/d", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := fs.Create("/a", 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Write("/a", 0, block('a')); err != nil {
				t.Fatal(err)
			}
			if row.wrap {
				fs.mu.Lock()
				fs.lay.sb.ReplicaNext = fs.lay.sb.ReplicaLen - 2
				fs.mu.Unlock()
			}
			log.cmds = nil
			if err := fs.Fsync("/a"); err != nil {
				t.Fatal(err)
			}
			if err := s.Barrier(); err != nil {
				t.Fatal(err)
			}
			k := len(fs.rlog.moves)
			cmds, written := 0, 0
			for _, c := range log.cmds {
				n := 0
				for _, r := range c {
					if _, ok := fs.slotOf(uint64(r.Block)); ok {
						n++
					}
				}
				if n > 0 {
					cmds++
					written += n
				}
			}
			if k < 4 || written != k {
				t.Fatalf("the commit logged %d replicas and wrote %d, want at least 4 and all of them", k, written)
			}
			if cmds != row.cmds {
				t.Fatalf("the commit's %d replicas left in %d disk commands, want %d", k, cmds, row.cmds)
			}
		})
	}
}
