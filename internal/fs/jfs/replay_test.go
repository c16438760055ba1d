package jfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ironfs/internal/disk"
	"ironfs/internal/faultinject"
	"ironfs/internal/iron"
	"ironfs/internal/journal"
	"ironfs/internal/sched"
	"ironfs/internal/vfs"
)

// refTxnRecords is the size, in redo records, of each transaction the
// reference replay applied: what lets TestReplayMatchesRecordAtATime show
// it compared a full transaction and not only short ones.
var refTxnRecords []int

// replayLogRecordAtATime is replayLog as it stood before the two-pass
// replay, kept verbatim as the reference (the append to refTxnRecords is
// the one line added): at each commit record it brings the transaction home
// one redo record at a time — read the home block, patch, write.
func (fs *FS) replayLogRecordAtATime() error {
	fs.jn.Replayed("jfs")
	if err := fs.loadLogSuper(); err != nil {
		return err
	}
	base := fs.ring.Base
	le := binary.LittleEndian
	rel := fs.ring.Head()
	seq := fs.jn.Seq() + 1

	var pending []redoRec
scan:
	for rel < fs.ring.Len {
		buf := make([]byte, BlockSize)
		if err := fs.dev.ReadBlock(base+rel, buf); err != nil {
			fs.rec.Detect(iron.DErrorCode, BTJData, "log read failed during recovery")
			fs.rec.Recover(iron.RPropagate, BTJData, "mount fails")
			fs.rec.Recover(iron.RStop, BTJData, "recovery aborted")
			return vfs.ErrIO
		}
		off := 0
		for off+recHdrLen <= BlockSize {
			typ := buf[off]
			if typ == 0 {
				if off == 0 {
					break scan // an untouched block: end of log
				}
				break // end of this block's records; txns continue next block
			}
			plen := int(le.Uint16(buf[off+2:]))
			if off+recHdrLen+plen > BlockSize {
				fs.rec.Detect(iron.DSanity, BTJData, "log record overflows block")
				fs.rec.Recover(iron.RStop, BTJData, "replay aborted")
				break scan
			}
			switch typ {
			case recRedo:
				blk := int64(le.Uint64(buf[off+4:]))
				boff := int(le.Uint16(buf[off+12:]))
				if blk < 0 || blk >= fs.dev.NumBlocks() || boff+plen > BlockSize {
					fs.rec.Detect(iron.DSanity, BTJData, "log record out of range")
					fs.rec.Recover(iron.RStop, BTJData, "replay aborted")
					break scan
				}
				data := make([]byte, plen)
				copy(data, buf[off+recHdrLen:])
				pending = append(pending, redoRec{Blk: blk, Off: boff, Data: data})
			case recCommit:
				if plen != 8 || le.Uint64(buf[off+recHdrLen:]) != seq {
					fs.rec.Detect(iron.DSanity, BTJData, "commit record sequence mismatch")
					fs.rec.Recover(iron.RStop, BTJData, "replay aborted")
					break scan
				}
				refTxnRecords = append(refTxnRecords, len(pending))
				// Apply the committed record set.
				for _, r := range pending {
					img := make([]byte, BlockSize)
					if err := fs.dev.ReadBlock(r.Blk, img); err != nil {
						fs.rec.Detect(iron.DErrorCode, BTJData, "home read failed during replay")
						fs.rec.Recover(iron.RStop, BTJData, "replay aborted")
						return vfs.ErrIO
					}
					copy(img[r.Off:], r.Data)
					if err := fs.devWrite(r.Blk, img, BTData); err != nil {
						return err
					}
				}
				pending = nil
				seq++
			default:
				fs.rec.Detect(iron.DSanity, BTJData, "unknown log record type")
				fs.rec.Recover(iron.RStop, BTJData, "replay aborted")
				break scan
			}
			off += recHdrLen + plen
		}
		rel++
	}
	if err := fs.dev.Barrier(); err != nil {
		return vfs.ErrIO
	}
	lb := journal.Header{Magic: jMagic, Version: 1, StartRel: 1, StartSeq: seq}.Block()
	if err := fs.devWrite(base, lb, BTJSuper); err != nil {
		return err
	}
	fs.jn.Recovered(seq - 1)
	fs.ring.Reset()
	return nil
}

// mountRecordAtATime is Mount over a crashed image on a healthy device —
// its reads of the superblock, aggregate inode table, block-map descriptor
// and inode-map control page, and the superblock write that ends it, with
// the failure paths left out — with the reference replay in replayLog's
// place, so that nothing the reference side does runs the code under test.
func mountRecordAtATime(t *testing.T, fs *FS) {
	t.Helper()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	buf := make([]byte, BlockSize)
	read := func(blk int64) []byte {
		if err := fs.dev.ReadBlock(blk, buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	fs.sb.unmarshal(read(sbPrimary))
	var at aggrTable
	at.unmarshal(read(aggrPrimary))
	fs.bmd.unmarshal(read(int64(at.BMapDesc)))
	fs.imc.unmarshal(read(int64(at.IMapCtl)))
	if fs.sb.Clean != 0 {
		t.Fatal("the image was unmounted cleanly: nothing to replay")
	}
	if err := fs.replayLogRecordAtATime(); err != nil {
		t.Fatalf("reference replay: %v", err)
	}
	fs.tx = journal.NewTxn[uint32](fs.cache)
	clear(buf)
	fs.sb.marshal(buf)
	if err := fs.devWrite(sbPrimary, buf, BTSuper); err != nil {
		t.Fatal(err)
	}
	fs.mounted = true
}

const (
	replayBlocks  = 1024
	replayClients = 6
	replayFiles   = 32 // per client
	replayDepth   = 32
)

type replayOp struct {
	verb string // mkdir, create, write, fsync, unlink
	path string
	off  int64
	data []byte
}

// replayChurn is the op streams of replayClients clients, each in a
// directory of its own: create, write one to three blocks, now and then
// fsync, unlink the oldest once four files are live. Fsyncs are rare, so
// most transactions run to the maxTxnRecords cap. Every client's first file
// is past the inode's direct extents and keeps growing through the run, so
// its pointer block — and the bitmap words under it — are patched many
// times in one transaction. Those files come before the first unlink, so
// their pointer blocks land on blocks nothing has used.
func replayChurn(seed int64) [][]replayOp {
	rng := rand.New(rand.NewSource(seed))
	payload := func(blocks int) []byte {
		b := make([]byte, blocks*BlockSize)
		rng.Read(b)
		return b
	}
	streams := make([][]replayOp, replayClients)
	for c := range streams {
		dir := fmt.Sprintf("/c%d", c)
		big := dir + "/big"
		bigBlocks := directExts + 2 + rng.Intn(4)
		ops := []replayOp{
			{verb: "mkdir", path: dir},
			{verb: "create", path: big},
			{verb: "write", path: big, data: payload(bigBlocks)},
		}
		var live []string
		for i := 0; i < replayFiles; i++ {
			p := fmt.Sprintf("%s/f%d", dir, i)
			ops = append(ops, replayOp{verb: "create", path: p},
				replayOp{verb: "write", path: p, data: payload(1 + rng.Intn(3))})
			live = append(live, p)
			if rng.Intn(24) == 0 {
				ops = append(ops, replayOp{verb: "fsync", path: p})
			}
			if i%6 == 5 {
				ops = append(ops, replayOp{verb: "write", path: big, off: int64(bigBlocks) * BlockSize, data: payload(1)})
				bigBlocks++
			}
			if len(live) > 4 {
				ops = append(ops, replayOp{verb: "unlink", path: live[0]})
				live = live[1:]
			}
		}
		streams[c] = ops
	}
	return streams
}

// barrierLog notes how many writes had reached the media at each barrier.
type barrierLog struct {
	*faultinject.CrashDevice
	at []int64
}

func (b *barrierLog) Barrier() error {
	b.at = append(b.at, b.Written())
	return b.CrashDevice.Barrier()
}

// runReplayChurn restores the formatted image onto a fresh disk, mounts JFS
// on disk → CrashDevice(limit) → sched(depth 32, adaptive) and runs the
// streams in lockstep until they end or the device is cut. JFS drops write
// errors, so the churn only notices the cut at its next barrier or read;
// nothing after the cut reaches the media either way.
func runReplayChurn(t *testing.T, formatted []byte, streams [][]replayOp, limit int64) (*disk.Disk, *barrierLog) {
	t.Helper()
	d := restoredDisk(t, formatted)
	cut := &barrierLog{CrashDevice: faultinject.NewCrashDevice(d, limit)}
	fs := New(sched.New(cut, sched.Config{QueueDepth: replayDepth, Policy: sched.PolicyAdaptive}), iron.NewRecorder())
	if err := fs.Mount(); err != nil {
		if cut.Crashed() {
			return d, cut
		}
		t.Fatalf("mount before the churn: %v", err)
	}
	for i, more := 0, true; more && !cut.Crashed(); i++ {
		more = false
		for _, ops := range streams {
			if i >= len(ops) || cut.Crashed() {
				continue
			}
			more = true
			o := ops[i]
			var err error
			switch o.verb {
			case "mkdir":
				err = fs.Mkdir(o.path, 0o755)
			case "create":
				err = fs.Create(o.path, 0o644)
			case "write":
				_, err = fs.Write(o.path, o.off, o.data)
			case "fsync":
				err = fs.Fsync(o.path)
			case "unlink":
				err = fs.Unlink(o.path)
			}
			if err != nil && !cut.Crashed() {
				t.Fatalf("%s %s: %v", o.verb, o.path, err)
			}
		}
	}
	return d, cut
}

func restoredDisk(t *testing.T, image []byte) *disk.Disk {
	t.Helper()
	d, err := disk.New(int64(len(image)/BlockSize), disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Restore(image); err != nil {
		t.Fatal(err)
	}
	return d
}

// replayBoth mounts one crashed image twice on the scheduler stack bench and
// serve run, once with replayLog and once with the record-at-a-time
// reference, each on its own restored disk, and requires the same bytes on
// the media and the same events in the recorder once a Sync and a scheduler
// barrier have brought everything home, and an image that checks clean. It
// returns the sizes of the transactions the reference replayed.
func replayBoth(t *testing.T, when string, image []byte) []int {
	t.Helper()
	mount := func(reference bool) (*disk.Disk, []iron.Event) {
		d := restoredDisk(t, image)
		s := sched.New(d, sched.Config{QueueDepth: replayDepth, Policy: sched.PolicyAdaptive})
		fs := New(s, iron.NewRecorder())
		if reference {
			mountRecordAtATime(t, fs)
		} else if err := fs.Mount(); err != nil {
			t.Fatalf("%s: recovery mount: %v", when, err)
		}
		events := fs.rec.Events()
		if err := fs.Sync(); err != nil {
			t.Fatalf("%s: sync after recovery: %v", when, err)
		}
		if err := s.Barrier(); err != nil {
			t.Fatal(err)
		}
		return d, events
	}
	refTxnRecords = nil
	want, wantEvents := mount(true)
	got, gotEvents := mount(false)

	if a, b := got.Snapshot(), want.Snapshot(); !bytes.Equal(a, b) {
		for blk := 0; ; blk++ {
			if x, y := a[blk*BlockSize:][:BlockSize], b[blk*BlockSize:][:BlockSize]; !bytes.Equal(x, y) {
				i := 0
				for x[i] == y[i] {
					i++
				}
				t.Fatalf("%s: block %d differs from the record-at-a-time replay at byte %d: % x, reference % x",
					when, blk, i, x[i:min(i+8, BlockSize)], y[i:min(i+8, BlockSize)])
			}
		}
	}
	if !reflect.DeepEqual(gotEvents, wantEvents) {
		t.Fatalf("%s: recovery recorded %v, the record-at-a-time replay %v", when, gotEvents, wantEvents)
	}
	if err := New(got, iron.NewRecorder()).Oracle(); err != nil {
		t.Fatalf("%s: image after recovery: %v", when, err)
	}
	return refTxnRecords
}

// TestReplayMatchesRecordAtATime holds the two-pass replay to the
// record-at-a-time one it replaced, over the images a seeded churn leaves
// when it is cut at every seventh device write and at every commit barrier.
func TestReplayMatchesRecordAtATime(t *testing.T) {
	blank, err := disk.New(replayBlocks, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(blank); err != nil {
		t.Fatal(err)
	}
	formatted := blank.Snapshot()
	streams := replayChurn(0x1207)

	end, whole := runReplayChurn(t, formatted, streams, -1)
	cuts := slices.Clone(whole.at)
	for k := int64(7); k <= whole.Written(); k += 7 {
		cuts = append(cuts, k)
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)

	replayed, txns, largest := 0, 0, 0
	for _, k := range cuts {
		crashed, _ := runReplayChurn(t, formatted, streams, k)
		sizes := replayBoth(t, fmt.Sprintf("cut %d", k), crashed.Snapshot())
		if len(sizes) > 0 {
			replayed++
		}
		txns += len(sizes)
		largest = max(largest, slices.Max(append(sizes, 0)))
	}
	// Not vacuous: some cut must have left a transaction that ran to the
	// cap in the log, and a fair share of the cuts something to replay.
	if largest < maxTxnRecords {
		t.Errorf("largest transaction replayed holds %d records; want one that ran to the cap of %d", largest, maxTxnRecords)
	}
	if replayed < len(cuts)/4 {
		t.Errorf("%d of %d cuts left a committed transaction to replay; want at least a quarter", replayed, len(cuts))
	}
	t.Logf("%d cuts over %d device writes, %d with a committed transaction in the log, %d transactions replayed, largest %d records",
		len(cuts), whole.Written(), replayed, txns, largest)

	// A crash leaves at most one committed transaction short of its
	// checkpoint, so the cuts above never patch a home block from two.
	// Rewinding the log superblock of the churn's last image to the
	// transaction at the front of the ring makes one mount replay every
	// transaction since the log last wrapped, the later ones patching the
	// images the earlier ones read.
	image := end.Snapshot()
	var sb superblock
	sb.unmarshal(image)
	logBase := int(sb.LogStart) * BlockSize
	front, ok := firstCommitSeq(image[logBase+BlockSize : logBase+int(sb.LogLen)*BlockSize])
	if !ok {
		t.Fatal("no commit record at the front of the log ring")
	}
	copy(image[logBase:], journal.Header{Magic: jMagic, Version: 1, StartRel: 1, StartSeq: front}.Block())
	if sizes := replayBoth(t, "rewound log", image); len(sizes) < 2 {
		t.Errorf("the rewound log replayed %d transactions; want several", len(sizes))
	} else {
		t.Logf("rewound log: %d transactions replayed in one mount", len(sizes))
	}
}

// firstCommitSeq walks the records of a run of log blocks and returns the
// sequence number in the first commit record.
func firstCommitSeq(log []byte) (uint64, bool) {
	le := binary.LittleEndian
	for ; len(log) >= BlockSize; log = log[BlockSize:] {
		for off := 0; off+recHdrLen <= BlockSize && log[off] != 0; {
			plen := int(le.Uint16(log[off+2:]))
			if log[off] == recCommit {
				return le.Uint64(log[off+recHdrLen:]), true
			}
			off += recHdrLen + plen
		}
	}
	return 0, false
}
