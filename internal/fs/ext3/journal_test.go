package ext3

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"ironfs/internal/disk"
	"ironfs/internal/iron"
	"ironfs/internal/journal"
	"ironfs/internal/vfs"
)

// commitWithoutCheckpoint drives the FS into the committed-but-not-yet-
// checkpointed state: committed metadata sits frozen in fs.pending while
// the cache buffers stay live for the running transaction to re-dirty.
func commitWithoutCheckpoint(t *testing.T, fs *FS) {
	t.Helper()
	fs.mu.Lock()
	err := fs.commitLocked()
	fs.mu.Unlock()
	if err != nil {
		t.Fatalf("commitLocked: %v", err)
	}
}

// TestCheckpointWritesFrozenCommitState pins the checkpoint to the image
// frozen at commit time. The running transaction re-dirties a committed
// block during the commit window; a checkpoint that reads the live cache
// would write that uncommitted state to the home location (and a crash
// would then expose it, unrecoverably, since the checkpoint also resets
// the journal).
func TestCheckpointWritesFrozenCommitState(t *testing.T) {
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
	if err := fs.Create("/a", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	// Commit /b but do not checkpoint; then re-dirty the same metadata
	// (root dir block, inode table, bitmaps) with the uncommitted /c.
	if err := fs.Create("/b", 0o644); err != nil {
		t.Fatal(err)
	}
	commitWithoutCheckpoint(t, fs)
	if err := fs.Create("/c", 0o644); err != nil {
		t.Fatal(err)
	}

	fs.mu.Lock()
	frozen := map[int64][]byte{}
	for _, e := range fs.pending.entries {
		if e.data != nil {
			frozen[e.home] = append([]byte(nil), e.data...)
		}
	}
	cperr := fs.checkpointLocked()
	fs.mu.Unlock()
	if cperr != nil {
		t.Fatalf("checkpointLocked: %v", cperr)
	}
	if len(frozen) == 0 {
		t.Fatal("commit queued no checkpoint entries")
	}

	// Every home location must hold the committed image, byte for byte —
	// not the running transaction's live buffer.
	buf := make([]byte, BlockSize)
	for blk, want := range frozen {
		if err := d.ReadBlock(blk, buf); err != nil {
			t.Fatalf("ReadBlock(%d): %v", blk, err)
		}
		if !bytes.Equal(buf, want) {
			t.Errorf("block %d: checkpoint wrote live cache state, not the frozen committed image", blk)
		}
	}

	// Crash here (abandon the instance). The journal was reset by the
	// checkpoint, so the image alone must show exactly the committed
	// history: /a and /b exist, the uncommitted /c does not.
	fs2 := New(d, Options{}, nil)
	if err := fs2.Mount(); err != nil {
		t.Fatalf("recovery mount: %v", err)
	}
	for _, p := range []string{"/a", "/b"} {
		if _, err := fs2.Stat(p); err != nil {
			t.Errorf("Stat(%s) after crash: %v", p, err)
		}
	}
	if _, err := fs2.Stat("/c"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("uncommitted /c visible after crash: err=%v", err)
	}
	if err := fs2.Unmount(); err != nil {
		t.Fatal(err)
	}
	if err := CheckImage(d, Options{}); err != nil {
		t.Errorf("oracle after checkpoint+crash: %v", err)
	}
}

// TestCheckpointKeepsRunningTxnPinned is the continue branch of the same
// scenario: after the checkpoint, the re-dirtied blocks still belong to the
// running transaction, which must commit them normally.
func TestCheckpointKeepsRunningTxnPinned(t *testing.T) {
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
	if err := fs.Create("/b", 0o644); err != nil {
		t.Fatal(err)
	}
	commitWithoutCheckpoint(t, fs)
	if err := fs.Create("/c", 0o644); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	cperr := fs.checkpointLocked()
	// The re-dirtied metadata must still be registered dirty in the cache
	// for the running transaction (MarkDirty reports presence; a wrongly
	// MarkCleaned block would be evictable and journal zeros later).
	for i := 0; i < fs.tx.Meta.Len(); i++ {
		blk := fs.tx.Meta.Block(i)
		if !fs.cache.MarkDirty(blk) {
			t.Errorf("running-txn metadata block %d lost from cache after checkpoint", blk)
		}
	}
	fs.mu.Unlock()
	if cperr != nil {
		t.Fatalf("checkpointLocked: %v", cperr)
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("Sync after checkpoint: %v", err)
	}
	fs2 := New(d, Options{}, nil)
	if err := fs2.Mount(); err != nil {
		t.Fatalf("recovery mount: %v", err)
	}
	if _, err := fs2.Stat("/c"); err != nil {
		t.Errorf("Stat(/c) after commit+crash: %v", err)
	}
}

// barrierFailDev fails Barrier on demand, passing everything else through.
type barrierFailDev struct {
	disk.Device
	fail atomic.Bool
}

var errBarrier = errors.New("injected barrier failure")

func (d *barrierFailDev) Barrier() error {
	if d.fail.Load() {
		return errBarrier
	}
	return d.Device.Barrier()
}

// TestBarrierFailureDegradesHealth: a failed ordering barrier during commit
// must abort the journal, so no later fsync can report durability for the
// failed commit.
func TestBarrierFailureDegradesHealth(t *testing.T) {
	d, err := disk.New(8192, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(d, Options{}); err != nil {
		t.Fatal(err)
	}
	fd := &barrierFailDev{Device: d}
	fs := New(fd, Options{}, iron.NewRecorder())
	if err := fs.Mount(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("/f", 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}

	fd.fail.Store(true)
	if err := fs.Fsync("/f"); err == nil {
		t.Fatal("Fsync succeeded despite barrier failure")
	}
	if st := fs.Health(); st == vfs.Healthy {
		t.Fatal("health still Healthy after commit barrier failure")
	}
	// The regression: with the durable sequence advanced past the failed commit, a
	// second fsync must not report the data durable.
	if err := fs.Fsync("/f"); err == nil {
		t.Fatal("Fsync reported durability for a commit whose barrier failed")
	}
}

// TestRunningTxnCappedWhileCommitInFlight: while a commit is writing with
// fs.mu released, joining operations must not grow the running transaction
// past the commit threshold — unbounded growth would overflow the single
// descriptor block a frozen transaction gets (journal.MaxTags tags).
func TestRunningTxnCappedWhileCommitInFlight(t *testing.T) {
	d, err := disk.New(8192, disk.DefaultGeometry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mkfs(d, Options{}); err != nil {
		t.Fatal(err)
	}
	sd := &stallDev{Device: d, stalled: make(chan struct{}), release: make(chan struct{})}
	fs := New(sd, Options{}, iron.NewRecorder())
	if err := fs.Mount(); err != nil {
		t.Fatal(err)
	}

	// Pre-create the directories with commits enabled; the file created in
	// each later dirties that directory's own dir block, so every create
	// below registers at least one distinct metadata block.
	const dirs = 150
	for i := 0; i < dirs; i++ {
		if err := fs.Mkdir(fmt.Sprintf("/d%03d", i), 0o755); err != nil {
			t.Fatalf("Mkdir %d: %v", i, err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	// Hold a real commit in flight: its first barrier stalls in the device
	// with fs.mu released. Operations keep joining the running transaction
	// until it reaches the cap, then block in commitLocked.
	if err := fs.Create("/seed", 0o644); err != nil {
		t.Fatal(err)
	}
	sd.arm.Store(true)
	syncDone := make(chan error, 1)
	go func() { syncDone <- fs.Sync() }()
	<-sd.stalled

	maxSeen := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < dirs; i++ {
			if err := fs.Create(fmt.Sprintf("/d%03d/f", i), 0o644); err != nil {
				t.Errorf("Create %d: %v", i, err)
				return
			}
			fs.mu.Lock()
			if n := fs.tx.Meta.Len(); n > maxSeen {
				maxSeen = n
			}
			fs.mu.Unlock()
		}
	}()

	select {
	case <-done:
		// Never blocked: the cap never engaged, so every Create piled into
		// the running transaction — maxSeen below will tell.
	case <-time.After(200 * time.Millisecond):
		// Blocked waiting for the in-flight commit, as intended.
	}
	close(sd.release)
	<-done
	if err := <-syncDone; err != nil {
		t.Fatalf("stalled Sync: %v", err)
	}

	// Allow generous per-operation overshoot above the threshold, but the
	// transaction must stay far below the descriptor block's capacity.
	if maxSeen >= maxTxnMeta+32 {
		t.Errorf("running transaction grew to %d metadata blocks while a commit was in flight (cap %d)",
			maxSeen, maxTxnMeta)
	}
	if maxSeen > journal.MaxTags {
		t.Errorf("running transaction overflowed descriptor capacity: %d tags", maxSeen)
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatalf("Unmount: %v", err)
	}
}

// stallDev parks the first Barrier issued after arm is set until release
// is closed, announcing the stall on stalled: a commit held in flight.
type stallDev struct {
	disk.Device
	arm     atomic.Bool
	stalled chan struct{}
	release chan struct{}
}

func (d *stallDev) Barrier() error {
	if d.arm.CompareAndSwap(true, false) {
		close(d.stalled)
		<-d.release
	}
	return d.Device.Barrier()
}

// pinned renders a journal block as the hex of everything up to its last
// nonzero byte.
func pinned(b []byte) string {
	return hex.EncodeToString(bytes.TrimRight(b, "\x00"))
}

// TestJournalFormatPinned holds the journal's on-disk bytes — superblock,
// revoke block, descriptor, commit block with and without Tc — to what
// this package's own encoders produced for the same transaction before
// journal.Ring's shared codec replaced them.
func TestJournalFormatPinned(t *testing.T) {
	for _, tc := range []bool{false, true} {
		fs, _ := newTestFS(t, Options{TxnChecksum: tc})
		fs.mu.Lock()
		for _, blk := range []int64{3, 0x0A0B0C0D0E0F, 510} {
			fs.txMetaNew(blk, BTIndirect)
		}
		fs.revoke(77)
		fs.revoke(0x0102030405)
		p, err := fs.FreezeLocked(0x1122334455667788)
		fs.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		plan := p.(*commitPlan)
		commit, wantCommit := plan.commit.Data, "02393bc0030000008877665544332211"
		if tc {
			commit, wantCommit = plan.jReqs[len(plan.jReqs)-1].Data, "02393bc00300000088776655443322112a4eecad4e4f5249"
		}
		for _, c := range []struct{ what, got, want string }{
			{"revoke block", pinned(plan.jReqs[0].Data), "03393bc00200000088776655443322114d000000000000000504030201"},
			{"descriptor", pinned(plan.jReqs[1].Data), "01393bc003000000887766554433221103000000000000000f0e0d0c0b0a0000fe01"},
			{"commit", pinned(commit), wantCommit},
		} {
			if c.got != c.want {
				t.Errorf("Tc=%v %s = %s, want %s", tc, c.what, c.got, c.want)
			}
		}
		if !slices.Equal(plan.jTypes[:3], []iron.BlockType{BTJRevoke, BTJDesc, BTJData}) {
			t.Errorf("Tc=%v journal writes typed %v", tc, plan.jTypes)
		}
	}
	js := journal.Header{Magic: jMagicSuper, StartRel: 7, StartSeq: 0x0102030405060708}.Block()
	if got, want := pinned(js), "98393bc00000000007000000000000000807060504030201"; got != want {
		t.Errorf("journal superblock = %s, want %s", got, want)
	}
}
