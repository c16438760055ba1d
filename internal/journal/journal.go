// Package journal is the commit engine shared by the journaling file
// systems (ext3/ixt3, ReiserFS, JFS, NTFS). The paper's point about them is
// that they differ in failure policy and in log format — not in how a
// committer and its fsync waiters take turns. That turn-taking is a
// protocol whose intermediate states matter (running → frozen → written →
// durable), and it is stated once, here.
//
// A file system keeps what is genuinely its own behind the Committer
// interface: how a frozen transaction is encoded (JBD descriptor + revoke +
// commit block, reiser header ring, jfs redo records, ntfs logfile +
// restart area), the device writes that carry the encoding out, and the
// §5 failure-policy hook those writes degrade through.
package journal

import (
	"runtime"
	"sync"

	"ironfs/internal/disk"
	"ironfs/internal/stat"
	"ironfs/internal/trace"
	"ironfs/internal/vfs"
)

// yields is how many scheduler yields the committer grants, with the lock
// released, before freezing — the window in which concurrent clients join
// the transaction (JBD's commit-batching sleep, in yield form).
const yields = 8

// Plan is a frozen transaction: every device request materialized
// (payloads copied into frames from the process's pool, which the plan
// borrows; see Frozen) so the writes can proceed without the file-system lock. While a plan's I/O is in flight the running transaction keeps
// accepting operations — the JBD running/committing split — which is what
// lets concurrent clients pile into the next commit instead of stalling.
// Its contents are the file system's own; the engine only carries it from
// freeze to write to finish.
type Plan any

// Committer is the file system as the engine sees it. The Locked methods
// run with the file-system lock held; WritePlan runs with it released.
type Committer interface {
	// DirtyLocked reports whether the running transaction holds anything
	// to commit.
	DirtyLocked() bool
	// TouchedLocked reports whether the running transaction holds
	// uncommitted changes to the object an fsync named (an inode, object
	// or record number, widened to 64 bits).
	TouchedLocked(key uint64) bool
	// FreezeLocked materializes the running transaction into a Plan
	// numbered seq and installs a fresh running transaction. Every
	// payload is copied under the lock into a frame from the pool, so
	// later mutations of the cached buffers cannot tear the frozen
	// image; the file system recycles each frame after its last device
	// write. Journal-space reservations
	// made here are serialized, because freezes only run with no commit
	// in flight. An error comes with a nil plan; a nil plan with a nil
	// error means there was nothing to freeze.
	FreezeLocked(seq uint64) (Plan, error)
	// WritePlan issues the frozen transaction's device writes. It runs
	// without the lock — the engine serializes it against other commits —
	// and may touch only the plan's frozen payloads plus thread-safe
	// members (device, recorder, health, tracer). A failure must have
	// degraded the health state before it is returned: fsync waiters are
	// released regardless and learn of it only through the health gate.
	WritePlan(Plan) error
	// FinishLocked runs under the lock again once the plan is on disk:
	// unpin or queue for checkpoint what the plan carried, and recycle the
	// frames whose home writes are done. A failed WritePlan never gets
	// here, so its frames are dropped, not recycled.
	FinishLocked(Plan) error
}

// Engine coordinates one file system's committer and its fsync waiters,
// and reports its journal's commits, checkpoints, replays and fsync waits.
// All methods other than New are called with the file-system lock held.
type Engine struct {
	//iron:lockorder 10 the owning file system's big lock under its engine-side name; callers hold it on entry
	mu     sync.Locker
	health *vfs.Health
	// clk is the stack's simulated clock (nil over clockless devices);
	// fsyncWait records on it how long Fsync callers waited.
	clk *disk.Clock
	tr  *trace.Tracer
	// The registry's fs_*{fs=name} handles, resolved by New.
	commits, checkpoints, replays *stat.Counter
	txnBlocks, fsyncWait          *stat.Histogram

	// committing is true while a frozen transaction's device writes are in
	// flight with the lock released. It serializes commits (and the
	// checkpoints they trigger) against each other while letting the
	// running transaction keep accepting operations. done is signalled
	// when it clears.
	committing bool
	done       *sync.Cond
	// seq is the last commit sequence handed to a freeze; durable is the
	// last one whose device writes have finished. durable trails seq
	// exactly while a commit is in flight; fsync waiters wait on it
	// rather than on committing, so a stream of back-to-back commits from
	// a busy client cannot starve them.
	seq, durable uint64
}

// New returns the engine for the file system guarded by mu, which reports
// on clk and tr and is named name in its metrics.
func New(mu sync.Locker, health *vfs.Health, clk *disk.Clock, tr *trace.Tracer, name string) *Engine {
	return &Engine{mu: mu, health: health, clk: clk, tr: tr, done: sync.NewCond(mu),
		commits:     stat.C("fs_commits_total", "fs", name),
		checkpoints: stat.C("fs_checkpoints_total", "fs", name),
		replays:     stat.C("fs_replays_total", "fs", name),
		txnBlocks:   stat.H("fs_txn_blocks", "fs", name),
		fsyncWait:   stat.H("fs_fsync_wait_ns", "fs", name),
	}
}

// Committed reports the transaction FreezeLocked is freezing as seq: a
// "commit" phase in the trace, detail seq=N and then each of blocks as
// name=count, and one fs_commits_total and one fs_txn_blocks observation
// of the blocks' sum.
func (e *Engine) Committed(seq uint64, blocks ...trace.Field) {
	f := [3]trace.Field{trace.F("seq", int(seq))}
	var n int64
	for _, b := range blocks {
		n += b.Value
	}
	e.commits.Inc()
	e.txnBlocks.Observe(n)
	e.tr.PhaseN("commit", append(f[:1], blocks...)...)
}

// Checkpointed reports a checkpoint pass over pending committed
// transactions: a "checkpoint" phase and one fs_checkpoints_total.
func (e *Engine) Checkpointed(pending int) {
	e.checkpoints.Inc()
	e.tr.PhaseN("checkpoint", trace.F("pending", pending))
}

// Replayed reports a journal replay at mount: a "replay" phase with the
// given detail and one fs_replays_total.
func (e *Engine) Replayed(detail string) {
	e.replays.Inc()
	e.tr.Phase("replay", detail)
}

// Seq returns the sequence number of the last frozen transaction.
func (e *Engine) Seq() uint64 { return e.seq }

// Recovered sets the sequence space at mount: seq is the last sequence the
// journal superblock or replay accounts for. Everything up to it is on
// disk, so it is the durable sequence too — an fsync waiter for a
// pre-mount sequence must not park forever.
func (e *Engine) Recovered(seq uint64) { e.seq, e.durable = seq, seq }

// Commit commits the running transaction in three phases: freeze (under
// the lock) materializes the plan and installs a fresh running transaction;
// the device writes happen with the lock RELEASED, serialized against
// other commits by e.committing; finish (under the lock again) does the
// file system's post-commit bookkeeping. Callers hold the lock and get it
// back on return, but must tolerate the window — every caller commits at
// the end of its operation, with no state carried across the call.
func (e *Engine) Commit(c Committer) error {
	for e.committing {
		e.done.Wait()
	}
	if !c.DirtyLocked() {
		return nil
	}
	if err := e.health.CheckWrite(); err != nil {
		return err
	}
	// Commit batching: before freezing, release the lock and yield so
	// other clients mid-operation can finish joining the running
	// transaction — their fsyncs then ride this commit instead of paying
	// for their own. A lone caller loses nothing: the yields return
	// immediately and the transaction freezes unchanged.
	e.committing = true
	e.mu.Unlock()
	for i := 0; i < yields; i++ {
		runtime.Gosched()
	}
	e.mu.Lock()
	plan, err := c.FreezeLocked(e.seq + 1)
	if plan != nil {
		e.seq++
		e.mu.Unlock()
		err = c.WritePlan(plan)
		e.mu.Lock()
		// Advance even on a failed write: waiters must not hang, and the
		// failure surfaces through the health state they re-check.
		e.durable = e.seq
	}
	e.committing = false
	e.done.Broadcast()
	if err != nil || plan == nil {
		return err
	}
	return c.FinishLocked(plan)
}

// Fsync makes the state of the object named key durable. When that state
// already reached the journal — typically because another client's fsync
// committed the shared running transaction moments ago — there is nothing
// left to make durable and the call returns without a commit. That skip is
// what turns concurrent fsync-heavy clients into a group commit: the first
// fsync in a window pays for the batch, the rest ride along free.
//
// If the running transaction does not hold the object, its state is
// durable or riding the in-flight commit — wait for that specific
// sequence, not for e.committing to clear. If the object is in the running
// transaction while a commit is writing, wait and re-check: the next
// freeze usually carries it, making this fsync free.
func (e *Engine) Fsync(c Committer, key uint64) error {
	for {
		if !c.TouchedLocked(key) {
			for need := e.seq; e.durable < need; {
				e.done.Wait()
			}
			return e.health.CheckWrite()
		}
		if !e.committing {
			return e.Commit(c)
		}
		e.done.Wait()
	}
}

// BeginFsync and EndFsync bracket an Fsync call for the FsyncWait metric:
// everything between them — resolving the path, waiting out in-flight
// commits, and any commit the call pays for — is durability latency the
// caller experienced. Use as
//
//	defer fs.jn.EndFsync(fs.jn.BeginFsync())
func (e *Engine) BeginFsync() int64 {
	if e.clk == nil {
		return 0
	}
	return int64(e.clk.Now())
}

// EndFsync records the wait since start; see BeginFsync.
func (e *Engine) EndFsync(start int64) {
	if e.clk != nil {
		e.fsyncWait.Observe(int64(e.clk.Now()) - start)
	}
}
