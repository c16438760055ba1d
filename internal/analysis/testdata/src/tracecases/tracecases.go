// Package tracecases is the tracecheck analyzer corpus: phase-named
// functions in a traced package that emit directly, through a
// same-package helper, through the recorder bridge, through a shared
// engine's callback interface or its emission call, not at all, or not at
// all with a waiver.
package tracecases

import (
	"enginekit"
	"tracekit"
)

type FS struct {
	tr  *tracekit.Tracer
	rec *tracekit.Recorder
	log []int64
}

// commitGood emits a phase event directly.
func (fs *FS) commitGood() error {
	fs.tr.Phase("commit", "")
	return nil
}

// replayViaHelper emits through a same-package helper: the closure is
// transitive within the package.
func (fs *FS) replayViaHelper() error {
	fs.emit()
	return nil
}

func (fs *FS) emit() {
	fs.tr.IO("replay", 0)
}

// scrubViaRecorder emits through the recorder bridge.
func (fs *FS) scrubViaRecorder() {
	fs.rec.Detect("checksum mismatch")
}

// badCheckpoint is a checkpoint phase that emits nothing.
func (fs *FS) badCheckpoint() error { // want tracecheck: silent phase
	fs.log = append(fs.log, 1)
	return nil
}

// dispatchQuiet is deliberately silent; the waiver carries the reason.
//
//iron:traceok corpus: the caller emits one aggregate event for the whole batch
func (fs *FS) dispatchQuiet() {
	fs.log = fs.log[:0]
}

// helperTick has no phase hint in its name, so silence is fine.
func (fs *FS) helperTick() {
	fs.log = append(fs.log, 2)
}

// commitViaEngine delegates to a shared engine that calls fs.Freeze back
// through enginekit.Committer; the callback edge makes Freeze's emit count
// as a same-package callee.
func (fs *FS) commitViaEngine(eng *enginekit.Engine) error {
	return eng.Run(fs)
}

// syncViaEngine hands fs to the engine's Commit, which reaches Freeze's
// emit only through the callback.
func (fs *FS) syncViaEngine(eng *enginekit.Engine) error {
	return eng.Commit(fs)
}

// flushViaEngine hands the engine's Checkpoint a Flusher that emits
// nothing.
func (fs *FS) flushViaEngine(eng *enginekit.Engine) error {
	return eng.Checkpoint(mute{})
}

// Freeze implements enginekit.Committer and emits.
func (fs *FS) Freeze() error {
	fs.tr.Phase("commit", "frozen")
	return nil
}

// mute implements enginekit.Committer and enginekit.Flusher without
// emitting.
type mute struct{}

func (mute) Freeze() error { return nil }

// Flush implements enginekit.Flusher without emitting.
func (mute) Flush() error { return nil }

// replayViaReport emits only through the engine's emission call.
func (fs *FS) replayViaReport(eng *enginekit.Engine) {
	eng.Replayed()
}

// badReplayViaEngine calls the engine, but not an emission call.
func (fs *FS) badReplayViaEngine(eng *enginekit.Engine) int { // want tracecheck: an engine call that is not an emission call
	return eng.Seq()
}

// badCommitViaEngine hands the engine a callback that emits nothing.
func (fs *FS) badCommitViaEngine(eng *enginekit.Engine) error { // want tracecheck: silent phase behind a callback
	return eng.Run(mute{})
}
