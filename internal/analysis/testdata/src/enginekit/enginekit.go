// Package enginekit is a miniature stand-in for ironfs/internal/journal: a
// traced, shared engine that drives its caller back through an interface
// the engine's own package declares — the callback shape the call graph
// resolves.
package enginekit

import "tracekit"

// Committer is what the engine calls back.
type Committer interface {
	Freeze() error
}

// Flusher is what the engine's checkpoint calls back.
type Flusher interface {
	Flush() error
}

// Engine runs a commit protocol over a Committer and reports the
// journal's events on its callers' behalf.
type Engine struct {
	tr           *tracekit.Tracer
	replays, seq int
}

// Run freezes through the callback.
func (e *Engine) Run(c Committer) error { return c.Freeze() }

// Commit emits nothing itself: the Committer its callers hand it reports
// the commit (tracecases.FS.Freeze), from another package.
func (e *Engine) Commit(c Committer) error {
	e.seq++
	return c.Freeze()
}

// Checkpoint calls back a Flusher, and no Flusher handed to it emits.
func (e *Engine) Checkpoint(f Flusher) error { // want tracecheck: its callbacks are silent too
	return f.Flush()
}

// Replayed reports a replay: one of the corpus's emission calls.
func (e *Engine) Replayed() {
	e.replays++
	e.tr.Phase("replay", "")
}

// Seq reads the engine's state; it emits nothing.
func (e *Engine) Seq() int { return e.seq }
