// Package enginekit is a miniature stand-in for ironfs/internal/journal: a
// shared engine that drives its caller back through an interface the
// engine's own package declares — the callback shape the call graph
// resolves.
package enginekit

// Committer is what the engine calls back.
type Committer interface {
	Freeze() error
}

// Engine runs a commit protocol over a Committer and reports the
// journal's events on its callers' behalf.
type Engine struct {
	replays, seq int
}

// Run freezes through the callback.
func (e *Engine) Run(c Committer) error { return c.Freeze() }

// Replayed reports a replay: one of the corpus's emission calls.
func (e *Engine) Replayed() { e.replays++ }

// Seq reads the engine's state; it emits nothing.
func (e *Engine) Seq() int { return e.seq }
