// Package enginekit is a miniature stand-in for ironfs/internal/journal: a
// shared engine that drives its caller back through an interface the
// engine's own package declares — the callback shape the call graph
// resolves.
package enginekit

// Committer is what the engine calls back.
type Committer interface {
	Freeze() error
}

// Engine runs a commit protocol over a Committer.
type Engine struct{}

// Run freezes through the callback.
func (e *Engine) Run(c Committer) error { return c.Freeze() }
