package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// runTracecheck keeps the observability layer complete as the code grows:
// inside a traced subsystem (a package that imports Config.TracePkg), a
// phase function — one whose name contains a Config.PhaseHints substring:
// commit, checkpoint, replay, scrub, repair, dispatch, drain, coalesce —
// must emit at least one trace event.
//
// "Emit" is transitive but deliberately restricted to same-package calls:
// every function in the module eventually reaches the disk layer, whose
// tracer hooks would make a module-wide closure vacuously satisfy the
// rule. A phase either makes one of Config.EmitCalls itself — a Tracer
// emit method, an iron.Recorder Detect/Recover (mirrored into the trace by
// the recorder bridge), a journal.Engine report — or delegates to a
// sibling that does. The one cross-package step is the callback
// interface: an engine's method that its callers hand an implementation
// of its own package's interface (journal.Engine.Commit, handed each file
// system's Committer) emits when one of the implementations handed to it
// does, wherever that lives. Intentionally silent phases carry
// //iron:traceok with a justification.
func runTracecheck(ctx *passContext) []Finding {
	cfg := ctx.cfg
	if cfg.TracePkg == "" {
		return nil
	}
	emitCall := func(callee *types.Func, recv types.Type) bool {
		for _, ec := range cfg.EmitCalls {
			if slices.Contains(ec.Methods, callee.Name()) && recvNamed(recv, ec.Pkg, ec.Type) {
				return true
			}
		}
		return false
	}

	// Traced subsystems: packages importing the trace package (the trace
	// package itself is the instrument, not a subject).
	traced := map[*types.Package]bool{}
	for _, pi := range ctx.mod.pkgs {
		if pi.pkg.Path() == cfg.TracePkg {
			continue
		}
		for _, imp := range pi.pkg.Imports() {
			if imp.Path() == cfg.TracePkg {
				traced[pi.pkg] = true
				break
			}
		}
	}
	if len(traced) == 0 {
		return nil
	}

	// emits: direct emission per function, then a same-package transitive
	// closure.
	emits := map[*types.Func]bool{}
	for _, fi := range ctx.funcs {
		fi := fi
		found := false
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection, ok := fi.pkg.info.Selections[sel]
			if !ok {
				return true
			}
			callee, ok := selection.Obj().(*types.Func)
			if !ok {
				return true
			}
			found = emitCall(callee, selection.Recv())
			return true
		})
		if found {
			emits[fi.obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range ctx.funcs {
			if emits[fi.obj] {
				continue
			}
			for _, e := range ctx.calleesOf[fi.obj] {
				if emits[e.callee] && e.callee.Pkg() == fi.obj.Pkg() {
					emits[fi.obj] = true
					changed = true
					break
				}
			}
			if !emits[fi.obj] && slices.ContainsFunc(ctx.handed[fi.obj], func(f *types.Func) bool { return emits[f] }) {
				emits[fi.obj] = true
				changed = true
			}
		}
	}

	var findings []Finding
	for _, fi := range ctx.funcs {
		if !traced[fi.pkg.pkg] || emits[fi.obj] {
			continue
		}
		hint := phaseHint(fi.obj.Name(), cfg.PhaseHints)
		if hint == "" {
			continue
		}
		p := ctx.position(fi.decl.Pos())
		if ctx.dirs.suppress(dirTraceOK, p) {
			continue
		}
		findings = append(findings, Finding{Pos: p, Analyzer: "tracecheck", Severity: SevError,
			Message: fmt.Sprintf("%s looks like a %s phase in a traced subsystem but emits no trace event (directly or via a same-package callee); add a tracer call or waive with //iron:traceok", funcLabel(fi.obj), hint)})
	}
	return findings
}

// phaseHint returns the first hint contained in the (lowercased) function
// name, or "".
func phaseHint(name string, hints []string) string {
	lower := strings.ToLower(name)
	for _, h := range hints {
		if strings.Contains(lower, h) {
			return h
		}
	}
	return ""
}
