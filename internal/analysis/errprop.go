package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// runErrprop flags discarded device-originated errors. A discard is one
// of:
//
//   - a call used as a bare statement, its error result unused;
//   - an error result assigned to the blank identifier;
//   - a go or defer statement around an error-returning call (the error
//     is structurally unobservable);
//   - a straight-line overwrite: an error variable assigned from a
//     tainted call and reassigned by a later statement of the same block
//     with no intervening use.
//
// Each finding may be whitelisted by a //iron:policy directive on the
// same line or the line above; everything else is a diagnostic.
func runErrprop(ctx *passContext) []Finding {
	e := &errprop{mod: ctx.mod, taint: ctx.taint, dirs: ctx.dirs, taintedLits: map[*types.Var]bool{}}
	for _, pi := range ctx.mod.pkgs {
		for _, f := range pi.files {
			e.info = pi.info
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body != nil {
						e.walkBody(d.Body)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							e.checkValueSpec(vs)
						}
					}
				}
			}
		}
	}
	return e.findings
}

type errprop struct {
	mod      *module
	info     *types.Info
	taint    *taintSet
	dirs     *directiveSet
	findings []Finding
	// taintedLits are the local variables walkBody saw bound to a tainted
	// function literal.
	taintedLits map[*types.Var]bool
}

// report files a finding unless a policy directive covers it.
func (e *errprop) report(pos token.Pos, format string, args ...any) {
	p := e.mod.fset.Position(pos)
	if e.dirs.suppress(dirPolicy, p) {
		return
	}
	e.findings = append(e.findings, Finding{Pos: p, Analyzer: "errprop", Severity: SevError, Message: fmt.Sprintf(format, args...)})
}

// taintedCall returns the callee when call is a static call to a function
// that has an error result and is tainted or is handed a function literal
// (in place or bound to a local variable) whose body calls a tainted
// function: a callee that runs a callback, as bcache's miss paths run a
// file system's device read policy, returns its error.
func (e *errprop) taintedCall(expr ast.Expr) *types.Func {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return nil
	}
	f := calleeOf(e.info, call)
	if f == nil || !returnsError(f) || !e.taint.tainted(f) && !slices.ContainsFunc(call.Args, e.taintedCallback) {
		return nil
	}
	return f
}

// taintedCallback reports whether arg, a call's argument, is a tainted
// function literal.
func (e *errprop) taintedCallback(arg ast.Expr) bool {
	switch a := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		return e.taint.calledIn(e.info, a.Body)
	case *ast.Ident:
		v, _ := e.info.Uses[a].(*types.Var)
		return e.taintedLits[v]
	}
	return false
}

// walkBody applies the statement-shaped checks everywhere in a body
// (including nested function literals) and the overwrite scan to every
// statement list. It first notes the local variables the body binds to a
// tainted function literal, for taintedCallback.
func (e *errprop) walkBody(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		for i := 0; ok && len(as.Lhs) == len(as.Rhs) && i < len(as.Rhs); i++ {
			lit, isLit := as.Rhs[i].(*ast.FuncLit)
			if id, isID := as.Lhs[i].(*ast.Ident); isLit && isID && e.taint.calledIn(e.info, lit.Body) {
				v, _ := e.info.ObjectOf(id).(*types.Var)
				e.taintedLits[v] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if f := e.taintedCall(s.X); f != nil {
				e.report(s.Pos(), "%s returns a device-originated error that is discarded (result unused)", funcLabel(f))
			}
		case *ast.GoStmt:
			if f := e.taintedCall(s.Call); f != nil {
				e.report(s.Pos(), "%s returns a device-originated error that a go statement makes unobservable", funcLabel(f))
			}
		case *ast.DeferStmt:
			if f := e.taintedCall(s.Call); f != nil {
				e.report(s.Pos(), "%s returns a device-originated error that a defer statement discards", funcLabel(f))
			}
		case *ast.AssignStmt:
			e.checkBlanks(s.Lhs, s.Rhs)
		case *ast.ValueSpec:
			e.checkValueSpec(s)
		case *ast.BlockStmt:
			e.overwriteScan(s.List)
		case *ast.CaseClause:
			e.overwriteScan(s.Body)
		case *ast.CommClause:
			e.overwriteScan(s.Body)
		}
		return true
	})
}

// checkValueSpec applies the blank-discard check to a var declaration.
func (e *errprop) checkValueSpec(vs *ast.ValueSpec) {
	lhs := make([]ast.Expr, len(vs.Names))
	for i, n := range vs.Names {
		lhs[i] = n
	}
	e.checkBlanks(lhs, vs.Values)
}

// checkBlanks flags error results assigned to the blank identifier.
func (e *errprop) checkBlanks(lhs, rhs []ast.Expr) {
	if len(rhs) == 1 && len(lhs) > 1 {
		// Tuple assignment: x, _ := f().
		f := e.taintedCall(rhs[0])
		if f == nil {
			return
		}
		sig := f.Type().(*types.Signature)
		for i, l := range lhs {
			if i < sig.Results().Len() && isBlank(l) && isErrorType(sig.Results().At(i).Type()) {
				e.report(rhs[0].Pos(), "device-originated error from %s is discarded via _", funcLabel(f))
			}
		}
		return
	}
	// Pairwise (covers the 1:1 case _ = f()).
	for i, r := range rhs {
		if i >= len(lhs) || !isBlank(lhs[i]) {
			continue
		}
		if f := e.taintedCall(r); f != nil {
			e.report(r.Pos(), "device-originated error from %s is discarded via _", funcLabel(f))
		}
	}
}

// pend records an error variable holding an unexamined device error.
type pend struct {
	pos    token.Pos
	callee *types.Func
}

// overwriteScan detects straight-line overwrites inside one statement
// list. Only assignments that are themselves statements of the list are
// tracked; any other mention of the variable (conditions, nested blocks,
// calls) counts as a use and clears it. This keeps the check sound for
// branchy control flow while still catching `err = f(); err = g()`.
func (e *errprop) overwriteScan(list []ast.Stmt) {
	pending := map[*types.Var]pend{}
	for _, stmt := range list {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok {
			for v := range e.objectsUsed(stmt) {
				delete(pending, v)
			}
			continue
		}
		// Uses on the right-hand side and inside non-ident assignment
		// targets (a[i] = ..., s.f = ...) clear pending state.
		for _, r := range as.Rhs {
			for v := range e.objectsUsed(r) {
				delete(pending, v)
			}
		}
		for _, l := range as.Lhs {
			if _, isIdent := l.(*ast.Ident); !isIdent {
				for v := range e.objectsUsed(l) {
					delete(pending, v)
				}
			}
		}
		for i, l := range as.Lhs {
			id, isIdent := l.(*ast.Ident)
			if !isIdent || id.Name == "_" {
				continue
			}
			v := e.varObj(id)
			if v == nil {
				continue
			}
			if p, ok := pending[v]; ok {
				pp := e.mod.fset.Position(p.pos)
				if !e.dirs.suppress(dirPolicy, pp) {
					e.findings = append(e.findings, Finding{Pos: pp, Analyzer: "errprop", Severity: SevError,
						Message: fmt.Sprintf("device-originated error from %s assigned to %s is overwritten before use", funcLabel(p.callee), id.Name)})
				}
			}
			delete(pending, v)
			if f := e.assignedTaintedError(as, i); f != nil && isErrorType(v.Type()) {
				pending[v] = pend{pos: as.Rhs[min(i, len(as.Rhs)-1)].Pos(), callee: f}
			}
		}
	}
}

// assignedTaintedError returns the tainted callee whose error result
// lands in assignment target i, if any.
func (e *errprop) assignedTaintedError(as *ast.AssignStmt, i int) *types.Func {
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		f := e.taintedCall(as.Rhs[0])
		if f == nil {
			return nil
		}
		sig := f.Type().(*types.Signature)
		if i < sig.Results().Len() && isErrorType(sig.Results().At(i).Type()) {
			return f
		}
		return nil
	}
	if i < len(as.Rhs) {
		return e.taintedCall(as.Rhs[i])
	}
	return nil
}

// objectsUsed collects the variable objects referenced under n.
func (e *errprop) objectsUsed(n ast.Node) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok {
			if v, ok := e.info.Uses[id].(*types.Var); ok {
				out[v] = true
			}
		}
		return true
	})
	return out
}

// varObj resolves an assignment-target identifier to its variable object,
// whether the assignment declares it (:=) or reuses it.
func (e *errprop) varObj(id *ast.Ident) *types.Var {
	if v, ok := e.info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := e.info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// isBlank reports whether expr is the blank identifier.
func isBlank(expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	return ok && id.Name == "_"
}

// funcLabel renders a callee compactly: pkg.Func or (pkg.Type).Method.
func funcLabel(f *types.Func) string {
	sig, _ := f.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("(%s.%s).%s", named.Obj().Pkg().Name(), named.Obj().Name(), f.Name())
		}
		return f.Name()
	}
	if f.Pkg() != nil {
		return f.Pkg().Name() + "." + f.Name()
	}
	return f.Name()
}
