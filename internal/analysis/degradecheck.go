package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// runDegradecheck enforces the invariant three consecutive PRs had to
// re-establish by hand: a function must never report success while the
// outcome of the commit, barrier, or repair write that would make that
// success true is still unknown — and a known commit failure must degrade
// the volume (reach vfs.Health.Degrade) or propagate the error, never
// evaporate into a nil return.
//
// The commit machinery is annotated //iron:commitpoint (per FS: the
// commit, checkpoint, and transactional-repair functions). A call to an
// interface method counts as a commitpoint call when every in-module
// implementation of the method is one — the seam the shared fsck driver
// reaches each file system's repair transaction through. "Success" is
// an assignment, increment, or append to one of Config.SuccessFields
// (Fixed, Repaired — the fsck.Report and ScrubReport vocabulary), or a
// nil error return. Raw device writes count as repair writes inside
// functions that record success. The rules, each matching one of the
// hand-fixed bug shapes from PRs 4–5:
//
//   - pending: success recorded (or nil returned) while the error of a
//     commit/repair write is bound to a variable nobody has examined yet;
//   - early: success recorded at a point lexically before a commitpoint
//     call in the same function — the commit's outcome cannot have
//     influenced it;
//   - discard: a commitpoint error discarded outright (bare call or
//     blank assignment), or a repair-write error discarded in a
//     success-reporting function;
//   - unobservable: a commitpoint called under go/defer, so its error is
//     structurally invisible to the function's success path;
//   - nodegrade: an `if err != nil` branch for a commitpoint error that
//     neither calls anything reaching Health.Degrade nor mentions the
//     error in a return — the failure is noticed and then dropped.
//
// The scan is linear in source order (the same deliberate approximation
// lockcheck makes): sound for the straight-line commit-then-record shapes
// this repository uses, and every waiver carries a justification via
// //iron:degradeok on the line or the enclosing function.
func runDegradecheck(ctx *passContext) []Finding {
	cfg := ctx.cfg
	successFields := map[string]bool{}
	for _, f := range cfg.SuccessFields {
		successFields[f] = true
	}
	writeMethods := map[string]bool{}
	for _, m := range cfg.WriteMethods {
		writeMethods[m] = true
	}
	iface := deviceInterface(ctx)

	// Commit points: //iron:commitpoint-annotated functions.
	commitpoints := map[*types.Func]bool{}
	for _, fi := range ctx.funcs {
		if d := ctx.dirs.lookup(dirCommitPoint, ctx.position(fi.decl.Pos())); d != nil {
			d.Used = true
			commitpoints[fi.obj] = true
		}
	}

	// Degrade-reaching: backward closure from direct Health.Degrade
	// callers through the static call graph.
	degradeReach := computeDegradeReach(ctx)

	d := &degradecheck{
		ctx:           ctx,
		successFields: successFields,
		writeMethods:  writeMethods,
		iface:         iface,
		commitpoints:  commitpoints,
		degradeReach:  degradeReach,
	}
	for _, fi := range ctx.funcs {
		d.checkFunc(fi)
	}
	return d.findings
}

// computeDegradeReach returns every function that (transitively) calls a
// Config.DegradeMethods method on Config.HealthType.
func computeDegradeReach(ctx *passContext) map[*types.Func]bool {
	degradeMethods := map[string]bool{}
	for _, m := range ctx.cfg.DegradeMethods {
		degradeMethods[m] = true
	}
	reach := map[*types.Func]bool{}
	var frontier []*types.Func
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
			if !ok || !degradeMethods[callee.Name()] {
				return true
			}
			if recvNamed(selection.Recv(), ctx.cfg.HealthPkg, ctx.cfg.HealthType) {
				found = true
			}
			return true
		})
		if found {
			reach[fi.obj] = true
			frontier = append(frontier, fi.obj)
		}
	}
	for len(frontier) > 0 {
		f := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, e := range ctx.callersOf[f] {
			if !reach[e.caller] {
				reach[e.caller] = true
				frontier = append(frontier, e.caller)
			}
		}
	}
	return reach
}

// recvNamed reports whether recv is (a pointer to) pkgPath.typeName.
func recvNamed(recv types.Type, pkgPath, typeName string) bool {
	if recv == nil {
		return false
	}
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == typeName
}

type degradecheck struct {
	ctx           *passContext
	successFields map[string]bool
	writeMethods  map[string]bool
	iface         *types.Interface
	commitpoints  map[*types.Func]bool
	degradeReach  map[*types.Func]bool
	findings      []Finding
}

// commitpoint reports whether f is a commitpoint: annotated, or an
// interface method with at least one in-module implementation, all of them
// annotated. Verdicts on unannotated functions are memoized in
// d.commitpoints.
func (d *degradecheck) commitpoint(f *types.Func) bool {
	if is, known := d.commitpoints[f]; known {
		return is
	}
	impls, commits := 0, 0
	if sig, _ := f.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
		if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			for _, fi := range d.ctx.funcs {
				recv := fi.obj.Type().(*types.Signature).Recv()
				if fi.obj.Name() != f.Name() || recv == nil || !implements(recv.Type(), sig.Recv().Type(), iface) {
					continue
				}
				impls++
				if d.commitpoints[fi.obj] {
					commits++
				}
			}
		}
	}
	d.commitpoints[f] = impls > 0 && commits == impls
	return d.commitpoints[f]
}

// implements reports whether t implements the interface named by recv. A
// generic interface (namei.Store[R, N]) is called inside generic code,
// where its type arguments are the caller's own type parameters and no
// concrete type satisfies it; there t implements it when it has a method
// of every name the interface lists, with the same number of parameters
// and results.
func implements(t, recv types.Type, iface *types.Interface) bool {
	if named, ok := recv.(*types.Named); !ok || named.TypeArgs().Len() == 0 {
		return types.Implements(t, iface)
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		sel := ms.Lookup(m.Pkg(), m.Name())
		if sel == nil {
			return false
		}
		have, want := sel.Type().(*types.Signature), m.Type().(*types.Signature)
		if have.Params().Len() != want.Params().Len() || have.Results().Len() != want.Results().Len() {
			return false
		}
	}
	return true
}

// pendingErr is one bound-but-unexamined commit/repair-write error.
type pendingErr struct {
	callee string
	pos    token.Pos
}

func (d *degradecheck) report(fi *funcInfo, pos token.Pos, format string, args ...any) {
	p := d.ctx.position(pos)
	if d.ctx.dirs.suppress(dirDegradeOK, p) || d.ctx.dirs.suppressFunc(d.ctx.mod, dirDegradeOK, fi.decl) {
		return
	}
	d.findings = append(d.findings, Finding{Pos: p, Analyzer: "degradecheck", Severity: SevError,
		Message: fmt.Sprintf(format, args...)})
}

// commitCallee returns the label of the commitpoint a call targets, if
// any.
func (d *degradecheck) commitCallee(fi *funcInfo, call *ast.CallExpr) (string, bool) {
	f := calleeOf(fi.pkg.info, call)
	if f != nil && d.commitpoint(f) {
		return funcLabel(f), true
	}
	return "", false
}

// repairWriteCallee returns the label of a direct device-write call, if
// any.
func (d *degradecheck) repairWriteCallee(fi *funcInfo, call *ast.CallExpr) (string, bool) {
	if d.iface == nil {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection, ok := fi.pkg.info.Selections[sel]
	if !ok {
		return "", false
	}
	callee, ok := selection.Obj().(*types.Func)
	if !ok || !d.writeMethods[callee.Name()] || !implementsDevice(selection.Recv(), d.iface) {
		return "", false
	}
	return funcLabel(callee), true
}

// successTarget returns a printable label when expr is a success-field
// lvalue (res.Fixed, rep.Repaired, plain fixed).
func (d *degradecheck) successTarget(expr ast.Expr) (string, bool) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if d.successFields[e.Sel.Name] {
			return types.ExprString(e), true
		}
	case *ast.Ident:
		if d.successFields[e.Name] {
			return e.Name, true
		}
	}
	return "", false
}

// funcHasSuccess reports whether the function records success anywhere:
// it gates the repair-write rules so that the stock FSes' deliberate
// write-error drops (policy-annotated for errprop) stay out of scope.
func (d *degradecheck) funcHasSuccess(fi *funcInfo) bool {
	found := false
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch s := n.(type) {
		case *ast.IncDecStmt:
			if _, ok := d.successTarget(s.X); ok {
				found = true
			}
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				if _, ok := d.successTarget(l); ok {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// checkFunc applies every rule to one function.
func (d *degradecheck) checkFunc(fi *funcInfo) {
	hasSuccess := d.funcHasSuccess(fi)
	info := fi.pkg.info

	// auditedCall classifies a call the pass tracks: a commitpoint
	// always, a raw device write only in success-reporting functions.
	auditedCall := func(call *ast.CallExpr) (label string, isCommit, audited bool) {
		if l, ok := d.commitCallee(fi, call); ok {
			return l, true, true
		}
		if hasSuccess {
			if l, ok := d.repairWriteCallee(fi, call); ok {
				return l, false, true
			}
		}
		return "", false, false
	}

	// Pass 1: lexical positions of every commitpoint call, for the
	// "success recorded before the commit" rule.
	var commitPositions []token.Pos
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := d.commitCallee(fi, call); ok {
				commitPositions = append(commitPositions, call.Pos())
			}
		}
		return true
	})

	// condOwner maps an if-condition to its statement for the nodegrade
	// rule.
	condOwner := map[ast.Expr]*ast.IfStmt{}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok {
			condOwner[ifs.Cond] = ifs
		}
		return true
	})

	errIndex := -1
	if sig, ok := fi.obj.Type().(*types.Signature); ok {
		errIndex = errorResult(sig)
	}

	// Pass 2: the linear event scan.
	pending := map[*types.Var]pendingErr{}
	// commitBound remembers which variables ever held a commitpoint
	// error (surviving the "checked" transition), for the nodegrade rule.
	commitBound := map[*types.Var]string{}

	reportSuccess := func(pos token.Pos, what string) {
		for _, p := range pending {
			d.report(fi, pos, "%s while the error of %s is unchecked; check the commit/repair error first or waive with //iron:degradeok", what, p.callee)
		}
		for _, cp := range commitPositions {
			if cp > pos {
				d.report(fi, pos, "%s before the transaction commits (a commitpoint is called later in this function); record success only after the commit error is checked, or waive with //iron:degradeok", what)
				break
			}
		}
	}

	var inspect func(n ast.Node) bool
	inspect = func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt:
			if label, _, audited := auditedCall(s.Call); audited {
				d.report(fi, s.Pos(), "%s runs under a go statement; its error is unobservable to this function's success path", label)
			}
			return true
		case *ast.DeferStmt:
			if label, _, audited := auditedCall(s.Call); audited {
				d.report(fi, s.Pos(), "%s runs under a defer statement; its error is unobservable to this function's success path", label)
			}
			// Deferred cleanup runs at return, outside the linear order
			// this scan models; don't let its uses clear pending state.
			return false
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				if label, isCommit, audited := auditedCall(call); audited {
					if isCommit {
						d.report(fi, s.Pos(), "commit error of %s is discarded (result unused)", label)
					} else {
						d.report(fi, s.Pos(), "repair-write error of %s is discarded in a success-reporting function", label)
					}
				}
			}
		case *ast.AssignStmt:
			// Success events on the left; commit/repair bindings on the
			// right.
			for _, l := range s.Lhs {
				if target, ok := d.successTarget(l); ok {
					reportSuccess(s.Pos(), fmt.Sprintf("success (%s) recorded", target))
				}
			}
			d.scanBinding(fi, s, auditedCall, pending, commitBound)
		case *ast.IncDecStmt:
			if target, ok := d.successTarget(s.X); ok {
				reportSuccess(s.Pos(), fmt.Sprintf("success (%s) recorded", target))
			}
		case *ast.ReturnStmt:
			if errIndex >= 0 && len(pending) > 0 && returnsNilError(s, errIndex, len(pending) /*unused*/) {
				for _, p := range pending {
					d.report(fi, s.Pos(), "returns nil (success) while the error of %s is unchecked; check it before reporting durability/success", p.callee)
				}
			}
		case *ast.BinaryExpr:
			d.checkNoDegrade(fi, s, condOwner, commitBound)
		case *ast.Ident:
			if v, ok := info.Uses[s].(*types.Var); ok {
				delete(pending, v)
			}
		}
		return true
	}
	ast.Inspect(fi.decl.Body, inspect)
}

// scanBinding records commit/repair error bindings from one assignment.
func (d *degradecheck) scanBinding(fi *funcInfo, as *ast.AssignStmt,
	auditedCall func(*ast.CallExpr) (string, bool, bool),
	pending map[*types.Var]pendingErr, commitBound map[*types.Var]string) {
	info := fi.pkg.info
	bind := func(l ast.Expr, label string, isCommit bool, pos token.Pos) {
		id, ok := l.(*ast.Ident)
		if !ok {
			return
		}
		if id.Name == "_" {
			if isCommit {
				d.report(fi, pos, "commit error of %s is discarded via _", label)
			} else {
				d.report(fi, pos, "repair-write error of %s is discarded via _ in a success-reporting function", label)
			}
			return
		}
		var v *types.Var
		if dv, ok := info.Defs[id].(*types.Var); ok {
			v = dv
		} else if uv, ok := info.Uses[id].(*types.Var); ok {
			v = uv
		}
		if v == nil || !isErrorType(v.Type()) {
			return
		}
		pending[v] = pendingErr{callee: label, pos: pos}
		if isCommit {
			commitBound[v] = label
		}
	}

	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// Tuple form: the error result position gets the binding.
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		label, isCommit, audited := auditedCall(call)
		if !audited {
			return
		}
		f := calleeOf(info, call)
		if f == nil {
			return
		}
		sig, ok := f.Type().(*types.Signature)
		if !ok {
			return
		}
		for i, l := range as.Lhs {
			if i < sig.Results().Len() && isErrorType(sig.Results().At(i).Type()) {
				bind(l, label, isCommit, call.Pos())
			}
		}
		return
	}
	for i, r := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		call, ok := ast.Unparen(r).(*ast.CallExpr)
		if !ok {
			continue
		}
		if label, isCommit, audited := auditedCall(call); audited {
			bind(as.Lhs[i], label, isCommit, call.Pos())
		}
	}
}

// checkNoDegrade applies the nodegrade rule to one `err != nil`
// condition over a commitpoint-bound error: the taken branch must reach
// Health.Degrade or mention the error in a return.
func (d *degradecheck) checkNoDegrade(fi *funcInfo, cond *ast.BinaryExpr,
	condOwner map[ast.Expr]*ast.IfStmt, commitBound map[*types.Var]string) {
	ifs, ok := condOwner[cond]
	if !ok || cond.Op != token.NEQ || !isNilIdent(cond.Y) {
		return
	}
	id, ok := ast.Unparen(cond.X).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := fi.pkg.info.Uses[id].(*types.Var)
	if !ok {
		return
	}
	label, ok := commitBound[v]
	if !ok {
		return
	}
	info := fi.pkg.info
	handled := false
	ast.Inspect(ifs.Body, func(n ast.Node) bool {
		if handled {
			return false
		}
		switch s := n.(type) {
		case *ast.CallExpr:
			if f := calleeOf(info, s); f != nil && d.degradeReach[f] {
				handled = true
			}
		case *ast.ReturnStmt:
			// Propagation: the error appears in the return values.
			for _, res := range s.Results {
				ast.Inspect(res, func(rn ast.Node) bool {
					if rid, ok := rn.(*ast.Ident); ok {
						if rv, ok := info.Uses[rid].(*types.Var); ok && rv == v {
							handled = true
						}
					}
					return true
				})
			}
		case *ast.BranchStmt:
			// A bare continue/break/goto hands the failure to loop
			// logic this linear scan cannot follow; treated as handled
			// only when paired with degrade/propagate elsewhere — so
			// NOT handled here.
			_ = s
		}
		return true
	})
	if !handled {
		d.report(fi, ifs.Pos(), "commit failure path for %s neither degrades the volume nor propagates the error; call the FS's abort/degrade path or return the error (waive with //iron:degradeok)", label)
	}
}

// returnsNilError reports whether the return statement's error-position
// result is the nil literal.
func returnsNilError(ret *ast.ReturnStmt, errIndex, _ int) bool {
	if len(ret.Results) <= errIndex {
		return false
	}
	return isNilIdent(ret.Results[errIndex])
}

// isNilIdent reports whether expr is the predeclared nil.
func isNilIdent(expr ast.Expr) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	return ok && id.Name == "nil"
}
