package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// runTxcheck enforces the journal-only metadata mutation invariant the
// first five PRs established by convention: inside the file-system
// packages (Config.TxPkgs), on-disk state is mutated by staging blocks in
// the running transaction and letting the journal machinery write them —
// never by calling the device directly from an operation.
//
// The machinery's entry points are annotated //iron:txentry (commit,
// checkpoint, replay, mkfs, mount-time superblock writers, the scrubber's
// in-place repair). txcheck computes the forward closure of those entry
// points over the static call graph; within the policed packages it then
// flags
//
//   - a direct device-write call site (Config.WriteMethods on a type
//     implementing the device interface) in a function outside the
//     closure, and
//   - a call from a function outside the closure to an in-module function
//     that itself performs a direct device write (the raw-write funnel
//     helpers like devWrite): reaching the funnel from an unsanctioned
//     caller is exactly the "op bypasses the journal" shape.
//
// The second rule is one level deep on purpose: a transitive version
// would flag every operation that (correctly) reaches the journal through
// MaybeCommitLocked. Deliberate raw writes outside the machinery carry
// //iron:txok on the call line or the enclosing function. The directive
// validator reports //iron:txentry annotations that no longer attach to a
// function, so the sanctioned-entry-point list cannot rot.
func runTxcheck(ctx *passContext) []Finding {
	cfg := ctx.cfg
	writeMethods := map[string]bool{}
	for _, m := range cfg.WriteMethods {
		writeMethods[m] = true
	}
	iface := deviceInterface(ctx)
	if iface == nil {
		return nil
	}

	// Sanctioned = forward closure of the //iron:txentry roots.
	var roots []*types.Func
	isRoot := map[*types.Func]bool{}
	for _, fi := range ctx.funcs {
		if d := ctx.dirs.lookup(dirTxEntry, ctx.position(fi.decl.Pos())); d != nil {
			d.Used = true
			roots = append(roots, fi.obj)
			isRoot[fi.obj] = true
		}
	}
	sanctioned := ctx.forwardClosure(roots)

	// rawWriters: functions that contain a direct device-write call site.
	isRawWrite := func(fi *funcInfo, call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		selection, ok := fi.pkg.info.Selections[sel]
		if !ok {
			return false
		}
		callee, ok := selection.Obj().(*types.Func)
		if !ok || !writeMethods[callee.Name()] {
			return false
		}
		return implementsDevice(selection.Recv(), iface)
	}
	rawWriters := map[*types.Func]bool{}
	for _, fi := range ctx.funcs {
		fi := fi
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isRawWrite(fi, call) {
				rawWriters[fi.obj] = true
				return false
			}
			return true
		})
	}

	var findings []Finding
	report := func(fi *funcInfo, pos ast.Node, format string, args ...any) {
		p := ctx.position(pos.Pos())
		if ctx.dirs.suppress(dirTxOK, p) || ctx.dirs.suppressFunc(ctx.mod, dirTxOK, fi.decl) {
			return
		}
		findings = append(findings, Finding{Pos: p, Analyzer: "txcheck", Severity: SevError,
			Message: fmt.Sprintf(format, args...)})
	}
	for _, fi := range ctx.funcs {
		if !ctx.inPkgs(fi, cfg.TxPkgs) || sanctioned[fi.obj] {
			continue
		}
		fi := fi
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isRawWrite(fi, call) {
				report(fi, call, "raw device write outside the journal/transaction machinery; stage through the running transaction, annotate the entry point //iron:txentry, or waive with //iron:txok")
				return true
			}
			if callee := calleeOf(fi.pkg.info, call); callee != nil && rawWriters[callee] && !isRoot[callee] {
				// Calling a raw-write funnel (devWrite and friends) from
				// an unsanctioned function is the "op bypasses the
				// journal" shape, even when the funnel itself is also
				// reached from the commit path. Only a funnel that is
				// itself an annotated entry point is freely callable.
				report(fi, call, "call to %s performs a raw device write outside the journal/transaction machinery; go through the transaction or waive with //iron:txok", funcLabel(callee))
			}
			return true
		})
	}
	return findings
}

// deviceInterface resolves Config.DevicePkg.DeviceIface.
func deviceInterface(ctx *passContext) *types.Interface {
	devPkg := ctx.mod.byPath[ctx.cfg.DevicePkg]
	if devPkg == nil {
		return nil
	}
	obj := devPkg.pkg.Scope().Lookup(ctx.cfg.DeviceIface)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}
