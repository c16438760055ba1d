package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// funcInfo is one declared function with a body, the unit every pass
// iterates over.
type funcInfo struct {
	obj  *types.Func
	decl *ast.FuncDecl
	pkg  *pkgInfo
}

// callEdge is one static call site resolved to an in-module callee.
type callEdge struct {
	caller *types.Func
	callee *types.Func
	pos    token.Pos
}

// passContext is the shared substrate every pass runs on: the typechecked
// module, the parsed directives, the device-error taint set, and the
// static call graph. It is built once per Run; passes must not mutate it
// (directive Used marks are the one sanctioned side effect).
type passContext struct {
	mod   *module
	cfg   Config
	dirs  *directiveSet
	taint *taintSet

	// funcs are all declared functions with bodies, in package order.
	funcs []*funcInfo
	// byObj resolves a *types.Func back to its declaration.
	byObj map[*types.Func]*funcInfo
	// calleesOf and callersOf are the static in-module call graph.
	// Dynamic calls (function values, unresolved interface calls) are
	// absent; passes built on the graph are deliberately
	// under-approximate there and say so in their docs. The one dynamic
	// shape it does resolve is the callback interface (callbackTargets):
	// how the file systems reach their commit phases through the shared
	// journal engine.
	calleesOf map[*types.Func][]callEdge
	callersOf map[*types.Func][]callEdge
	// handed maps a callee to the implementations its callers hand it
	// through a callback interface: the methods the callee calls back.
	handed map[*types.Func][]*types.Func
}

// newPassContext builds the substrate.
func newPassContext(mod *module, cfg Config, dirs *directiveSet, taint *taintSet) *passContext {
	ctx := &passContext{
		mod:       mod,
		cfg:       cfg,
		dirs:      dirs,
		taint:     taint,
		byObj:     map[*types.Func]*funcInfo{},
		calleesOf: map[*types.Func][]callEdge{},
		callersOf: map[*types.Func][]callEdge{},
		handed:    map[*types.Func][]*types.Func{},
	}
	for _, pi := range mod.pkgs {
		for _, f := range pi.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pi.info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &funcInfo{obj: obj, decl: fd, pkg: pi}
				ctx.funcs = append(ctx.funcs, fi)
				ctx.byObj[obj] = fi
			}
		}
	}
	for _, fi := range ctx.funcs {
		fi := fi
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(fi.pkg.info, call)
			if callee == nil {
				return true
			}
			if _, inModule := ctx.byObj[callee]; !inModule {
				return true
			}
			for _, target := range append([]*types.Func{callee}, callbackTargets(fi.pkg.info, call, callee)...) {
				if _, inModule := ctx.byObj[target]; !inModule {
					continue
				}
				e := callEdge{caller: fi.obj, callee: target, pos: call.Pos()}
				ctx.calleesOf[fi.obj] = append(ctx.calleesOf[fi.obj], e)
				ctx.callersOf[target] = append(ctx.callersOf[target], e)
				if target != callee {
					ctx.handed[callee] = append(ctx.handed[callee], target)
				}
			}
			return true
		})
	}
	return ctx
}

// callbackTargets resolves the callback-interface shape: a call that hands
// a concrete value to a parameter typed as an interface the callee's own
// package declares (engine.Commit(fs) with fs a journal.Committer). The
// callee exists to call those methods back, so the caller is treated as
// calling the concrete value's implementations of them. Interfaces from
// other packages (disk.Device, vfs.FileSystem passed around as plain
// dependencies) stay unresolved, as does a value that is already an
// interface at the call site.
func callbackTargets(info *types.Info, call *ast.CallExpr, callee *types.Func) []*types.Func {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Variadic() {
		return nil
	}
	var out []*types.Func
	for i, arg := range call.Args {
		if i >= sig.Params().Len() {
			break
		}
		named, ok := sig.Params().At(i).Type().(*types.Named)
		if !ok || named.Obj().Pkg() != callee.Pkg() {
			continue
		}
		iface, ok := named.Underlying().(*types.Interface)
		argType := info.TypeOf(arg)
		if !ok || argType == nil || types.IsInterface(argType) {
			continue
		}
		for m := 0; m < iface.NumMethods(); m++ {
			method := iface.Method(m)
			obj, _, _ := types.LookupFieldOrMethod(argType, true, method.Pkg(), method.Name())
			if fn, ok := obj.(*types.Func); ok {
				out = append(out, fn)
			}
		}
	}
	return out
}

// position resolves a token.Pos against the module's fileset.
func (ctx *passContext) position(pos token.Pos) token.Position {
	return ctx.mod.fset.Position(pos)
}

// funcHasDirective reports whether a well-formed directive of the given
// kind sits on or directly above fd's declaration, marking it used.
func (ctx *passContext) funcHasDirective(kind string, fd *ast.FuncDecl) bool {
	return ctx.dirs.suppress(kind, ctx.position(fd.Pos()))
}

// forwardClosure returns every function reachable from the roots through
// static in-module calls, roots included.
func (ctx *passContext) forwardClosure(roots []*types.Func) map[*types.Func]bool {
	seen := map[*types.Func]bool{}
	stack := append([]*types.Func(nil), roots...)
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[f] {
			continue
		}
		seen[f] = true
		for _, e := range ctx.calleesOf[f] {
			if !seen[e.callee] {
				stack = append(stack, e.callee)
			}
		}
	}
	return seen
}

// inPkgs reports whether the function's package import path matches one of
// the given path prefixes.
func (ctx *passContext) inPkgs(fi *funcInfo, prefixes []string) bool {
	return pathHasPrefix(fi.pkg.path, prefixes)
}

// pathHasPrefix reports whether an import path equals, or sits under, any
// of the prefixes.
func pathHasPrefix(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// sortFindings orders findings by position for deterministic output.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Message < findings[j].Message
	})
}
