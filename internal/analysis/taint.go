package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// taintSet records which functions can return an error that originated at
// the block-device layer. The computation is a fixed point over the
// module's call graph:
//
//   - Seeds: the error-returning methods of the device interface and of
//     the concrete seed types (Config.SeedTypes) in Config.DevicePkg.
//   - A module function that returns an error and whose body calls a
//     tainted function is tainted.
//   - An interface method is tainted when any module type implementing
//     the interface has a tainted method of that name, so calls through
//     vfs.FileSystem and friends propagate taint too.
//
// The rule is deliberately conservative (any tainted callee taints the
// caller regardless of which result flows where): over-tainting only
// widens the set of calls whose errors must be handled or annotated,
// which is the discipline this tool exists to enforce.
type taintSet struct {
	funcs map[*types.Func]bool
}

func (t *taintSet) tainted(f *types.Func) bool { return f != nil && t.funcs[f] }

// calledIn reports whether body, function literals included, calls a
// tainted function.
func (t *taintSet) calledIn(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && t.tainted(calleeOf(info, call)) {
			found = true
		}
		return !found
	})
	return found
}

// computeTaint builds the taint set for the loaded module.
func computeTaint(mod *module, cfg Config) (*taintSet, error) {
	t := &taintSet{funcs: map[*types.Func]bool{}}
	excluded := map[string]bool{}
	for _, m := range cfg.ExcludeMethods {
		excluded[m] = true
	}

	devPkg := mod.byPath[cfg.DevicePkg]
	if devPkg == nil {
		return nil, fmt.Errorf("analysis: device package %q not found in module", cfg.DevicePkg)
	}

	// Seed with the device interface's methods.
	ifaceObj := devPkg.pkg.Scope().Lookup(cfg.DeviceIface)
	if ifaceObj == nil {
		return nil, fmt.Errorf("analysis: %s.%s not found", cfg.DevicePkg, cfg.DeviceIface)
	}
	iface, ok := ifaceObj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil, fmt.Errorf("analysis: %s.%s is not an interface", cfg.DevicePkg, cfg.DeviceIface)
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if returnsError(m) && !excluded[m.Name()] {
			t.funcs[m] = true
		}
	}

	// Seed with the concrete source types' methods.
	for _, name := range cfg.SeedTypes {
		obj := devPkg.pkg.Scope().Lookup(name)
		named, ok := obj.(*types.TypeName)
		if !ok {
			return nil, fmt.Errorf("analysis: seed type %s.%s not found", cfg.DevicePkg, name)
		}
		ms := types.NewMethodSet(types.NewPointer(named.Type()))
		for i := 0; i < ms.Len(); i++ {
			if m, ok := ms.At(i).Obj().(*types.Func); ok && returnsError(m) && !excluded[m.Name()] {
				t.funcs[m] = true
			}
		}
	}

	// Collect the module's functions-with-bodies, named types, and
	// interfaces for the fixed point.
	type fnBody struct {
		obj  *types.Func
		decl *ast.FuncDecl
		info *types.Info
	}
	var fns []fnBody
	var namedTypes []types.Type
	var ifaces []*types.Interface
	for _, pi := range mod.pkgs {
		for _, f := range pi.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pi.info.Defs[fd.Name].(*types.Func); ok {
					fns = append(fns, fnBody{obj: obj, decl: fd, info: pi.info})
				}
			}
		}
		scope := pi.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if ifc, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, ifc)
			} else {
				namedTypes = append(namedTypes, tn.Type())
			}
		}
	}

	for changed := true; changed; {
		changed = false

		// Body rule: error-returning function calling a tainted callee.
		for _, fn := range fns {
			if t.funcs[fn.obj] || !returnsError(fn.obj) {
				continue
			}
			if t.calledIn(fn.info, fn.decl.Body) {
				t.funcs[fn.obj] = true
				changed = true
			}
		}

		// Interface rule: implementing type with a tainted method taints
		// the interface method.
		for _, ifc := range ifaces {
			for i := 0; i < ifc.NumMethods(); i++ {
				im := ifc.Method(i)
				if t.funcs[im] || !returnsError(im) || excluded[im.Name()] {
					continue
				}
				for _, nt := range namedTypes {
					pt := types.NewPointer(nt)
					if !types.Implements(nt, ifc) && !types.Implements(pt, ifc) {
						continue
					}
					sel := types.NewMethodSet(pt).Lookup(nil, im.Name())
					if sel == nil {
						continue
					}
					if cm, ok := sel.Obj().(*types.Func); ok && t.funcs[cm] {
						t.funcs[im] = true
						changed = true
						break
					}
				}
			}
		}
	}
	return t, nil
}

// returnsError reports whether f has at least one result of type error.
func returnsError(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	return ok && errorResult(sig) >= 0
}

// errorResult returns the index of the first error-typed result, or -1.
func errorResult(sig *types.Signature) int {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return i
		}
	}
	return -1
}

// isErrorType reports whether typ is the built-in error type.
func isErrorType(typ types.Type) bool {
	return types.Identical(typ, types.Universe.Lookup("error").Type())
}

// calleeOf resolves a call expression to its static callee, or nil for
// dynamic calls (function values, callbacks) and type conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Qualified package call: pkg.Fn(...).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
