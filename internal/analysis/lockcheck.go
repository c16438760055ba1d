package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// runLockcheck flags device I/O performed while a sync.Mutex or
// sync.RWMutex is held in the same function. The check is intraprocedural
// on purpose: the repository's file systems serialize whole operations
// under a big lock and perform I/O through helper layers, which is
// invisible here; what the check guards is the tighter invariant that no
// single function both takes a lock and talks to the device directly —
// the shape that deadlocks or stalls once I/O becomes asynchronous.
// Deliberate exceptions (mount paths, the scrubber, the fault-injection
// wrapper) carry //iron:lockok on the function or the call line.
func runLockcheck(ctx *passContext) []Finding {
	mod, cfg, dirs := ctx.mod, ctx.cfg, ctx.dirs
	ioMethods := map[string]bool{}
	for _, m := range cfg.IOMethods {
		ioMethods[m] = true
	}
	devPkg := mod.byPath[cfg.DevicePkg]
	if devPkg == nil {
		return nil
	}
	ifaceObj := devPkg.pkg.Scope().Lookup(cfg.DeviceIface)
	if ifaceObj == nil {
		return nil
	}
	iface, ok := ifaceObj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}

	var findings []Finding
	for _, pi := range mod.pkgs {
		for _, f := range pi.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				findings = append(findings, checkFunc(mod, pi.info, fd, iface, ioMethods, dirs)...)
			}
		}
	}
	return findings
}

// lockEvent is one lock-relevant action in source order.
type lockEvent struct {
	pos  token.Pos
	kind int    // evLock, evUnlock, evIO
	key  string // receiver expression for lock/unlock; callee label for IO
}

const (
	evLock = iota
	evUnlock
	evIO
)

// checkFunc collects Lock/Unlock/device-I/O events in source order and
// reports I/O performed while any mutex is held. Deferred unlocks do not
// end the held region (they run at return).
func checkFunc(mod *module, info *types.Info, fd *ast.FuncDecl, iface *types.Interface, ioMethods map[string]bool, dirs *directiveSet) []Finding {
	var events []lockEvent
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeferStmt:
			// A deferred unlock keeps the lock held for the rest of the
			// function, so it must not emit an unlock event; deferred
			// work in general runs at return, outside the straight-line
			// order this scan models. Skip the subtree. (Function
			// literals outside defer are NOT skipped: local closures
			// here are overwhelmingly called in place, and treating
			// their I/O as inline is what catches the scrub-style
			// lock-then-read shape.)
			return false
		case *ast.CallExpr:
			sel, ok := s.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection, ok := info.Selections[sel]
			if !ok {
				return true
			}
			callee, ok := selection.Obj().(*types.Func)
			if !ok {
				return true
			}
			if kind, isLock := mutexOp(callee); isLock {
				events = append(events, lockEvent{pos: s.Pos(), kind: kind, key: types.ExprString(sel.X)})
				return true
			}
			if ioMethods[callee.Name()] && implementsDevice(selection.Recv(), iface) {
				events = append(events, lockEvent{pos: s.Pos(), kind: evIO, key: funcLabel(callee)})
			}
		}
		return true
	})

	var findings []Finding
	held := map[string]int{}
	heldCount := 0
	for _, ev := range events {
		switch ev.kind {
		case evLock:
			held[ev.key]++
			heldCount++
		case evUnlock:
			if held[ev.key] > 0 {
				held[ev.key]--
				heldCount--
			}
		case evIO:
			if heldCount == 0 {
				continue
			}
			pos := mod.fset.Position(ev.pos)
			if dirs.suppress(dirLockOK, pos) || dirs.suppressFunc(mod, dirLockOK, fd) {
				continue
			}
			findings = append(findings, Finding{Pos: pos, Analyzer: "lockcheck", Severity: SevError,
				Message: fmt.Sprintf("mutex %s held across device I/O %s; unlock first or annotate with //iron:lockok", heldKeys(held), ev.key)})
		}
	}
	return findings
}

// heldKeys renders the currently held mutexes.
func heldKeys(held map[string]int) string {
	out := ""
	for k, n := range held {
		if n <= 0 {
			continue
		}
		if out != "" {
			out += ","
		}
		out += k
	}
	return out
}

// mutexOp classifies callee as a sync mutex lock or unlock operation. A
// sync.Locker counts: the journal engine holds its file system's big lock
// under that type.
func mutexOp(callee *types.Func) (int, bool) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return 0, false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return 0, false
	}
	if name := named.Obj().Name(); name != "Mutex" && name != "RWMutex" && name != "Locker" {
		return 0, false
	}
	switch callee.Name() {
	case "Lock", "RLock":
		return evLock, true
	case "Unlock", "RUnlock":
		return evUnlock, true
	}
	return 0, false
}

// implementsDevice reports whether the receiver type satisfies the device
// interface (directly, or via its pointer type).
func implementsDevice(recv types.Type, iface *types.Interface) bool {
	if recv == nil {
		return false
	}
	if types.Implements(recv, iface) {
		return true
	}
	if _, ok := recv.(*types.Pointer); !ok {
		return types.Implements(types.NewPointer(recv), iface)
	}
	return false
}
