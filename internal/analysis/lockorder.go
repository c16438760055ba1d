package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// runLockorder builds a static lock-acquisition-order graph across the
// locking packages (Config.LockPkgs) and reports two things:
//
//   - cycles: lock A is (transitively) acquired while B is held somewhere
//     and B while A is held somewhere else — the classic ABBA deadlock;
//   - rank inversions: mutex declarations may carry
//     //iron:lockorder <rank> <note> (lower ranks acquire first); an edge
//     from a higher-ranked lock to a lower-ranked one contradicts the
//     sanctioned order even before a full cycle exists.
//
// A lock's identity is its declaration: pkg.Type.field for a mutex field,
// pkg.var for a package-level mutex. Locals have no cross-function
// identity and are ignored. Edges come from two rules, both over the
// source-order event scan lockcheck uses:
//
//   - intra-function: B.Lock() while A is held adds A→B (A=B is a direct
//     recursive acquisition and is reported as a self-deadlock);
//   - interprocedural: calling g while A is held adds A→B for every B in
//     g's transitive acquisition set. Self-edges from this rule are
//     ignored: the repository's fooLocked helpers that temporarily
//     unlock/relock their own mutex would otherwise read as recursion.
//
// The call graph underneath is the static in-module one (passContext):
// dynamic dispatch is invisible, so the graph under-approximates — it
// never invents an edge that cannot happen. Waivers are //iron:lockorderok
// on the witness line or its enclosing function.
func runLockorder(ctx *passContext) []Finding {
	lo := &lockorder{
		ctx:      ctx,
		direct:   map[*types.Func]map[string]bool{},
		acquires: map[*types.Func]map[string]bool{},
		edges:    map[string]map[string]*lockWitness{},
	}
	lo.collectDirect()
	lo.closeAcquires()
	lo.collectEdges()
	var findings []Finding
	findings = append(findings, lo.reportCycles()...)
	findings = append(findings, lo.reportInversions()...)
	findings = append(findings, lo.validateRanks()...)
	return findings
}

// lockWitness records where an order edge was observed.
type lockWitness struct {
	fi  *funcInfo
	pos token.Pos
	how string
}

type lockorder struct {
	ctx *passContext
	// direct: locks a function acquires in its own body.
	direct map[*types.Func]map[string]bool
	// acquires: transitive closure of direct over the call graph.
	acquires map[*types.Func]map[string]bool
	// edges: held→acquired with the first witness observed (scan order is
	// deterministic, so the witness is too).
	edges map[string]map[string]*lockWitness
}

// namedOf renders t's named type as pkg.Type, or "" for unnamed types.
func namedOf(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path() + "." + n.Obj().Name()
	}
	return ""
}

// lockIdentity names the mutex behind `<expr>.Lock()`: pkg.Type.field for
// a field, pkg.var for a package-level mutex, pkg.Type.(embedded) for an
// embedded mutex locked through its owner, and "" for locals.
func lockIdentity(fi *funcInfo, lockExpr ast.Expr) string {
	info := fi.pkg.info
	switch e := ast.Unparen(lockExpr).(type) {
	case *ast.SelectorExpr:
		if v, ok := info.Uses[e.Sel].(*types.Var); ok {
			if owner := namedOf(info.TypeOf(e.X)); owner != "" {
				return owner + "." + v.Name()
			}
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			if named := namedOf(v.Type()); named == "sync.Mutex" || named == "sync.RWMutex" {
				return v.Pkg().Path() + "." + v.Name()
			}
		}
		if owner := namedOf(info.TypeOf(e)); owner != "" && owner != "sync.Mutex" && owner != "sync.RWMutex" {
			// fs.Lock() through an embedded mutex.
			return owner + ".(embedded)"
		}
	}
	return ""
}

// lockOp is one acquisition/release/call event in source order.
type lockOp struct {
	pos  token.Pos
	kind int // evLock / evUnlock reused; evCall below
	id   string
	call *ast.CallExpr // evCall only
}

const evCall = 100

// scanOps collects the lock events and call sites of one function.
func (lo *lockorder) scanOps(fi *funcInfo) []lockOp {
	var ops []lockOp
	info := fi.pkg.info
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeferStmt:
			// Deferred unlocks run at return; as in lockcheck, the lock
			// stays held for the rest of the linear scan.
			return false
		case *ast.CallExpr:
			sel, ok := s.Fun.(*ast.SelectorExpr)
			if ok {
				if selection, ok := info.Selections[sel]; ok {
					if callee, ok := selection.Obj().(*types.Func); ok {
						if kind, isLock := mutexOp(callee); isLock {
							if id := lockIdentity(fi, sel.X); id != "" {
								ops = append(ops, lockOp{pos: s.Pos(), kind: kind, id: id})
							}
							return true
						}
					}
				}
			}
			if callee := calleeOf(info, s); callee != nil {
				ops = append(ops, lockOp{pos: s.Pos(), kind: evCall, id: "", call: s})
			}
		}
		return true
	})
	return ops
}

// collectDirect fills direct[] for every function in the lock packages.
func (lo *lockorder) collectDirect() {
	for _, fi := range lo.ctx.funcs {
		if !lo.ctx.inPkgs(fi, lo.ctx.cfg.LockPkgs) {
			continue
		}
		for _, op := range lo.scanOps(fi) {
			if op.kind == evLock {
				m := lo.direct[fi.obj]
				if m == nil {
					m = map[string]bool{}
					lo.direct[fi.obj] = m
				}
				m[op.id] = true
			}
		}
	}
}

// closeAcquires computes the transitive acquisition sets by fixpoint over
// the static call graph.
func (lo *lockorder) closeAcquires() {
	for f, m := range lo.direct {
		cp := map[string]bool{}
		for id := range m {
			cp[id] = true
		}
		lo.acquires[f] = cp
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range lo.ctx.funcs {
			for _, e := range lo.ctx.calleesOf[fi.obj] {
				sub := lo.acquires[e.callee]
				if len(sub) == 0 {
					continue
				}
				m := lo.acquires[fi.obj]
				if m == nil {
					m = map[string]bool{}
					lo.acquires[fi.obj] = m
				}
				for id := range sub {
					if !m[id] {
						m[id] = true
						changed = true
					}
				}
			}
		}
	}
}

// collectEdges replays each function's events against a held-set and adds
// order edges.
func (lo *lockorder) collectEdges() {
	addEdge := func(from, to string, w *lockWitness) {
		m := lo.edges[from]
		if m == nil {
			m = map[string]*lockWitness{}
			lo.edges[from] = m
		}
		if m[to] == nil {
			m[to] = w
		}
	}
	for _, fi := range lo.ctx.funcs {
		if !lo.ctx.inPkgs(fi, lo.ctx.cfg.LockPkgs) {
			continue
		}
		fi := fi
		held := map[string]int{}
		for _, op := range lo.scanOps(fi) {
			switch op.kind {
			case evLock:
				for h, n := range held {
					if n <= 0 {
						continue
					}
					addEdge(h, op.id, &lockWitness{fi: fi, pos: op.pos,
						how: fmt.Sprintf("%s acquired while %s is held in %s", op.id, h, funcLabel(fi.obj))})
				}
				held[op.id]++
			case evUnlock:
				if held[op.id] > 0 {
					held[op.id]--
				}
			case evCall:
				callee := calleeOf(fi.pkg.info, op.call)
				if callee == nil {
					continue
				}
				sub := lo.acquires[callee]
				if len(sub) == 0 {
					continue
				}
				for h, n := range held {
					if n <= 0 {
						continue
					}
					for id := range sub {
						if id == h {
							// fooLocked helpers that unlock/relock their
							// own mutex; a self-edge here is noise, the
							// direct rule still catches true recursion.
							continue
						}
						addEdge(h, id, &lockWitness{fi: fi, pos: op.call.Pos(),
							how: fmt.Sprintf("call to %s acquires %s while %s is held in %s", funcLabel(callee), id, h, funcLabel(fi.obj))})
					}
				}
			}
		}
	}
}

// report files one lockorder finding unless waived.
func (lo *lockorder) report(w *lockWitness, findings *[]Finding, format string, args ...any) {
	p := lo.ctx.position(w.pos)
	if lo.ctx.dirs.suppress(dirLockOrderOK, p) || lo.ctx.dirs.suppressFunc(lo.ctx.mod, dirLockOrderOK, w.fi.decl) {
		return
	}
	*findings = append(*findings, Finding{Pos: p, Analyzer: "lockorder", Severity: SevError,
		Message: fmt.Sprintf(format, args...)})
}

// reportCycles finds cycles in the order graph via DFS from every node in
// sorted order, reporting each distinct cycle once at its closing edge's
// witness.
func (lo *lockorder) reportCycles() []Finding {
	var findings []Finding
	nodes := make([]string, 0, len(lo.edges))
	for n := range lo.edges {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	seen := map[string]bool{} // normalized cycle signatures
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var stack []string

	var dfs func(n string)
	dfs = func(n string) {
		color[n] = gray
		stack = append(stack, n)
		tos := make([]string, 0, len(lo.edges[n]))
		for t := range lo.edges[n] {
			tos = append(tos, t)
		}
		sort.Strings(tos)
		for _, t := range tos {
			switch color[t] {
			case white:
				dfs(t)
			case gray:
				// Back edge n→t closes a cycle t ... n t.
				i := len(stack) - 1
				for i >= 0 && stack[i] != t {
					i--
				}
				cyc := append(append([]string{}, stack[i:]...), t)
				sig := cycleSignature(cyc)
				if !seen[sig] {
					seen[sig] = true
					lo.report(lo.edges[n][t], &findings,
						"lock-order cycle: %s; a thread interleaving across these acquisition sites can deadlock (waive with //iron:lockorderok)", joinCycle(cyc))
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	for _, n := range nodes {
		if color[n] == white {
			dfs(n)
		}
	}
	return findings
}

// cycleSignature normalizes a cycle (a b c a) to its rotation starting at
// the smallest element, so the same cycle found from different roots
// dedups.
func cycleSignature(cyc []string) string {
	body := cyc[:len(cyc)-1]
	mini := 0
	for i := range body {
		if body[i] < body[mini] {
			mini = i
		}
	}
	sig := ""
	for i := range body {
		sig += body[(mini+i)%len(body)] + "→"
	}
	return sig
}

func joinCycle(cyc []string) string {
	out := ""
	for i, n := range cyc {
		if i > 0 {
			out += " → "
		}
		out += n
	}
	return out
}

// ranks maps lock identities to their //iron:lockorder ranks by walking
// mutex declarations (struct fields and package vars) and pairing them
// with a directive on or above the declaration line.
func (lo *lockorder) ranks() (map[string]int, map[string]*Directive) {
	ranks := map[string]int{}
	dirOf := map[string]*Directive{}
	note := func(id string, pos token.Pos) {
		d := lo.ctx.dirs.lookup(dirLockOrder, lo.ctx.position(pos))
		if d == nil {
			return
		}
		ranks[id] = d.Rank
		dirOf[id] = d
	}
	for _, pi := range lo.ctx.mod.pkgs {
		for _, f := range pi.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.TypeSpec:
					st, ok := s.Type.(*ast.StructType)
					if !ok {
						return true
					}
					owner := ""
					if obj, ok := pi.info.Defs[s.Name].(*types.TypeName); ok && obj.Pkg() != nil {
						owner = obj.Pkg().Path() + "." + obj.Name()
					}
					if owner == "" {
						return true
					}
					for _, fld := range st.Fields.List {
						if !isMutexType(pi.info.TypeOf(fld.Type)) {
							continue
						}
						for _, name := range fld.Names {
							note(owner+"."+name.Name, fld.Pos())
						}
						if len(fld.Names) == 0 {
							note(owner+".(embedded)", fld.Pos())
						}
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if obj, ok := pi.info.Defs[name].(*types.Var); ok &&
							isMutexType(obj.Type()) && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
							note(obj.Pkg().Path()+"."+name.Name, s.Pos())
						}
					}
				}
				return true
			})
		}
	}
	return ranks, dirOf
}

// isMutexType reports whether t is sync.Mutex, sync.RWMutex, or a
// sync.Locker standing in for one.
func isMutexType(t types.Type) bool {
	n := namedOf(t)
	return n == "sync.Mutex" || n == "sync.RWMutex" || n == "sync.Locker"
}

// reportInversions flags edges that contradict the declared ranks.
func (lo *lockorder) reportInversions() []Finding {
	ranks, dirOf := lo.ranks()
	var findings []Finding
	froms := make([]string, 0, len(lo.edges))
	for f := range lo.edges {
		froms = append(froms, f)
	}
	sort.Strings(froms)
	for _, from := range froms {
		rf, okf := ranks[from]
		tos := make([]string, 0, len(lo.edges[from]))
		for t := range lo.edges[from] {
			tos = append(tos, t)
		}
		sort.Strings(tos)
		for _, to := range tos {
			rt, okt := ranks[to]
			if okf {
				dirOf[from].Used = true
			}
			if okt {
				dirOf[to].Used = true
			}
			if okf && okt && rf > rt {
				lo.report(lo.edges[from][to], &findings,
					"lock-order rank inversion: %s (rank %d) is acquired while %s (rank %d) is held; the sanctioned order acquires lower ranks first (waive with //iron:lockorderok)",
					to, rt, from, rf)
			}
		}
	}
	return findings
}

// validateRanks marks rank directives on locks that never appear in any
// acquisition as used-or-not correctly: a ranked mutex that is acquired
// anywhere counts as participating even without edges.
func (lo *lockorder) validateRanks() []Finding {
	ranks, dirOf := lo.ranks()
	acquired := map[string]bool{}
	for _, m := range lo.direct {
		for id := range m {
			acquired[id] = true
		}
	}
	for id := range ranks {
		if acquired[id] {
			dirOf[id].Used = true
		}
	}
	return nil
}
