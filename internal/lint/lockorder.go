package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder builds the whole-program lock-acquisition graph and reports
// its cycles: if one code path acquires A then B and another acquires B
// then A, the two can deadlock. Nodes are mutex variables resolved
// through go/types — a struct's mutex FIELD object, shared by every
// instance of the type and across packages (the loader type-checks the
// whole module in one shared universe), or a package-level mutex var.
// Edges come from two sources:
//
//   - direct nesting: a Lock executed while the may-held analysis says
//     another lock is held adds held → new;
//   - transitive nesting: a call made while holding a lock adds edges
//     from the held lock to everything the callee may lock, where
//     lockSet(callee) is a fixpoint over the module's static call graph
//     (direct locks plus callees' lock sets).
//
// The same mutex field on DIFFERENT instances (hand-over-hand locking)
// adds no edge — instance identity is not tracked. Re-locking the SAME
// instance while it is held is reported directly as a recursive lock.
// go statements contribute nothing (a spawned goroutine does not nest
// inside the spawner's critical section), and deferred calls contribute
// only their unlock effects. Each cycle is reported once, at one of its
// acquisition sites, with the witness path and the opposing site in the
// message.
type LockOrder struct{}

// Name implements Rule.
func (LockOrder) Name() string { return "lockorder" }

// Doc implements Rule.
func (LockOrder) Doc() string {
	return "the whole-program lock-acquisition graph is acyclic (a cycle is a potential deadlock)"
}

// Check implements Rule. LockOrder is program-scoped; the per-package
// pass reports nothing (see CheckProgram).
func (LockOrder) Check(p *Package) []Diagnostic { return nil }

// lockEdge is the first-seen witness of one A-before-B nesting.
type lockEdge struct {
	pos  token.Pos // acquisition (or call) site creating the edge
	fset *token.FileSet
	note string // "while <label> is held" context for the cycle report
}

// lockGraph is the acquisition graph plus the bookkeeping to render it.
type lockGraph struct {
	nodes  map[*types.Var]bool
	edges  map[*types.Var]map[*types.Var]*lockEdge
	labels map[*types.Var]string
}

func (g *lockGraph) label(v *types.Var) string {
	if l, ok := g.labels[v]; ok {
		return l
	}
	return v.Name()
}

func (g *lockGraph) addEdge(from, to *types.Var, pos token.Pos, fset *token.FileSet, note string) {
	g.nodes[from] = true
	g.nodes[to] = true
	if g.edges[from] == nil {
		g.edges[from] = make(map[*types.Var]*lockEdge)
	}
	if _, ok := g.edges[from][to]; !ok {
		g.edges[from][to] = &lockEdge{pos: pos, fset: fset, note: note}
	}
}

// CheckProgram implements ProgramRule.
func (LockOrder) CheckProgram(pkgs []*Package) []Diagnostic {
	g := &lockGraph{
		nodes:  make(map[*types.Var]bool),
		edges:  make(map[*types.Var]map[*types.Var]*lockEdge),
		labels: collectFieldOwners(pkgs),
	}
	decls := make(map[*types.Func]*ast.FuncDecl)
	declPkg := make(map[*types.Func]*Package)
	analyses := make(map[*Package]*pkgLockAnalysis)
	for _, p := range pkgs {
		a := analyzeLocks(p)
		analyses[p] = a
		for fn, fd := range a.tracker.decls {
			decls[fn] = fd
			declPkg[fn] = p
		}
	}
	lockSets := solveLockSets(pkgs, analyses, decls)

	var out []Diagnostic
	recursive := make(map[token.Pos]bool)
	for _, p := range pkgs {
		a := analyses[p]
		for _, fa := range a.funcs {
			for _, n := range fa.cfg.Nodes {
				if n.Stmt == nil {
					continue
				}
				if _, isGo := n.Stmt.(*ast.GoStmt); isGo {
					continue
				}
				in := fa.mayHeld[n]
				out = append(out, addStmtEdges(p, a.tracker, g, n, in, recursive)...)
				if _, isDefer := n.Stmt.(*ast.DeferStmt); isDefer || len(in.held) == 0 {
					continue
				}
				addCallEdges(p, g, n, in, lockSets)
			}
		}
	}
	out = append(out, g.cycles()...)
	return out
}

// addStmtEdges simulates a statement's lock ops in order against the IN
// fact, adding direct-nesting edges and reporting recursive locks.
func addStmtEdges(p *Package, lt *lockTracker, g *lockGraph, n *CFGNode, in lockFact, recursive map[token.Pos]bool) []Diagnostic {
	ops := lt.stmtOps(n.Stmt)
	if len(ops) == 0 {
		return nil
	}
	var out []Diagnostic
	cur := in.clone()
	for _, op := range ops {
		switch op.op {
		case "lock":
			for _, held := range sortedHeld(cur, g) {
				if held.key.mutex == op.key.mutex {
					if held.key == op.key && !recursive[op.pos] {
						recursive[op.pos] = true
						out = append(out, diagAt(p, op.pos, LockOrder{}.Name(),
							"%s is locked here while already held (recursive lock deadlocks)", g.label(op.key.mutex)))
					}
					continue
				}
				if op.key.mutex == nil || held.key.mutex == nil {
					continue
				}
				g.addEdge(held.key.mutex, op.key.mutex, op.pos, p.Fset,
					fmt.Sprintf("%s acquired at %s while %s is held", g.label(op.key.mutex), p.Fset.Position(op.pos), g.label(held.key.mutex)))
			}
			if cur.held == nil {
				cur.held = make(map[lockKey]token.Pos)
			}
			cur.held[op.key] = op.pos
		case "unlock":
			delete(cur.held, op.key)
		}
	}
	return out
}

// addCallEdges adds held → lockSet(callee) edges for every resolvable
// call of the statement.
func addCallEdges(p *Package, g *lockGraph, n *CFGNode, in lockFact, lockSets map[*types.Func]map[*types.Var]bool) {
	walkOwn(n.Stmt, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		var fnIdent *ast.Ident
		if ok {
			fnIdent = sel.Sel
		} else if id, isId := ast.Unparen(call.Fun).(*ast.Ident); isId {
			fnIdent = id
		} else {
			return true
		}
		fn, ok := p.Info.Uses[fnIdent].(*types.Func)
		if !ok {
			return true
		}
		if _, isMutexOp := mutexMethodOps[fn.FullName()]; isMutexOp {
			return true // direct edges already added
		}
		ls := lockSets[fn]
		if len(ls) == 0 {
			return true
		}
		for _, held := range sortedHeld(in, g) {
			for _, m := range sortedVars(ls, g) {
				if held.key.mutex == nil || held.key.mutex == m {
					continue
				}
				g.addEdge(held.key.mutex, m, call.Pos(), p.Fset,
					fmt.Sprintf("%s may be acquired via the call at %s while %s is held", g.label(m), p.Fset.Position(call.Pos()), g.label(held.key.mutex)))
			}
		}
		return true
	})
}

// solveLockSets computes, for every module function, the set of mutex
// variables it may lock directly or through same-module static calls.
// go statement subtrees are excluded throughout: a spawned goroutine's
// locks do not nest in the spawner.
func solveLockSets(pkgs []*Package, analyses map[*Package]*pkgLockAnalysis, decls map[*types.Func]*ast.FuncDecl) map[*types.Func]map[*types.Var]bool {
	direct := make(map[*types.Func]map[*types.Var]bool)
	callees := make(map[*types.Func]map[*types.Func]bool)
	for _, p := range pkgs {
		lt := analyses[p].tracker
		for fn, fd := range lt.decls {
			d := make(map[*types.Var]bool)
			c := make(map[*types.Func]bool)
			inspectSkippingGo(fd.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if key, op, isLock := lt.lockCall(call); isLock {
					if op == "lock" && key.mutex != nil {
						d[key.mutex] = true
					}
					return true
				}
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if callee, ok := p.Info.Uses[sel.Sel].(*types.Func); ok {
						if _, known := decls[callee]; known {
							c[callee] = true
						}
					}
				} else if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if callee, ok := p.Info.Uses[id].(*types.Func); ok {
						if _, known := decls[callee]; known {
							c[callee] = true
						}
					}
				}
				return true
			})
			direct[fn] = d
			callees[fn] = c
		}
	}
	// Fixpoint: propagate callee sets up until stable.
	sets := make(map[*types.Func]map[*types.Var]bool, len(direct))
	for fn, d := range direct {
		s := make(map[*types.Var]bool, len(d))
		for v := range d {
			s[v] = true
		}
		sets[fn] = s
	}
	for changed := true; changed; {
		changed = false
		for fn, cs := range callees {
			s := sets[fn]
			for callee := range cs {
				for v := range sets[callee] {
					if !s[v] {
						s[v] = true
						changed = true
					}
				}
			}
		}
	}
	return sets
}

// inspectSkippingGo walks a body like ast.Inspect but does not descend
// into go statements.
func inspectSkippingGo(body *ast.BlockStmt, f func(ast.Node) bool) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isGo := n.(*ast.GoStmt); isGo {
			return false
		}
		return f(n)
	})
}

// cycles reports one diagnostic per strongly connected component of the
// graph, with a witness path.
func (g *lockGraph) cycles() []Diagnostic {
	nodes := make([]*types.Var, 0, len(g.nodes))
	for v := range g.nodes {
		nodes = append(nodes, v)
	}
	sort.Slice(nodes, func(i, j int) bool { return g.label(nodes[i]) < g.label(nodes[j]) })
	idx := make(map[*types.Var]int, len(nodes))
	for i, v := range nodes {
		idx[v] = i
	}
	succs := func(i int) []int {
		var out []int
		for to := range g.edges[nodes[i]] {
			out = append(out, idx[to])
		}
		sort.Ints(out)
		return out
	}
	var out []Diagnostic
	comps := tarjanSCC(len(nodes), succs)
	// Reverse-topological order from Tarjan; sort by label for stability.
	sort.Slice(comps, func(i, j int) bool {
		return g.label(nodes[minIdx(comps[i])]) < g.label(nodes[minIdx(comps[j])])
	})
	for _, comp := range comps {
		if len(comp) < 2 {
			continue // self-edges are reported as recursive locks
		}
		out = append(out, g.reportCycle(nodes, comp))
	}
	return out
}

func minIdx(comp []int) int {
	m := comp[0]
	for _, i := range comp[1:] {
		if i < m {
			m = i
		}
	}
	return m
}

// reportCycle renders one SCC as a witness path A → B → ... → A.
func (g *lockGraph) reportCycle(nodes []*types.Var, comp []int) Diagnostic {
	member := make(map[*types.Var]bool, len(comp))
	for _, i := range comp {
		member[nodes[i]] = true
	}
	start := nodes[minIdx(comp)]
	// Walk edges inside the SCC (smallest-label successor first) until the
	// start repeats; within one SCC this always closes a cycle.
	path := []*types.Var{start}
	seen := map[*types.Var]bool{start: true}
	cur := start
	for {
		var next *types.Var
		for to := range g.edges[cur] {
			if !member[to] {
				continue
			}
			if next == nil || g.label(to) < g.label(next) {
				// Prefer closing the cycle over extending it.
				if to == start {
					next = to
					break
				}
				if !seen[to] {
					next = to
				}
			}
		}
		if next == nil {
			// All in-SCC successors already visited: close at the first
			// revisitable one.
			for to := range g.edges[cur] {
				if member[to] && (next == nil || g.label(to) < g.label(next)) {
					next = to
				}
			}
		}
		path = append(path, next)
		if next == start || seen[next] {
			break
		}
		seen[next] = true
		cur = next
	}
	labels := make([]string, len(path))
	for i, v := range path {
		labels[i] = g.label(v)
	}
	witness := labels[0]
	for _, l := range labels[1:] {
		witness += " -> " + l
	}
	// Anchor the report at the first edge of the witness; cite the others.
	first := g.edges[path[0]][path[1]]
	var notes []string
	for i := 1; i+1 < len(path); i++ {
		if e := g.edges[path[i]][path[i+1]]; e != nil {
			notes = append(notes, e.note)
		}
	}
	msg := fmt.Sprintf("potential deadlock: lock-order cycle %s (%s", witness, first.note)
	for _, n := range notes {
		msg += "; " + n
	}
	msg += ")"
	return Diagnostic{Pos: first.fset.Position(first.pos), Rule: LockOrder{}.Name(), Msg: msg}
}

// heldEntry pairs a held key with its site for deterministic iteration.
type heldEntry struct {
	key lockKey
	pos token.Pos
}

func sortedHeld(fact lockFact, g *lockGraph) []heldEntry {
	var out []heldEntry
	for k, pos := range fact.held {
		out = append(out, heldEntry{key: k, pos: pos})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos != out[j].pos {
			return out[i].pos < out[j].pos
		}
		return out[i].key.String() < out[j].key.String()
	})
	return out
}

func sortedVars(set map[*types.Var]bool, g *lockGraph) []*types.Var {
	out := make([]*types.Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return g.label(out[i]) < g.label(out[j]) })
	return out
}

// collectFieldOwners labels every struct field as Type.field (and
// package-level vars as pkg.var) across the program, for readable
// diagnostics.
func collectFieldOwners(pkgs []*Package) map[*types.Var]string {
	labels := make(map[*types.Var]string)
	for _, p := range pkgs {
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					return true
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					return true
				}
				// Covers named and embedded fields alike (an embedded
				// sync.Mutex field is named "Mutex").
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					labels[f] = ts.Name.Name + "." + f.Name()
				}
				return true
			})
		}
		// Package-level vars.
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			if v, ok := scope.Lookup(name).(*types.Var); ok {
				if _, exists := labels[v]; !exists {
					labels[v] = p.Types.Name() + "." + v.Name()
				}
			}
		}
	}
	return labels
}
