package lint

import (
	"go/ast"
	"go/types"
)

// This file runs the engine once per package and shares the result
// between the concurrency rules: every function body's CFG plus its
// must-held (guard checking) and may-held (release checking) lock facts.

// funcAnalysis is the engine's output for one function body: IN facts
// per node under the three lattice/transfer combinations the rules need.
type funcAnalysis struct {
	fn  fnBody
	cfg *CFG
	// must: intersection join, defers keep locks held — "is the guard
	// provably held at this access" (mutex-discipline).
	must map[*CFGNode]lockFact
	// mayHeld: union join, defers keep locks held — "might this lock be
	// held here" (lockorder's nesting edges).
	mayHeld map[*CFGNode]lockFact
	// mayLeaked: union join, defers release immediately — "can this lock
	// survive to an exit without a pending release" (unlockpath).
	mayLeaked map[*CFGNode]lockFact
}

type pkgLockAnalysis struct {
	p       *Package
	tracker *lockTracker
	funcs   []*funcAnalysis
}

// analyzeLocks builds CFGs and solves both lock analyses for every
// function body of the package.
//
// Function literals are analyzed as functions of their own, with one
// refinement: an immediately-invoked literal (func(){...}()) runs
// synchronously at its occurrence, so its must-held entry fact is seeded
// with the must-held fact at that point in the enclosing function.
// Literals that escape — assigned, passed as callbacks, deferred, or
// launched with go — start from an empty fact, since nothing guarantees
// the caller's locks are still (or ever) held when they run.
func analyzeLocks(p *Package) *pkgLockAnalysis {
	a := &pkgLockAnalysis{p: p, tracker: newLockTracker(p)}
	seeds := make(map[*ast.BlockStmt]lockFact)
	// packageFuncs is position-sorted, so an enclosing function (and an
	// enclosing literal) is always analyzed before the literals it seeds.
	for _, fn := range packageFuncs(p) {
		entry := entryLockFact()
		if seed, ok := seeds[fn.body]; ok {
			entry = seed
		}
		cfg := buildCFG(p, fn.body)
		fa := &funcAnalysis{
			fn:        fn,
			cfg:       cfg,
			must:      solveForward(cfg, mustLocks{}, entry, a.tracker.transferKeep),
			mayHeld:   solveForward(cfg, mayLocks{}, entryLockFact(), a.tracker.transferKeep),
			mayLeaked: solveForward(cfg, mayLocks{}, entryLockFact(), a.tracker.transferRelease),
		}
		a.funcs = append(a.funcs, fa)
		for _, n := range cfg.Nodes {
			if n.Stmt == nil {
				continue
			}
			fact := fa.must[n]
			for _, lit := range iifeLiterals(n.Stmt) {
				seed := lockFact{reached: true, held: fact.clone().held}
				seeds[lit.Body] = seed
			}
		}
	}
	return a
}

// iifeLiterals finds the immediately-invoked function literals evaluated
// at a statement's own node. The call expressions of defer and go
// statements are excluded (they do not run at the statement), but their
// arguments are not.
func iifeLiterals(s ast.Stmt) []*ast.FuncLit {
	var lits []*ast.FuncLit
	collect := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
		return true
	}
	switch s := s.(type) {
	case *ast.DeferStmt:
		for _, arg := range s.Call.Args {
			ast.Inspect(arg, func(n ast.Node) bool {
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false
				}
				return collect(n)
			})
		}
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			ast.Inspect(arg, func(n ast.Node) bool {
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false
				}
				return collect(n)
			})
		}
	default:
		walkOwn(s, collect)
	}
	return lits
}

// guardKey names the mutex instance that guards a field access: the
// access's owner chain with the guard mutex (a sibling field of the
// accessed one) in place of the field. Returns false when the owner
// expression cannot be decomposed (e.g. rooted at a call result), in
// which case the access cannot be proven guarded.
func guardKey(p *Package, sel *ast.SelectorExpr, mu *types.Var) (lockKey, bool) {
	root, fields, ok := decomposeChain(p, sel)
	if !ok || len(fields) == 0 {
		return lockKey{}, false
	}
	withMu := append(append([]*types.Var{}, fields[:len(fields)-1]...), mu)
	return makeKey(root, withMu), true
}
