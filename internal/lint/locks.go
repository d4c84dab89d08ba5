package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file gives the dataflow engine its lock vocabulary: resolving
// which mutex a (R)Lock/(R)Unlock call operates on (through go/types,
// including embedded sync.Mutex fields and selector chains like
// s.wal.mu), the lock fact the concurrency rules flow through the CFG,
// and the may-/must-held lattices over it.

// mutexMethodOps maps the sync mutex methods to their effect. TryLock is
// deliberately absent: its acquisition is conditional on the return
// value, which a path-insensitive transfer cannot track.
var mutexMethodOps = map[string]string{
	"(*sync.Mutex).Lock":      "lock",
	"(*sync.Mutex).Unlock":    "unlock",
	"(*sync.RWMutex).Lock":    "lock",
	"(*sync.RWMutex).Unlock":  "unlock",
	"(*sync.RWMutex).RLock":   "lock",
	"(*sync.RWMutex).RUnlock": "unlock",
}

// lockKey names one mutex as an intraprocedural value: the root object
// the selector chain starts at (a receiver, local, parameter or
// package-level variable) plus the field path down to the mutex.
// Identity is structural, so s.mu in two statements is the same key while
// a.mu and b.mu are distinct.
type lockKey struct {
	root types.Object
	path string // dotted field names, "" when root itself is the mutex
	// mutex is the mutex variable itself — the field var (shared by every
	// instance of the owning type, which is what makes the cross-package
	// lock-order graph possible) or the root var for non-field mutexes.
	mutex *types.Var
}

func (k lockKey) String() string {
	name := "?"
	if k.root != nil {
		name = k.root.Name()
	}
	if k.path != "" {
		name += "." + k.path
	}
	return name
}

// lockFact is the engine's concurrency fact: which locks may/must be
// held entering a node. How a deferred release affects it is a property
// of the TRANSFER, not the fact (see lockTracker.transfer): for release
// checking a defer removes the lock immediately (every exit reached
// after the defer has the release pending), while for guard and ordering
// checks the lock stays held to the function's end.
type lockFact struct {
	reached bool
	held    map[lockKey]token.Pos // acquisition site of each held lock
}

func (f lockFact) clone() lockFact {
	g := lockFact{reached: f.reached}
	if f.held != nil {
		g.held = make(map[lockKey]token.Pos, len(f.held))
		for k, v := range f.held {
			g.held[k] = v
		}
	}
	return g
}

func lockFactsEqual(a, b lockFact) bool {
	if a.reached != b.reached || len(a.held) != len(b.held) {
		return false
	}
	for k, v := range a.held {
		if w, ok := b.held[k]; !ok || v != w {
			return false
		}
	}
	return true
}

// mayLocks is the lattice for leak and ordering detection: a lock counts
// as held at a point if it is held on ANY path there (union), erring
// toward reporting.
type mayLocks struct{}

func (mayLocks) bottom() lockFact { return lockFact{} }

func (mayLocks) equal(a, b lockFact) bool { return lockFactsEqual(a, b) }

func (mayLocks) join(a, b lockFact) lockFact {
	if !a.reached {
		return b
	}
	if !b.reached {
		return a
	}
	out := lockFact{reached: true, held: map[lockKey]token.Pos{}}
	for k, v := range a.held {
		out.held[k] = v
	}
	for k, v := range b.held {
		if w, ok := out.held[k]; !ok || v < w { // keep the earliest site
			out.held[k] = v
		}
	}
	return out
}

// mustLocks is the lattice for guard checking: a lock counts as held only
// if it is held on EVERY path (intersection).
type mustLocks struct{}

func (mustLocks) bottom() lockFact { return lockFact{} }

func (mustLocks) equal(a, b lockFact) bool { return lockFactsEqual(a, b) }

func (mustLocks) join(a, b lockFact) lockFact {
	if !a.reached {
		return b
	}
	if !b.reached {
		return a
	}
	out := lockFact{reached: true, held: map[lockKey]token.Pos{}}
	for k, v := range a.held {
		if _, ok := b.held[k]; ok {
			out.held[k] = v
		}
	}
	return out
}

func entryLockFact() lockFact { return lockFact{reached: true} }

// lockOp is one mutex operation found in a statement.
type lockOp struct {
	key lockKey
	op  string // "lock", "unlock" or "defer-unlock"
	pos token.Pos
}

// lockTracker resolves mutex operations against one package and caches
// which mutexes a deferred helper method releases (the guardUnlock
// pattern: defer s.helper() where helper's body unlocks s.mu counts as a
// deferred release of s.mu).
type lockTracker struct {
	p        *Package
	decls    map[*types.Func]*ast.FuncDecl
	releases map[*types.Func][][]*types.Var // helper → receiver-relative unlock paths
}

func newLockTracker(p *Package) *lockTracker {
	return &lockTracker{
		p:        p,
		decls:    declIndex(p),
		releases: make(map[*types.Func][][]*types.Var),
	}
}

// declIndex maps each function object of the package to its declaration.
func declIndex(p *Package) map[*types.Func]*ast.FuncDecl {
	idx := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				idx[fn] = fd
			}
		}
	}
	return idx
}

// transfer is the engine's transfer function for lock facts.
// releaseOnDefer selects the defer semantics: true treats a deferred
// unlock as an immediate release (leak checking — every exit reached
// after the defer has the release pending), false keeps the lock held to
// the function's end (guard and ordering checks — the critical section
// extends until the defer actually runs).
func (lt *lockTracker) transfer(n *CFGNode, in lockFact, releaseOnDefer bool) lockFact {
	ops := lt.stmtOps(n.Stmt)
	if len(ops) == 0 {
		return in
	}
	out := in.clone()
	out.reached = true
	for _, op := range ops {
		switch op.op {
		case "lock":
			if out.held == nil {
				out.held = map[lockKey]token.Pos{}
			}
			out.held[op.key] = op.pos
		case "unlock":
			delete(out.held, op.key)
		case "defer-unlock":
			if releaseOnDefer {
				delete(out.held, op.key)
			}
		}
	}
	return out
}

// transferKeep is transfer with defers keeping locks held (guard and
// ordering analyses).
func (lt *lockTracker) transferKeep(n *CFGNode, in lockFact) lockFact {
	return lt.transfer(n, in, false)
}

// transferRelease is transfer with defers releasing immediately (leak
// analysis).
func (lt *lockTracker) transferRelease(n *CFGNode, in lockFact) lockFact {
	return lt.transfer(n, in, true)
}

// stmtOps extracts the mutex operations of one statement, in source
// order. Deferred releases — direct (defer mu.Unlock()), via a helper
// method whose body unlocks receiver mutexes, or via a deferred function
// literal that unlocks — become defer-unlock ops.
func (lt *lockTracker) stmtOps(s ast.Stmt) []lockOp {
	if s == nil {
		return nil
	}
	if ds, ok := s.(*ast.DeferStmt); ok {
		return lt.deferOps(ds)
	}
	var ops []lockOp
	walkOwn(s, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, op, ok := lt.lockCall(call); ok {
			ops = append(ops, lockOp{key: key, op: op, pos: call.Pos()})
		}
		return true
	})
	return ops
}

// deferOps interprets a defer statement as zero or more deferred
// releases.
func (lt *lockTracker) deferOps(ds *ast.DeferStmt) []lockOp {
	call := ds.Call
	if key, op, ok := lt.lockCall(call); ok && op == "unlock" {
		return []lockOp{{key: key, op: "defer-unlock", pos: call.Pos()}}
	}
	// defer func() { ... mu.Unlock() ... }()
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		var ops []lockOp
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if key, op, ok := lt.lockCall(c); ok && op == "unlock" {
					ops = append(ops, lockOp{key: key, op: "defer-unlock", pos: c.Pos()})
				}
			}
			return true
		})
		return ops
	}
	// defer s.helper() where helper's body unlocks receiver mutexes.
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := lt.p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil
	}
	rels := lt.helperReleases(fn)
	if len(rels) == 0 {
		return nil
	}
	root, fields, ok := decomposeChain(lt.p, sel.X)
	if !ok {
		return nil
	}
	var ops []lockOp
	for _, rel := range rels {
		all := append(append([]*types.Var{}, fields...), rel...)
		ops = append(ops, lockOp{key: makeKey(root, all), op: "defer-unlock", pos: call.Pos()})
	}
	return ops
}

// helperReleases computes (and caches) which receiver-relative mutex
// paths a same-package method unlocks anywhere in its body.
func (lt *lockTracker) helperReleases(fn *types.Func) [][]*types.Var {
	if rels, ok := lt.releases[fn]; ok {
		return rels
	}
	lt.releases[fn] = nil // cut recursion
	fd := lt.decls[fn]
	if fd == nil || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	recv := lt.p.Info.Defs[fd.Recv.List[0].Names[0]]
	if recv == nil {
		return nil
	}
	var rels [][]*types.Var
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, op, ok := lt.lockCall(call)
		if !ok || op != "unlock" || key.root != recv {
			return true
		}
		rels = append(rels, fieldPathOf(lt.p, call))
		return true
	})
	lt.releases[fn] = rels
	return rels
}

// lockCall resolves a call expression as a mutex operation, returning
// the key and "lock"/"unlock".
func (lt *lockTracker) lockCall(call *ast.CallExpr) (lockKey, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, "", false
	}
	fn, ok := lt.p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return lockKey{}, "", false
	}
	op, ok := mutexMethodOps[fn.FullName()]
	if !ok {
		return lockKey{}, "", false
	}
	root, fields, ok := decomposeChain(lt.p, sel.X)
	if !ok {
		return lockKey{}, "", false
	}
	// Embedded hops between the type of sel.X and the sync method (the
	// struct { sync.Mutex } case): the selection's index path names them.
	if s := lt.p.Info.Selections[sel]; s != nil {
		fields = append(fields, embeddedHops(s)...)
	}
	return makeKey(root, fields), op, true
}

// fieldPathOf returns the field chain of an unlock call's receiver
// (relative to its root), for helper-release mapping.
func fieldPathOf(p *Package, call *ast.CallExpr) []*types.Var {
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	_, fields, _ := decomposeChain(p, sel.X)
	if s := p.Info.Selections[sel]; s != nil {
		fields = append(fields, embeddedHops(s)...)
	}
	return fields
}

// embeddedHops lists the embedded fields a method selection traverses
// implicitly (all index entries but the final method).
func embeddedHops(s *types.Selection) []*types.Var {
	idx := s.Index()
	if len(idx) <= 1 {
		return nil
	}
	var fields []*types.Var
	t := s.Recv()
	for _, i := range idx[:len(idx)-1] {
		st, ok := derefType(t).Underlying().(*types.Struct)
		if !ok || i >= st.NumFields() {
			return fields
		}
		f := st.Field(i)
		fields = append(fields, f)
		t = f.Type()
	}
	return fields
}

// decomposeChain splits an expression like s.wal.mu (or plain mu, or
// pkg.mu) into its root object and field chain. Expressions rooted at
// anything but a simple identifier (map index, call result, ...) are not
// decomposable.
func decomposeChain(p *Package, e ast.Expr) (types.Object, []*types.Var, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := p.Info.Uses[x]
		if obj == nil {
			obj = p.Info.Defs[x]
		}
		return obj, nil, obj != nil
	case *ast.StarExpr:
		return decomposeChain(p, x.X)
	case *ast.SelectorExpr:
		if s := p.Info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
			root, fields, ok := decomposeChain(p, x.X)
			if !ok {
				return nil, nil, false
			}
			t := s.Recv()
			for _, i := range s.Index() {
				st, ok := derefType(t).Underlying().(*types.Struct)
				if !ok || i >= st.NumFields() {
					return nil, nil, false
				}
				f := st.Field(i)
				fields = append(fields, f)
				t = f.Type()
			}
			return root, fields, true
		}
		// Qualified package-level variable: pkg.Mu.
		if v, ok := p.Info.Uses[x.Sel].(*types.Var); ok && !v.IsField() {
			return v, nil, true
		}
		return nil, nil, false
	default:
		return nil, nil, false
	}
}

// makeKey builds a lockKey from a root object and field chain.
func makeKey(root types.Object, fields []*types.Var) lockKey {
	k := lockKey{root: root}
	if len(fields) > 0 {
		names := make([]string, len(fields))
		for i, f := range fields {
			names[i] = f.Name()
		}
		k.path = strings.Join(names, ".")
		k.mutex = fields[len(fields)-1]
	} else if v, ok := root.(*types.Var); ok {
		k.mutex = v
	}
	return k
}

// derefType strips one pointer level off a type.
func derefType(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// fnBody is one analyzable function: a declaration or a function
// literal.
type fnBody struct {
	name string
	decl *ast.FuncDecl // nil for literals
	body *ast.BlockStmt
	pos  token.Pos
}

// packageFuncs enumerates every function body of a package: all
// declarations plus every function literal (each literal is analyzed as
// its own function; see the CFG's granularity notes).
func packageFuncs(p *Package) []fnBody {
	var out []fnBody
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fnBody{name: funcDisplayName(fd), decl: fd, body: fd.Body, pos: fd.Pos()})
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, fnBody{name: "function literal", body: lit.Body, pos: lit.Pos()})
			}
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// funcDisplayName renders Type.Method or Func for diagnostics.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		if name := receiverTypeName(fd.Recv.List[0].Type); name != "" {
			return fmt.Sprintf("%s.%s", name, fd.Name.Name)
		}
	}
	return fd.Name.Name
}
