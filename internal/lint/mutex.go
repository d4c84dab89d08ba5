package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// MutexDiscipline enforces the "guarded by" annotation: a struct field
// whose declaration carries a comment
//
//	fieldName T // guarded by mu
//
// may only be read or written while that mutex is held. The check is
// flow-sensitive: the dataflow engine computes the set of locks that MUST
// be held entering each statement, and every guarded-field access is
// checked against it — an access after Unlock, before Lock, or on a path
// that skipped the Lock is reported even if the same function locks the
// mutex elsewhere. Immediately-invoked function literals inherit the
// must-held facts of their occurrence; escaping literals (callbacks,
// go/defer bodies) do not, since nothing guarantees the caller's locks
// survive to their execution. Helpers that run with the lock already held
// (or before the value escapes to another goroutine, e.g. constructors)
// must carry a //lint:ignore mutex-discipline directive with the reason.
type MutexDiscipline struct{}

// Name implements Rule.
func (MutexDiscipline) Name() string { return "mutex-discipline" }

// Doc implements Rule.
func (MutexDiscipline) Doc() string {
	return `fields annotated "// guarded by <mu>" are only accessed under <mu>.Lock/RLock`
}

var guardedByRE = regexp.MustCompile(`guarded by (\w+)`)

// Check implements Rule.
func (MutexDiscipline) Check(p *Package) []Diagnostic {
	guards := collectGuards(p)
	if len(guards) == 0 {
		return nil
	}
	a := analyzeLocks(p)
	var out []Diagnostic
	for _, fa := range a.funcs {
		for _, n := range fa.cfg.Nodes {
			if n.Stmt == nil {
				continue
			}
			fact := fa.must[n]
			walkOwn(n.Stmt, func(m ast.Node) bool {
				sel, ok := m.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				selection := p.Info.Selections[sel]
				if selection == nil || selection.Kind() != types.FieldVal {
					return true
				}
				field, ok := selection.Obj().(*types.Var)
				if !ok {
					return true
				}
				mu, guarded := guards[field]
				if !guarded || guardHeld(p, fact, sel, mu) {
					return true
				}
				out = append(out, diag(p, sel, MutexDiscipline{}.Name(),
					"%s is guarded by %s, but %s is not held at this access in %s",
					field.Name(), mu.Name(), mu.Name(), fa.fn.name))
				return true
			})
		}
	}
	return out
}

// guardHeld reports whether the mutex guarding the accessed field's
// instance is in the must-held set at the access.
func guardHeld(p *Package, fact lockFact, sel *ast.SelectorExpr, mu *types.Var) bool {
	key, ok := guardKey(p, sel, mu)
	if !ok {
		return false
	}
	_, held := fact.held[key]
	return held
}

// collectGuards maps each annotated field object to the mutex field object
// named by its "guarded by" comment.
func collectGuards(p *Package) map[*types.Var]*types.Var {
	guards := make(map[*types.Var]*types.Var)
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				muName, ok := guardAnnotation(f)
				if !ok {
					continue
				}
				mu := structFieldByName(p, st, muName)
				if mu == nil {
					continue // dangling annotation; nothing to enforce against
				}
				for _, name := range f.Names {
					if fieldObj, ok := p.Info.Defs[name].(*types.Var); ok {
						guards[fieldObj] = mu
					}
				}
			}
			return true
		})
	}
	return guards
}

// guardAnnotation extracts the mutex name from a field's doc or trailing
// comment.
func guardAnnotation(f *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1], true
		}
	}
	return "", false
}

// structFieldByName resolves a sibling field's object within the same
// struct literal.
func structFieldByName(p *Package, st *ast.StructType, name string) *types.Var {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name == name {
				v, _ := p.Info.Defs[n].(*types.Var)
				return v
			}
		}
	}
	// Embedded fields carry no name ident; their implicit name is the type
	// name ("Mutex" for an embedded sync.Mutex). Resolve through the
	// type-checked struct so "guarded by Mutex" works on embedded locks.
	if tv, ok := p.Info.Types[st]; ok {
		if s, ok := tv.Type.(*types.Struct); ok {
			for i := 0; i < s.NumFields(); i++ {
				if f := s.Field(i); f.Embedded() && f.Name() == name {
					return f
				}
			}
		}
	}
	return nil
}
