// Package lint implements streamlint, the project's static-analysis suite.
// It is built only on the standard library's go/ast, go/parser, go/types
// and go/importer packages. It carries an intraprocedural CFG +
// forward-dataflow engine (cfg.go, flow.go, locks.go) that the
// concurrency rules run on, and enforces five project-specific rules:
//
//	mutex-discipline    fields annotated "guarded by <mu>" are only touched
//	                    while <mu> is held (flow-sensitive must-held facts)
//	unlockpath          a Lock is released on every exit path, including
//	                    panic unwinds of calls made while holding it
//	lockorder           the whole-program lock-acquisition graph is acyclic;
//	                    a cycle is reported with its witness path
//	unchecked-err       no silently dropped error results
//	invariant-coverage  types with a checkInvariants method call it from
//	                    every exported mutating method
//
// Each rule guards an invariant that no test names when it breaks: a
// lock-order inversion or a leaked lock shows only as a hang, a guarded
// field read without its lock or a dropped error often not at all.
//
// Rules apply to production code only; _test.go files are never analyzed.
// A diagnostic can be suppressed with an explicit, justified escape hatch:
//
//	//lint:ignore <rule> <reason>
//
// placed on the offending line, on the line directly above it, or in the
// doc comment of a function to suppress the rule for the whole function.
// A directive without a rule name and a reason, or naming no rule of
// AllRules, is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one rule violation at a source position.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Rule is one streamlint check, run per package.
type Rule interface {
	Name() string
	Doc() string
	Check(p *Package) []Diagnostic
}

// ProgramRule is a rule that additionally runs once over the whole
// program, seeing every loaded package together (the lock-order graph
// crosses package boundaries). Its per-package Check typically reports
// nothing.
type ProgramRule interface {
	Rule
	CheckProgram(pkgs []*Package) []Diagnostic
}

// AllRules returns every streamlint rule, in reporting order.
func AllRules() []Rule {
	return []Rule{
		MutexDiscipline{},
		UnlockPath{},
		LockOrder{},
		UncheckedErr{},
		InvariantCoverage{},
	}
}

// Run applies the rules to every package and returns the surviving
// diagnostics (suppressions applied), sorted by position. Rules that
// implement ProgramRule additionally run once over all packages, with
// the union of every package's suppressions applied (a program-scoped
// diagnostic lands in whichever file its witness is in).
func Run(pkgs []*Package, rules []Rule) []Diagnostic {
	var out []Diagnostic
	var all []*suppressions
	for _, p := range pkgs {
		sup, bad := collectSuppressions(p)
		all = append(all, sup)
		out = append(out, bad...)
		for _, r := range rules {
			for _, d := range r.Check(p) {
				if !sup.covers(d) {
					out = append(out, d)
				}
			}
		}
	}
	for _, r := range rules {
		pr, ok := r.(ProgramRule)
		if !ok {
			continue
		}
		for _, d := range pr.CheckProgram(pkgs) {
			covered := false
			for _, sup := range all {
				if sup.covers(d) {
					covered = true
					break
				}
			}
			if !covered {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}

// ignoreDirective is the comment prefix of the escape hatch.
const ignoreDirective = "lint:ignore"

// suppressions indexes //lint:ignore directives of one package.
type suppressions struct {
	// lines maps file -> line -> suppressed rule names. A directive on
	// line L suppresses L (trailing comment) and L+1 (comment above).
	lines map[string]map[int]map[string]bool
	// funcs suppress a rule over a whole function body (directive in the
	// function's doc comment).
	funcs []funcSuppression
}

type funcSuppression struct {
	file       string
	start, end int
	rule       string
}

func (s *suppressions) covers(d Diagnostic) bool {
	if byLine := s.lines[d.Pos.Filename]; byLine != nil {
		for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
			if rules := byLine[line]; rules[d.Rule] {
				return true
			}
		}
	}
	for _, f := range s.funcs {
		if f.file == d.Pos.Filename && f.rule == d.Rule && f.start <= d.Pos.Line && d.Pos.Line <= f.end {
			return true
		}
	}
	return false
}

// collectSuppressions scans a package's comments for //lint:ignore
// directives. Malformed directives and directives naming no rule are
// returned as diagnostics, so neither a typo nor a directive for a
// deleted rule can linger.
func collectSuppressions(p *Package) (*suppressions, []Diagnostic) {
	sup := &suppressions{lines: make(map[string]map[int]map[string]bool)}
	known := make(map[string]bool)
	for _, r := range AllRules() {
		known[r.Name()] = true
	}
	var bad []Diagnostic
	for _, file := range p.Files {
		// Directives inside function doc comments cover the whole body.
		docs := make(map[*ast.Comment]*ast.FuncDecl)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				docs[c] = fd
			}
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := directiveText(c.Text)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				rule, reason, _ := strings.Cut(text, " ")
				if rule == "" || strings.TrimSpace(reason) == "" {
					bad = append(bad, Diagnostic{
						Pos:  pos,
						Rule: "ignore-syntax",
						Msg:  "malformed //lint:ignore directive: want //lint:ignore <rule> <reason>",
					})
					continue
				}
				if !known[rule] {
					bad = append(bad, Diagnostic{
						Pos:  pos,
						Rule: "ignore-syntax",
						Msg:  fmt.Sprintf("//lint:ignore names unknown rule %q", rule),
					})
					continue
				}
				if fd, ok := docs[c]; ok {
					sup.funcs = append(sup.funcs, funcSuppression{
						file:  pos.Filename,
						start: p.Fset.Position(fd.Pos()).Line,
						end:   p.Fset.Position(fd.End()).Line,
						rule:  rule,
					})
					continue
				}
				byLine := sup.lines[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					sup.lines[pos.Filename] = byLine
				}
				if byLine[pos.Line] == nil {
					byLine[pos.Line] = make(map[string]bool)
				}
				byLine[pos.Line][rule] = true
			}
		}
	}
	return sup, bad
}

// directiveText extracts the payload of a //lint:ignore comment, reporting
// whether the comment is one.
func directiveText(comment string) (string, bool) {
	body, ok := strings.CutPrefix(comment, "//")
	if !ok {
		return "", false // /* */ comments are not directives
	}
	body = strings.TrimSpace(body)
	rest, ok := strings.CutPrefix(body, ignoreDirective)
	if !ok {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// diag builds a Diagnostic at a node's position.
func diag(p *Package, n ast.Node, rule, format string, args ...any) Diagnostic {
	return diagAt(p, n.Pos(), rule, format, args...)
}

// diagAt builds a Diagnostic at a raw token position.
func diagAt(p *Package, pos token.Pos, rule, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:  p.Fset.Position(pos),
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	}
}
