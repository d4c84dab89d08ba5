// Command streamlint runs the project's static-analysis suite
// (internal/lint) over the module and reports rule violations. It is a CI
// gate: any diagnostic is a failure.
//
// Usage:
//
//	streamlint [-list] [packages]
//
// Packages are module-relative directory patterns: "./..." (or no
// arguments) analyzes the whole module; "./internal/prefix" restricts the
// report to one package; a trailing "/..." matches a subtree. The whole
// module is always loaded and type-checked — patterns only filter which
// packages' diagnostics are reported. A pattern that matches no package
// is a usage error, so a typo cannot pass as a clean report.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 load or usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"

	"streamhist/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "print the rules and exit")
	flag.Parse()
	if *list {
		for _, r := range lint.AllRules() {
			fmt.Printf("%-20s %s\n", r.Name(), r.Doc())
		}
		return
	}
	if err := run(flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "streamlint: %v\n", err)
		os.Exit(2)
	}
}

func run(patterns []string) error {
	root, err := findModuleRoot()
	if err != nil {
		return err
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		return err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return err
	}
	var selected []*lint.Package
	for _, p := range pkgs {
		if matchesAny(root, p.Dir, patterns) {
			selected = append(selected, p)
		}
	}
	for _, pat := range patterns {
		if !slices.ContainsFunc(selected, func(p *lint.Package) bool {
			return matchesAny(root, p.Dir, []string{pat})
		}) {
			return fmt.Errorf("pattern %q matches no package", pat)
		}
	}
	diags := lint.Run(selected, lint.AllRules())
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil {
			diags[i].Pos.Filename = rel
		}
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "streamlint: %d issue(s) in %d package(s)\n", len(diags), len(selected))
		os.Exit(1)
	}
	return nil
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// matchesAny reports whether the package directory matches any pattern
// (none means everything). Each pattern is cleaned first, so
// "./internal/shard/" selects the package "internal/shard" does.
func matchesAny(root, dir string, patterns []string) bool {
	if len(patterns) == 0 {
		return true
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return false
	}
	rel = filepath.ToSlash(rel)
	for _, pat := range patterns {
		pat = path.Clean(filepath.ToSlash(pat))
		if pat == "..." || pat == rel {
			return true
		}
		if prefix, ok := strings.CutSuffix(pat, "/..."); ok && (rel == prefix || strings.HasPrefix(rel, prefix+"/")) {
			return true
		}
	}
	return false
}
