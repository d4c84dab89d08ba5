package lint_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"streamhist/internal/lint"
)

// The golden tests run each rule over a seeded package under testdata/ and
// compare the surviving diagnostics (so //lint:ignore suppression is
// exercised too) against `// want "substring"` comments: a diagnostic must
// land on the line of a want comment whose substring it contains, every
// want must be matched, and nothing else may be reported.

var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

type want struct {
	line    int
	substr  string
	matched bool
}

func parseWants(t *testing.T, dir string) map[string][]*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[string][]*want)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRE.FindStringSubmatch(line); m != nil {
				wants[path] = append(wants[path], &want{line: i + 1, substr: m[1]})
			}
		}
	}
	return wants
}

func runGolden(t *testing.T, name string, rules []lint.Rule) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := lint.LoadDir(dir, "streamlint.test/"+name)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags := lint.Run([]*lint.Package{pkg}, rules)
	wants := parseWants(t, dir)
	for _, d := range diags {
		matched := false
		for _, w := range wants[d.Pos.Filename] {
			if w.line == d.Pos.Line && !w.matched && strings.Contains(d.Msg, w.substr) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for file, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: want diagnostic containing %q, got none", file, w.line, w.substr)
			}
		}
	}
}

func TestMutexDisciplineGolden(t *testing.T) {
	runGolden(t, "mutexd", []lint.Rule{lint.MutexDiscipline{}})
}

func TestUncheckedErrGolden(t *testing.T) {
	runGolden(t, "errcheck", []lint.Rule{lint.UncheckedErr{}})
}

func TestInvariantCoverageGolden(t *testing.T) {
	runGolden(t, "invcov", []lint.Rule{lint.InvariantCoverage{}})
}

func TestUnlockPathGolden(t *testing.T) {
	runGolden(t, "unlockpathd", []lint.Rule{lint.UnlockPath{}})
}

func TestLockOrderGolden(t *testing.T) {
	runGolden(t, "lockorderd", []lint.Rule{lint.LockOrder{}})
}

// TestIgnoreEdgeCases pins down the suppression corner cases: a directive
// on a line that trips two rules silences only the named rule; a
// function-level directive covers a body whose guard is an embedded
// sync.Mutex; and a directive with no reason suppresses nothing and is
// itself reported. Expectations are asserted programmatically because the
// malformed-directive line cannot carry a want comment (any trailing text
// would become its reason).
func TestIgnoreEdgeCases(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "ignoreedge"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := lint.LoadDir(dir, "streamlint.test/ignoreedge")
	if err != nil {
		t.Fatal(err)
	}
	rules := []lint.Rule{lint.MutexDiscipline{}, lint.UnlockPath{}, lint.UncheckedErr{}}
	diags := lint.Run([]*lint.Package{pkg}, rules)

	expected := []struct{ rule, substr string }{
		{"ignore-syntax", "malformed //lint:ignore directive"},
		{"mutex-discipline", "not held at this access in sendPlain"}, // unchecked-err on the same line is suppressed
		{"mutex-discipline", "not held at this access in unguarded"}, // embedded-mutex guard enforced
		{"unlockpath", "not released on every return path of missingReason"},
	}
	matched := make([]bool, len(diags))
	for _, e := range expected {
		found := false
		for i, d := range diags {
			if !matched[i] && d.Rule == e.rule && strings.Contains(d.Msg, e.substr) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing diagnostic: rule %s containing %q", e.rule, e.substr)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestIgnoreSyntax checks that a malformed //lint:ignore directive, or
// one naming no rule, is itself reported, so neither a typo nor a
// directive for a deleted rule can linger.
func TestIgnoreSyntax(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "ignoresyntax"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := lint.LoadDir(dir, "streamlint.test/ignoresyntax")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run([]*lint.Package{pkg}, nil)
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 2 malformed-directive reports and 1 unknown-rule report: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Rule != "ignore-syntax" {
			t.Errorf("got rule %q, want ignore-syntax: %s", d.Rule, d)
		}
	}
}

// TestRulesSelfClean asserts the analyzer itself is a clean package under
// every rule — streamlint must pass its own gate.
func TestRulesSelfClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load("streamhist/internal/lint")
	if err != nil {
		t.Fatal(err)
	}
	if diags := lint.Run([]*lint.Package{pkg}, lint.AllRules()); len(diags) != 0 {
		t.Errorf("streamlint is not self-clean:")
		for _, d := range diags {
			t.Errorf("  %s", d)
		}
	}
}
