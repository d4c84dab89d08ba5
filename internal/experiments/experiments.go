// Package experiments regenerates every figure and table of the paper's
// evaluation (section 5), plus the ablation studies called out in
// DESIGN.md. Each experiment produces a Table that cmd/experiments prints;
// the benchmark harness at the repository root reuses the same code so
// `go test -bench` and the CLI agree.
//
// Parameters follow EXPERIMENTS.md: the paper's exact values were partially
// garbled in the source text and its data was proprietary, so defaults are
// laptop-scale and the reproduction target is the qualitative shape (who
// wins, by roughly what factor).
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	// Timing names the columns whose cells are wall-clock measurements;
	// every other cell is a pure function of the Config.
	Timing []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table as aligned text.
//
//lint:ignore unchecked-err best-effort rendering into the caller's writer (stdout or a buffer); output errors are the caller's domain
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// FprintCSV renders the table as CSV with a leading comment line carrying
// the id and title, for plotting the figures.
//
//lint:ignore unchecked-err best-effort rendering into the caller's writer (stdout or a buffer); output errors are the caller's domain
func (t *Table) FprintCSV(w io.Writer) {
	fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title)
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return
		}
	}
	cw.Flush()
	fmt.Fprintln(w)
}

// Config scales the experiments. Zero fields take defaults via Defaults.
type Config struct {
	// Points is the stream length for the Figure 6 accuracy panels.
	Points int
	// TimedPoints is the number of per-point maintenance steps measured
	// in the Figure 6 time panels.
	TimedPoints int
	// Queries is the number of random range-sum queries per checkpoint.
	Queries int
	// Checkpoints is how many times per run accuracy is sampled.
	Checkpoints int
	// Seed drives all generators and workloads.
	Seed int64
	// Fast shrinks, for smoke runs, every size left at zero and the
	// experiments' built-in sweeps.
	Fast bool
	// AccWindows / TimeWindows override the window sizes swept by the
	// Figure 6 accuracy and time panels. Nil keeps the defaults.
	AccWindows  []int
	TimeWindows []int
	// Buckets overrides the bucket budgets swept by Figure 6.
	Buckets []int
}

// Defaults fills zero fields. Fast picks smaller values for the sizes
// left at zero; a size set explicitly is kept either way.
func (c Config) Defaults() Config {
	points, timed, queries, checkpoints := 20000, 600, 400, 8
	if c.Fast {
		points, timed, queries, checkpoints = 4000, 300, 100, 3
	}
	if c.Points == 0 {
		c.Points = points
	}
	if c.TimedPoints == 0 {
		c.TimedPoints = timed
	}
	if c.Queries == 0 {
		c.Queries = queries
	}
	if c.Checkpoints == 0 {
		c.Checkpoints = checkpoints
	}
	if c.Seed == 0 {
		c.Seed = 2002
	}
	if c.AccWindows == nil {
		c.AccWindows = []int{256, 512, 1024, 2048}
	}
	if c.TimeWindows == nil {
		c.TimeWindows = []int{2048, 4096, 8192}
	}
	if c.Buckets == nil {
		c.Buckets = []int{8, 16}
	}
	return c
}

// Runner executes one experiment.
type Runner func(Config) ([]*Table, error)

// Registry maps experiment ids to runners; "all" is handled by Run.
var Registry = map[string]Runner{
	"fig6a":          Fig6a,
	"fig6b":          Fig6b,
	"fig6c":          Fig6c,
	"fig6d":          Fig6d,
	"agglom-wavelet": AgglomVsWavelet,
	"agglom-opt":     AgglomVsOptimal,
	"similarity":     Similarity,
	"warehouse":      Warehouse,
	"ablation":       Ablations,
	"quantile":       QuantileExtension,
	"space":          Space,
}

// Names returns the registered experiment ids in sorted order.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes the named experiment ("all" runs everything) and writes the
// tables to w as aligned text.
func Run(name string, cfg Config, w io.Writer) error {
	return run(name, cfg, w, (*Table).Fprint)
}

// RunCSV is Run with CSV output.
func RunCSV(name string, cfg Config, w io.Writer) error {
	return run(name, cfg, w, (*Table).FprintCSV)
}

// RunToDir executes the named experiment ("all" for everything) and writes
// one CSV file per table into dir (created if missing), named <id>.csv.
func RunToDir(name string, cfg Config, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	var firstErr error
	runErr := run(name, cfg, nil, func(t *Table, _ io.Writer) {
		f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		t.FprintCSV(f)
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if runErr != nil {
		return runErr
	}
	return firstErr
}

func run(name string, cfg Config, w io.Writer, emit func(*Table, io.Writer)) error {
	cfg = cfg.Defaults()
	names := []string{name}
	if name == "all" {
		names = Names()
	}
	for _, n := range names {
		r, ok := Registry[n]
		if !ok {
			return fmt.Errorf("experiments: unknown experiment %q (have %s)", n, strings.Join(Names(), ", "))
		}
		tables, err := r(cfg)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", n, err)
		}
		for _, t := range tables {
			emit(t, w)
		}
	}
	return nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func g4(v float64) string { return fmt.Sprintf("%.4g", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
