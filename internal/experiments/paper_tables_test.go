package experiments

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

// paperTablesTimedSlides is the timed-slide count fig6c and fig6d run with
// in TestPaperTables. Their only non-timing cells are the (n, B)
// parameters, so the default 600 slides would buy nothing but time.
const paperTablesTimedSlides = 5

// TestPaperTables regenerates every table of every experiment at the
// default Config and checks it against the committed experiments_output.txt:
// the same table IDs, column names and row counts, and the same text in
// every cell outside the table's Timing columns. A change that moves a
// number of the paper's evaluation fails here; regenerate the file with
// `go run ./cmd/experiments -run all` only when the move is intended.
func TestPaperTables(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every experiment table")
	}
	if raceEnabled {
		t.Skip("regenerating every table under the race detector takes minutes")
	}
	want, err := readTables("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	produced := map[string]bool{}
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		for id := range want {
			if !produced[id] {
				t.Errorf("table %s of experiments_output.txt is produced by no experiment", id)
			}
		}
	})
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{}.Defaults()
			if name == "fig6c" || name == "fig6d" {
				cfg.TimedPoints = paperTablesTimedSlides
			}
			tables, err := Registry[name](cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range tables {
				mu.Lock()
				produced[got.ID] = true
				mu.Unlock()
				w, ok := want[got.ID]
				if !ok {
					t.Errorf("table %s is missing from experiments_output.txt", got.ID)
					continue
				}
				compareTable(t, got, w)
			}
		})
	}
}

// compareTable reports every difference between got and the committed
// want outside got's Timing columns.
func compareTable(t *testing.T, got, want *Table) {
	t.Helper()
	if !slices.Equal(got.Columns, want.Columns) {
		t.Errorf("%s: columns %q, committed %q", got.ID, got.Columns, want.Columns)
		return
	}
	if len(got.Rows) != len(want.Rows) {
		t.Errorf("%s: %d rows, committed %d", got.ID, len(got.Rows), len(want.Rows))
		return
	}
	timing := make([]bool, len(got.Columns))
	for _, name := range got.Timing {
		i := slices.Index(got.Columns, name)
		if i < 0 {
			t.Errorf("%s: timing column %q is not a column", got.ID, name)
			continue
		}
		timing[i] = true
	}
	for r, row := range got.Rows {
		if len(row) != len(got.Columns) {
			t.Errorf("%s row %d: %d cells for %d columns", got.ID, r+1, len(row), len(got.Columns))
			continue
		}
		for c, cell := range row {
			if !timing[c] && cell != want.Rows[r][c] {
				t.Errorf("%s row %d, %q: %s, committed %s", got.ID, r+1, got.Columns[c], cell, want.Rows[r][c])
			}
		}
	}
}

// readTables parses the aligned text that Table.Fprint renders, keyed by
// table ID. The dashed rule under each header gives every column's offset
// and width, so a cell may itself contain spaces.
func readTables(path string) (map[string]*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	out := map[string]*Table{}
	for i := 0; i < len(lines); i++ {
		head, ok := strings.CutPrefix(lines[i], "== ")
		if !ok {
			continue
		}
		id, _, ok := strings.Cut(head, ": ")
		if !ok || i+2 >= len(lines) || out[id] != nil {
			return nil, fmt.Errorf("%s:%d: malformed or repeated table header", path, i+1)
		}
		spans := ruleSpans(lines[i+2])
		tb := &Table{ID: id, Columns: splitCells(lines[i+1], spans)}
		for i += 3; i < len(lines) && lines[i] != "" && !strings.HasPrefix(lines[i], "  note: "); i++ {
			tb.Rows = append(tb.Rows, splitCells(lines[i], spans))
		}
		out[id] = tb
	}
	return out, nil
}

// ruleSpans returns the [start, end) byte offsets of each run of dashes.
func ruleSpans(rule string) [][2]int {
	var spans [][2]int
	for i := 0; i < len(rule); i++ {
		if rule[i] != '-' {
			continue
		}
		j := i
		for j < len(rule) && rule[j] == '-' {
			j++
		}
		spans = append(spans, [2]int{i, j})
		i = j
	}
	return spans
}

func splitCells(line string, spans [][2]int) []string {
	cells := make([]string, len(spans))
	for k, s := range spans {
		lo, hi := min(s[0], len(line)), min(s[1], len(line))
		cells[k] = strings.TrimSpace(line[lo:hi])
	}
	return cells
}
