package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// tinyConfig keeps every experiment fast enough for unit tests.
func tinyConfig() Config {
	return Config{
		Fast:        true,
		TimedPoints: 10,
		AccWindows:  []int{128, 256},
		TimeWindows: []int{128, 256},
		Buckets:     []int{4, 8},
	}.Defaults()
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Notes:   []string{"a note"},
	}
	tb.AddRow("1", "2")
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "long-column", "a note", "1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != len(Registry) {
		t.Fatalf("Names() returned %d of %d", len(names), len(Registry))
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Errorf("names not sorted: %v", names)
		}
	}
}

// TestDefaults checks that Defaults fills only zero fields: Fast picks
// smaller fill values but never overrides a size set explicitly.
func TestDefaults(t *testing.T) {
	// points, timed, queries, checkpoints, seed
	sizes := func(c Config) [5]int64 {
		return [5]int64{int64(c.Points), int64(c.TimedPoints), int64(c.Queries), int64(c.Checkpoints), c.Seed}
	}
	for _, tc := range []struct {
		name string
		in   Config
		want [5]int64
	}{
		{"zero", Config{}, [5]int64{20000, 600, 400, 8, 2002}},
		{"fast", Config{Fast: true}, [5]int64{4000, 300, 100, 3, 2002}},
		{"explicit", Config{Points: 50000, TimedPoints: 10, Queries: 7, Checkpoints: 2, Seed: 9}, [5]int64{50000, 10, 7, 2, 9}},
		{"fast keeps explicit", Config{Fast: true, Points: 50000, TimedPoints: 10}, [5]int64{50000, 10, 100, 3, 2002}},
	} {
		if got := sizes(tc.in.Defaults()); got != tc.want {
			t.Errorf("%s: Defaults() sizes %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nope", Config{Fast: true}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestEveryExperimentRuns drives every registered experiment at tiny scale
// and sanity-checks the produced tables.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs are not short")
	}
	cfg := tinyConfig()
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tables, err := Registry[name](cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range tables {
				if tb.ID == "" || tb.Title == "" {
					t.Errorf("table missing metadata: %+v", tb)
				}
				if len(tb.Rows) == 0 {
					t.Errorf("table %s has no rows", tb.ID)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Columns) {
						t.Errorf("table %s: row width %d != %d columns", tb.ID, len(row), len(tb.Columns))
					}
				}
			}
		})
	}
}

// TestFig6AccuracyShape checks the reproduction target of Figure 6(a):
// at matched budget the fixed-window histogram's range-sum MAE must beat
// the wavelet synopsis on the utilization stream.
func TestFig6AccuracyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	cfg := tinyConfig()
	tables, err := Fig6a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	wins := 0
	for _, row := range rows {
		histMAE, err1 := strconv.ParseFloat(row[5], 64)
		wavMAE, err2 := strconv.ParseFloat(row[6], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable MAE cells in %v", row)
		}
		if histMAE < wavMAE {
			wins++
		}
	}
	if wins < (len(rows)+1)/2 {
		t.Errorf("histogram beat wavelet in only %d of %d configurations", wins, len(rows))
	}
}

// TestAgglomVsOptimalShape checks the section 5.2 claim: SSE ratio close
// to 1 and within the (1+eps) guarantee in every row.
func TestAgglomVsOptimalShape(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	tables, err := AgglomVsOptimal(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		ratio, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		eps, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if ratio > 1+eps+0.01 {
			t.Errorf("SSE ratio %v exceeds guarantee 1+%v (row %v)", ratio, eps, row)
		}
	}
}

// TestSimilarityShape checks that no representation ever produces a false
// dismissal in the similarity tables.
func TestSimilarityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	tables, err := Similarity(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		for _, row := range tb.Rows {
			if row[5] != "0.0" {
				t.Errorf("table %s: method %s reported false dismissals %s", tb.ID, row[0], row[5])
			}
		}
	}
}

func TestCSVRendering(t *testing.T) {
	tb := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "b"},
	}
	tb.AddRow("1", "two, with comma")
	var buf bytes.Buffer
	tb.FprintCSV(&buf)
	out := buf.String()
	for _, want := range []string{"# x: demo", "a,b", `"two, with comma"`} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestRunCSVUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := RunCSV("nope", Config{Fast: true}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunToDir(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	if err := RunToDir("agglom-opt", cfg, dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "agglom-opt.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "SSE ratio") {
		t.Errorf("CSV missing header: %s", data)
	}
	if err := RunToDir("nope", cfg, dir); err == nil {
		t.Error("unknown experiment accepted")
	}
}
