// Command perfbench is streamhist's end-to-end benchmark. It runs one
// workload (see workloads.go) against streamhistd built from the
// checkout, checks every answer, and prints the metrics as the last line
// of its standard output:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//
// --trace 0 drives the daemon process and prints the end-to-end
// metrics; --trace 1 replays the same seeded script in process, timing
// each layer through its public calls, and prints the per-layer metrics.
// run.sh builds both binaries into .bench_build/ first.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	daemon   string // streamhistd binary
	root     string // checkout root
	work     string // scratch directory inside the checkout
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	metrics           map[string]metric
	order             []string
	attempted, failed int
	problems          []string
	env               map[string]any
	notes             []string
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, env: map[string]any{}}
}

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "workload: ingest or dashboard")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the request script")
	flag.IntVar(&cfg.seconds, "seconds", 10, "sizes the fixed-work script to about this many seconds")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end run against the daemon; 1: traced in-process run")
	flag.StringVar(&cfg.daemon, "daemon", ".bench_build/bin/streamhistd", "streamhistd binary")
	flag.StringVar(&cfg.root, "root", ".", "checkout root")
	flag.StringVar(&cfg.work, "work", ".bench_build", "scratch directory")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig) error {
	w, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want ingest or dashboard)", cfg.workload)
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	defs, err := readDefaults(cfg.daemon)
	if err != nil {
		return err
	}
	s, err := BuildScript(w, cfg.seed, cfg.seconds, defs.int("window"), daemonShardCount(defs))
	if err != nil {
		return err
	}
	var res *result
	if cfg.trace == 0 {
		res, err = runE2E(cfg, s, defs)
	} else {
		res, err = runTraced(cfg, s, defs)
	}
	if err != nil {
		return err
	}
	res.env["workload"] = w.Name
	res.env["seed"] = cfg.seed
	res.env["seconds"] = cfg.seconds
	res.env["trace"] = cfg.trace
	res.env["script_sha256"] = s.Digest()
	res.env["nproc"] = runtime.NumCPU()
	res.env["bench_gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.env["go_version"] = runtime.Version()
	res.env["commit"] = commitOf(cfg.root)
	return report(res)
}

// daemonShardCount is the shard count streamhistd starts with: its
// -shards default, or GOMAXPROCS (which it shares with this process)
// when that is 0. The run checks it against the daemon's /readyz.
func daemonShardCount(defs daemonDefaults) int {
	if n := defs.int("shards"); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// report prints the human-readable lines, the environment and, last, the
// result object. Any correctness problem makes the run fail.
func report(res *result) error {
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	for _, name := range res.order {
		m := res.metrics[name]
		fmt.Printf("%-30s %14.6g %s\n", name, m.Value, m.Unit)
	}
	failedFrac := 0.0
	if res.attempted > 0 {
		failedFrac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Printf("%-30s %14.6g frac (%d of %d requests)\n", "failed_frac", failedFrac, res.failed, res.attempted)
	for _, p := range res.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	env, err := json.Marshal(map[string]any{"env": res.env})
	if err != nil {
		return err
	}
	fmt.Println(string(env))
	correct := len(res.problems) == 0 && res.failed == 0 && res.attempted > 0
	out, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !correct {
		return fmt.Errorf("correctness gate failed (%d problems, %d failed requests)", len(res.problems), res.failed)
	}
	return nil
}

// commitOf identifies the code under test: the VCS revision stamped into
// the binary when the checkout is a git work tree, else its source digest.
func commitOf(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "src-sha256:" + sourceDigest(root)
}

// sourceDigest hashes the module's Go sources and go.mod files.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries just do not count
		}
		name := d.Name()
		if d.IsDir() && path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		_, _ = fmt.Fprintf(h, "%s %d\n", f, len(data))
		_, _ = h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
