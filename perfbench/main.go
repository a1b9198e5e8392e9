// Command perfbench measures factorlogd as its users see it: it starts the
// server on a generated forest EDB, drives it over loopback HTTP, checks
// every answer, and prints end-to-end figures; with -trace 1 it also
// replays the same request stream in-process and prints per-layer figures.
//
// perfbench/run.sh builds factorlogd and this command from the checkout
// and runs it; see perfbench/README.md for the workloads and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation.
type config struct {
	workload *workload
	seed     int64
	traced   bool
	root     string // the factorlog checkout
	bin      string // the factorlogd binary built from it
	state    string // per-run files, span files and the counter record
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "lookup-hot, lookup-cold or mat-ingest")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 25, "timed window in seconds")
	traced := fl.Int("trace", 0, "1 = report per-layer figures from the traced replay")
	root := fl.String("root", ".", "factorlog checkout")
	bin := fl.String("bin", "", "factorlogd binary")
	state := fl.String("state", "", "directory for per-run files, spans and the counter record")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *bin == "" || *state == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: need -workload, -bin, -state, -seconds >= 1 and -trace 0|1:", err)
		return 2
	}
	cfg := config{workload: w, seed: *seed, traced: *traced == 1, root: *root, bin: *bin, state: *state}
	if err := execute(cfg, defaultParams(*seconds), stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func execute(cfg config, p params, stdout, stderr io.Writer) error {
	if err := os.MkdirAll(filepath.Join(cfg.state, "runs"), 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(filepath.Join(cfg.state, "runs"), cfg.workload.Name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	digest, err := sourceDigest(cfg.root)
	if err != nil {
		return err
	}
	w := cfg.workload
	program := filepath.Join(runDir, "program.dl")
	header := map[string]any{
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_sha":       gitSHA(cfg.root),
		"source_sha256": digest,
		"seed":          cfg.seed,
		"trace":         cfg.traced,
		"workload":      w,
		"params":        p,
		"server_flags":  w.serverArgs(p, program, filepath.Join(runDir, "wal")),
	}
	hb, err := json.Marshal(map[string]any{"run_header": header})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(hb))

	load, err := runLoad(cfg.bin, cfg.root, runDir, w, p, cfg.seed)
	if err != nil {
		return err
	}
	problems := load.problems
	report := load.endToEnd
	if cfg.traced {
		var totalP50 float64
		for _, m := range load.layers {
			if m.Name == "factorlogd.server_total_ms_p50" {
				totalP50 = m.Value
			}
		}
		spanDir := filepath.Join(cfg.state, "spans")
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return err
		}
		spanPath := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.Name, cfg.seed))
		rep, err := runReplay(cfg.root, runDir, spanPath, w, p, cfg.seed, totalP50)
		if err != nil {
			return err
		}
		problems = append(problems, rep.problems...)
		drift, err := checkCounters(filepath.Join(cfg.state, "counters"),
			fmt.Sprintf("%s-seed%d-%s.json", w.Name, cfg.seed, digest[:16]), rep.counts)
		if err != nil {
			return err
		}
		problems = append(problems, drift...)
		report = append(load.layers, rep.layers...)
	}

	res := result{Correct: len(problems) == 0, Attempted: load.attempted, Failed: load.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range report {
		fmt.Fprintf(stdout, "%-40s %14.6f %s\n", m.Name, m.Value, m.Unit)
		res.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	for _, pr := range problems {
		fmt.Fprintln(stderr, "perfbench: NOT CORRECT:", pr)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	return nil
}

// checkCounters compares the deterministic counters with those an earlier
// run of the same source, workload and seed recorded, and records them when
// none exist. Any difference is reported: these counts must repeat exactly.
func checkCounters(dir, name string, counts map[string]float64) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, name)
	prev, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		data, err := json.Marshal(counts)
		if err != nil {
			return nil, err
		}
		return nil, os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return nil, err
	}
	var old map[string]float64
	if err := json.Unmarshal(prev, &old); err != nil {
		return nil, fmt.Errorf("counter record %s: %w", path, err)
	}
	if reflect.DeepEqual(old, counts) {
		return nil, nil
	}
	var diffs []string
	for k, v := range counts {
		if old[k] != v {
			diffs = append(diffs, fmt.Sprintf("counter %s = %v, an earlier run with this seed had %v", k, v, old[k]))
		}
	}
	sort.Strings(diffs)
	return diffs, nil
}

// sourceDigest fingerprints the checkout's Go sources and Datalog inputs,
// standing in for the commit when the checkout is not a git repository.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".dl", ".sh":
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// gitSHA is the checkout's commit, or "unknown" outside a git work tree.
// The search stops at the checkout so an enclosing repository is not
// mistaken for it.
func gitSHA(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "-C", abs, "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
