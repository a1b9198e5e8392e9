package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyParams runs every phase of a workload in about a second.
var tinyParams = params{
	Shape:         shape{Chains: 8, ChainLen: 6, HotNodes: 8, MaxExt: 2, ZipfS: 1.1},
	Starts:        2,
	Warm:          200 * time.Millisecond,
	Window:        500 * time.Millisecond,
	Prefill:       20,
	SnapshotEvery: 8,
	MatEntries:    4,
	ProbeBatches:  20,
	ReplayQueries: 20,
	WaitPhase:     200 * time.Millisecond,
}

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestSmoke runs all three workloads at a tiny size, untraced and traced,
// and checks that every answer was right and every declared metric printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts factorlogd")
	}
	bin := filepath.Join(t.TempDir(), "factorlogd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/factorlogd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build factorlogd: %v\n%s", err, out)
	}
	endToEnd, perLayer := declared(t)
	state := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var stdout, stderr bytes.Buffer
			cfg := config{workload: w, seed: 7, traced: traced, root: "..", bin: bin, state: state}
			if err := execute(cfg, tinyParams, &stdout, &stderr); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, traced, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if !strings.HasPrefix(lines[0], `{"run_header":`) {
				t.Errorf("%s: output starts %q, want the run header", w.Name, lines[0])
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line: %v", w.Name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					w.Name, traced, res.Correct, res.Failed, res.Attempted, stderr.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, name)
				}
			}
		}
	}
	// The traced runs above recorded their counters; a second traced run
	// with the same seed must reproduce them exactly.
	var stdout, stderr bytes.Buffer
	cfg := config{workload: workloads[0], seed: 7, traced: true, root: "..", bin: bin, state: state}
	if err := execute(cfg, tinyParams, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stderr.String(), "counter ") {
		t.Errorf("deterministic counters drifted between runs:\n%s", stderr.String())
	}
}

// TestHistory checks the epoch oracle: a response is judged by the
// extension count its chain had at the epoch it reports.
func TestHistory(t *testing.T) {
	h := newHistory(10, []int{0, 1})
	if err := h.commit(11, batch{chain: 1, ext: 2}); err != nil {
		t.Fatal(err)
	}
	if err := h.commit(12, batch{chain: 0, ext: 1}); err != nil {
		t.Fatal(err)
	}
	if err := h.commit(14, batch{chain: 0, ext: 2}); err == nil {
		t.Error("epoch gap accepted")
	}
	for _, c := range []struct {
		chain int
		epoch int64
		ext   int
		ok    bool
	}{
		{1, 10, 1, true}, {1, 11, 2, true}, {0, 11, 0, true}, {0, 12, 1, true},
		{0, 9, 0, false}, {0, 13, 0, false},
	} {
		ext, ok := h.extAt(c.chain, c.epoch)
		if ext != c.ext || ok != c.ok {
			t.Errorf("extAt(%d, %d) = %d, %v; want %d, %v", c.chain, c.epoch, ext, ok, c.ext, c.ok)
		}
	}
}
