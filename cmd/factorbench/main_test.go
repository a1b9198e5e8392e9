package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	var out strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, err := r.Read(buf)
		out.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return out.String(), runErr
}

func TestList(t *testing.T) {
	out, err := capture(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E1", "E2", "E7", "E12"} {
		if !strings.Contains(out, id+" ") && !strings.Contains(out, id+"  ") {
			t.Errorf("missing %s in list:\n%s", id, out)
		}
	}
}

func TestRunSingle(t *testing.T) {
	out, err := capture(t, "-run", "E4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "symmetric") {
		t.Errorf("E4 output:\n%s", out)
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := capture(t, "-run", "E99"); err == nil {
		t.Error("unknown experiment accepted")
	}
	// Evaluation is sequential; the worker sweep flag is gone.
	if _, err := capture(t, "-json", "-workers", "1,2"); err == nil {
		t.Error("-workers accepted")
	}
}

func TestJSONMetrics(t *testing.T) {
	out, err := capture(t, "-json", "-n", "16")
	if err != nil {
		t.Fatal(err)
	}
	var doc metricsDoc
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if doc.Schema != "factorlog/metrics/v10" {
		t.Errorf("schema = %q", doc.Schema)
	}
	if doc.MutateCompare != nil {
		t.Error("mutate_compare emitted without -mutate")
	}
	// The v7 stream_compare block: both executors measured, ratios derived,
	// per-operator row counters captured from the traced streamed run.
	sc := doc.StreamCompare
	if sc == nil {
		t.Fatal("stream_compare missing")
	}
	if sc.MaterializeWallNS <= 0 || sc.StreamWallNS <= 0 || sc.Speedup <= 0 || sc.AllocRatio <= 0 {
		t.Errorf("stream_compare not measured: %+v", sc)
	}
	if sc.Stream.Streamed != sc.Stages || sc.Stream.RowsEmitted == 0 {
		t.Errorf("stream_compare counters: %+v", sc.Stream)
	}
	if len(sc.Stream.Ops) == 0 {
		t.Error("stream_compare has no per-operator row counters")
	}
	// The v6 stage summary aggregates pipeline spans across runs.
	stages := map[string]stageSummary{}
	for _, st := range doc.StageSummary {
		stages[st.Stage] = st
	}
	for _, name := range []string{"adorn", "magic", "factor", "optimize", "eval"} {
		st, ok := stages[name]
		if !ok {
			t.Errorf("stage_summary missing %q: %v", name, doc.StageSummary)
			continue
		}
		if st.Runs == 0 || st.TotalWallNS < 0 || st.MaxWallNS > st.TotalWallNS {
			t.Errorf("stage_summary[%s] inconsistent: %+v", name, st)
		}
	}
	if stages["eval"].TotalAllocs == 0 {
		t.Error("eval stage summary has no allocation sample")
	}
	byStrategy := map[string]metricsRun{}
	for _, r := range doc.Runs {
		if _, dup := byStrategy[r.Strategy]; dup {
			t.Errorf("%s: more than one row", r.Strategy)
		}
		byStrategy[r.Strategy] = r
	}
	for _, s := range []string{"semi-naive", "magic", "factored+opt"} {
		r, ok := byStrategy[s]
		if !ok {
			t.Fatalf("missing strategy %s in %v", s, doc.Runs)
		}
		if r.Error != "" {
			t.Errorf("%s failed: %s", s, r.Error)
		}
		if len(r.Rules) == 0 || len(r.Rounds) == 0 {
			t.Errorf("%s missing rule/round stats", s)
		}
		if len(r.Spans) == 0 || r.Spans[len(r.Spans)-1].Name != "eval" {
			t.Errorf("%s spans = %v, want eval last", s, r.Spans)
		}
		if r.Spans[len(r.Spans)-1].Allocs == 0 {
			t.Errorf("%s eval span has no allocation sample", s)
		}
		if r.Storage.Relations == 0 || r.Storage.ArenaBytes == 0 {
			t.Errorf("%s storage stats empty: %+v", s, r.Storage)
		}
	}
	// The paper's headline, machine-checkable: factoring cuts inferences.
	if f, m := byStrategy["factored+opt"], byStrategy["magic"]; f.Inferences >= m.Inferences {
		t.Errorf("factored+opt inferences %d >= magic %d", f.Inferences, m.Inferences)
	}
	// Unavailable strategies are reported, not dropped.
	if byStrategy["counting"].Error == "" {
		t.Error("counting should report its unavailability")
	}
}

func TestMutateCompareJSON(t *testing.T) {
	out, err := capture(t, "-json", "-mutate", "-n", "24")
	if err != nil {
		t.Fatal(err)
	}
	var doc metricsDoc
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json -mutate output is not valid JSON: %v", err)
	}
	mc := doc.MutateCompare
	if mc == nil {
		t.Fatal("mutate_compare missing with -mutate")
	}
	for name, ph := range map[string]mutatePhase{"assert": mc.Assert, "retract": mc.Retract} {
		if !ph.Verified {
			t.Errorf("%s phase not verified: %+v", name, ph)
		}
		if ph.IncrementalWallNS <= 0 || ph.ScratchWallNS <= 0 || ph.Speedup <= 0 {
			t.Errorf("%s phase not measured: %+v", name, ph)
		}
		if ph.FinalEpoch != int64(ph.Batches) {
			t.Errorf("%s phase epoch = %d, want %d", name, ph.FinalEpoch, ph.Batches)
		}
	}
	if mc.Assert.NewFacts == 0 {
		t.Errorf("assert phase derived nothing: %+v", mc.Assert)
	}
	if mc.Retract.DeletedFacts == 0 {
		t.Errorf("retract phase deleted nothing: %+v", mc.Retract)
	}
}

func TestMutateCompareText(t *testing.T) {
	out, err := capture(t, "-mutate", "-n", "24")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "tail-extension asserts") ||
		!strings.Contains(out, "source-tuple retracts") ||
		!strings.Contains(out, "verified=true") {
		t.Errorf("-mutate text output:\n%s", out)
	}
}
