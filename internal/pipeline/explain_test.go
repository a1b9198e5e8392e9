package pipeline

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"factorlog/internal/engine"
	"factorlog/internal/parser"
	"factorlog/internal/trace"
)

func TestExplainFactoredOptimized(t *testing.T) {
	pl := tcPipeline()
	info, err := pl.Explain(FactoredOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if info.Strategy != "factored+opt" || info.Adornment != "bf" {
		t.Errorf("strategy=%s adornment=%s", info.Strategy, info.Adornment)
	}
	if len(info.Rules) == 0 {
		t.Fatal("no transformed rules")
	}
	// The reduction list must name the magic pass and the factoring theorem
	// that applied.
	joined := strings.Join(info.Reductions, "\n")
	if !strings.Contains(joined, "magic sets") {
		t.Errorf("reductions missing magic sets: %v", info.Reductions)
	}
	if !strings.Contains(joined, "factoring (class") {
		t.Errorf("reductions missing factoring: %v", info.Reductions)
	}
	if len(info.Strata) == 0 {
		t.Error("no stratum schedule")
	}
	if len(info.Stages) == 0 {
		t.Error("no compile-stage spans")
	}
	// The document must round-trip as JSON (it is served by EXPLAIN).
	raw, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	var back ExplainInfo
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	// The text rendering names every section.
	text := info.Text()
	for _, want := range []string{"plan factored+opt", "reductions applied", "rules:", "stratum schedule:"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
}

func TestExplainDirectStrategy(t *testing.T) {
	pl := tcPipeline()
	info, err := pl.Explain(SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Reductions) != 0 {
		t.Errorf("semi-naive applied reductions: %v", info.Reductions)
	}
	if len(info.Rules) != 4 {
		t.Errorf("rules = %d, want the 4 source rules", len(info.Rules))
	}
	if !strings.Contains(info.Text(), "none (source program evaluated directly)") {
		t.Error("Text() does not state that no reductions applied")
	}
}

func TestExplainUnavailableStrategy(t *testing.T) {
	// Non-factorable program (same-generation): Explain must fail like Run.
	p := parser.MustParseProgram(`
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
	`)
	pl := New(p, parser.MustParseAtom("sg(n, Y)"))
	if _, err := pl.Explain(Factored); err == nil {
		t.Fatal("Explain(Factored) succeeded on a non-factorable program")
	}
}

// TestRunAttachesSpans checks the tentpole wiring: a traced Run yields a
// span tree with the compile stages (cached), an eval span, and the
// engine's round spans below it.
func TestRunAttachesSpans(t *testing.T) {
	pl := tcPipeline()
	tc := trace.New(trace.NewID())
	_, err := pl.Run(FactoredOptimized, chain(8)(), engine.Options{Span: tc.Root()})
	if err != nil {
		t.Fatal(err)
	}
	tc.Finish()

	names := map[string]int{}
	var cachedStages int
	var walk func(s *trace.Span, depth int)
	walk = func(s *trace.Span, depth int) {
		names[s.Name]++
		if s.Cached {
			cachedStages++
		}
		for _, c := range s.Children() {
			walk(c, depth+1)
		}
	}
	walk(tc.Root(), 0)

	for _, stage := range []string{"adorn", "magic", "factor", "optimize", "eval"} {
		if names[stage] != 1 {
			t.Errorf("span %q appears %d times, want 1\nprofile:\n%s", stage, names[stage], tc.Profile())
		}
	}
	if names["round"] == 0 {
		t.Errorf("no round spans under eval\nprofile:\n%s", tc.Profile())
	}
	if cachedStages != 4 {
		t.Errorf("cached stage spans = %d, want 4 (compile stages are pre-measured)", cachedStages)
	}
}

// TestRunStreamSpansHaveStrata checks per-stratum timings flow into the
// trace under the streaming executor, which evaluates stratum by stratum.
func TestRunStreamSpansHaveStrata(t *testing.T) {
	pl := tcPipeline()
	tc := trace.New(trace.NewID())
	_, err := pl.Run(Magic, chain(8)(), engine.Options{Span: tc.Root(), Streaming: engine.StreamAuto})
	if err != nil {
		t.Fatal(err)
	}
	tc.Finish()
	if !strings.Contains(tc.Profile(), "stratum") {
		t.Errorf("streamed run trace has no stratum spans:\n%s", tc.Profile())
	}
}

func TestPlanRecordsCompileWall(t *testing.T) {
	pl := tcPipeline()
	cache := NewPlanCache()
	hash := HashProgram(pl.Program, nil)
	plan, hit, err := cache.Lookup(context.Background(), pl.Program, hash, nil, pl.Query, Factored)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first lookup reported a hit")
	}
	if plan.CompileWall <= 0 {
		t.Errorf("CompileWall = %v, want > 0", plan.CompileWall)
	}
	again, hit, err := cache.Lookup(context.Background(), pl.Program, hash, nil, pl.Query, Factored)
	if err != nil || !hit {
		t.Fatalf("second lookup: hit=%v err=%v", hit, err)
	}
	if again.CompileWall != plan.CompileWall {
		t.Error("cached plan changed CompileWall")
	}
}
