package engine

import (
	"testing"

	"factorlog/internal/parser"
	"factorlog/internal/trace"
)

// traceTC evaluates a transitive closure over a small cyclic graph (cycles
// force re-derivations, so every counter is exercised) and returns the
// stats.
func traceTC(t *testing.T, opts Options) Stats {
	t.Helper()
	p := parser.MustParseProgram(`
		t(X, Y) :- e(X, Y).
		t(X, Y) :- e(X, W), t(W, Y).
	`)
	db := NewDB()
	for _, e := range [][2]int{{1, 2}, {2, 3}, {3, 1}} {
		db.MustInsert("e", db.Store.Int(e[0]), db.Store.Int(e[1]))
	}
	res, err := Eval(p, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats
}

func TestTraceRecordsRuleAndRoundStats(t *testing.T) {
	stats := traceTC(t, Options{Trace: true})

	if len(stats.Rules) != 2 {
		t.Fatalf("Rules = %d, want one entry per program rule", len(stats.Rules))
	}
	var derived, dups, firings int
	for i, r := range stats.Rules {
		if r.Index != i {
			t.Errorf("rule %d has Index %d", i, r.Index)
		}
		if r.Rule == "" {
			t.Errorf("rule %d has empty source", i)
		}
		if r.JoinProbes < r.TuplesMatched {
			t.Errorf("rule %d: probes %d < matched %d", i, r.JoinProbes, r.TuplesMatched)
		}
		derived += r.TuplesDerived
		dups += r.Duplicates
		firings += r.Firings
	}
	if derived != stats.Derived {
		t.Errorf("per-rule derived %d != Stats.Derived %d", derived, stats.Derived)
	}
	if derived+dups != stats.Inferences {
		t.Errorf("derived %d + duplicates %d != Stats.Inferences %d", derived, dups, stats.Inferences)
	}
	if dups == 0 {
		t.Error("cyclic graph must re-derive facts, Duplicates = 0")
	}

	if len(stats.Rounds) != stats.Iterations {
		t.Fatalf("Rounds = %d, Iterations = %d", len(stats.Rounds), stats.Iterations)
	}
	var newFacts, fired int
	for i, r := range stats.Rounds {
		if r.Round != i {
			t.Errorf("round %d has Round %d", i, r.Round)
		}
		newFacts += r.NewFacts
		fired += r.RulesFired
	}
	if newFacts != stats.Derived {
		t.Errorf("per-round new facts %d != Stats.Derived %d", newFacts, stats.Derived)
	}
	if fired != firings {
		t.Errorf("per-round fired %d != per-rule firings %d", fired, firings)
	}
	if last := stats.Rounds[len(stats.Rounds)-1]; last.NewFacts != 0 {
		t.Errorf("final round derived %d new facts, want 0 (fixpoint)", last.NewFacts)
	}
}

func TestTraceNaiveStrategy(t *testing.T) {
	semi := traceTC(t, Options{Trace: true})
	naive := traceTC(t, Options{Trace: true, Strategy: Naive})
	// Naive re-runs every rule every round, so it fires at least as often
	// and probes at least as much as semi-naive.
	var nProbes, sProbes int
	for i := range naive.Rules {
		nProbes += naive.Rules[i].JoinProbes
		sProbes += semi.Rules[i].JoinProbes
	}
	if nProbes < sProbes {
		t.Errorf("naive probes %d < semi-naive probes %d", nProbes, sProbes)
	}
}

func TestTraceOffRecordsNothing(t *testing.T) {
	stats := traceTC(t, Options{})
	if stats.Rules != nil || stats.Rounds != nil {
		t.Errorf("Trace off: Rules = %v, Rounds = %v, want nil", stats.Rules, stats.Rounds)
	}
}

// TestTraceOffZeroAllocs pins the Options.Trace=false contract: the
// recording helpers on the evaluation hot path allocate no per-rule or
// per-round records when tracing is off.
func TestTraceOffZeroAllocs(t *testing.T) {
	ev := &evaluator{newCounts: map[string]int{}}
	r := &compiledRule{}
	allocs := testing.AllocsPerRun(1000, func() {
		ev.traceRoundStart()
		ev.traceRule(r)
		ev.traceRoundEnd()
	})
	if allocs != 0 {
		t.Errorf("trace helpers allocated %v times per run with tracing off", allocs)
	}
}

// spanTC is traceTC for span tracing: evaluate the cyclic TC under a
// trace.Context and return the finished trace.
func spanTC(t *testing.T, opts Options) *trace.Context {
	t.Helper()
	tc := trace.New(trace.NewID())
	opts.Span = tc.Root().Child("eval")
	stats := traceTC(t, opts)
	opts.Span.End()
	tc.Finish()
	if stats.Rules == nil {
		t.Fatal("Options.Span must imply Options.Trace")
	}
	return tc
}

// spanNames flattens a finished trace into name counts.
func spanNames(tc *trace.Context) map[string]int {
	counts := map[string]int{}
	var walk func(s *trace.Span)
	walk = func(s *trace.Span) {
		counts[s.Name]++
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(tc.Root())
	return counts
}

func TestSpanTreeSequential(t *testing.T) {
	tc := spanTC(t, Options{})
	counts := spanNames(tc)
	if counts["round"] < 2 {
		t.Errorf("sequential trace has %d round spans, want >= 2", counts["round"])
	}
	if counts["rule"] < 2 {
		t.Errorf("sequential trace has %d rule spans, want >= 2", counts["rule"])
	}
	// Every rule span carries a rule index and sits under a round span.
	for _, ev := range tc.Root().Children() {
		for _, round := range ev.Children() {
			if round.Name != "round" || round.Round < 0 {
				t.Errorf("unexpected child of eval: %s round=%d", round.Name, round.Round)
			}
			for _, rule := range round.Children() {
				if rule.Name != "rule" || rule.Rule < 0 {
					t.Errorf("unexpected child of round: %s rule=%d", rule.Name, rule.Rule)
				}
			}
		}
	}
}

// TestSpanOffZeroAllocs extends the Trace=false contract to Options.Span:
// with no span, the span hooks on the round path must not allocate.
func TestSpanOffZeroAllocs(t *testing.T) {
	ev := &evaluator{newCounts: map[string]int{}}
	allocs := testing.AllocsPerRun(1000, func() {
		ev.traceRoundStart()
		ev.traceRoundEnd()
	})
	if allocs != 0 {
		t.Errorf("span hooks allocated %v times per run with Span nil", allocs)
	}
}

// BenchmarkEvalNoTracing measures a full small evaluation with tracing
// disabled — the baseline the ~ns claim for disabled instrumentation is
// made against (compare BenchmarkEvalSpanTracing).
func BenchmarkEvalNoTracing(b *testing.B) {
	benchEval(b, false)
}

func BenchmarkEvalSpanTracing(b *testing.B) {
	benchEval(b, true)
}

func benchEval(b *testing.B, spans bool) {
	p := parser.MustParseProgram(`
		t(X, Y) :- e(X, Y).
		t(X, Y) :- e(X, W), t(W, Y).
	`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := NewDB()
		for j := 0; j < 30; j++ {
			db.MustInsert("e", db.Store.Int(j), db.Store.Int(j+1))
		}
		opts := Options{}
		var tc *trace.Context
		if spans {
			tc = trace.New("bench")
			opts.Span = tc.Root()
		}
		if _, err := Eval(p, db, opts); err != nil {
			b.Fatal(err)
		}
		tc.Finish()
	}
}
