package factorlog_test

import (
	"testing"

	"factorlog/internal/engine"
	"factorlog/internal/experiments"
	"factorlog/internal/parser"
	"factorlog/internal/pipeline"
)

// TestExample44StatsRegression locks the factoring win of the paper's
// Example 4.4 (the symmetric program) in as exact numbers, not just answer
// equality: the same EDB, evaluated under naive, magic, factored, and
// factored+opt, must keep producing the same Iterations and Inferences. Any
// engine or transformation change that silently alters the cost profile
// fails here.
//
// The EDB is a 19-edge chain with identity combination facts c(y,y,y), so
// the symmetric recursion walks the whole chain (19 answers from node 1)
// instead of converging after one round.
func TestExample44StatsRegression(t *testing.T) {
	p := parser.MustParseProgram(`
		p(X, Y) :- l1(X), p(X, U), p(X, V), c(U, V, W), p(W, Y), r1(Y).
		p(X, Y) :- l2(X), p(X, U), p(X, V), c(U, V, W), p(W, Y), r2(Y).
		p(X, Y) :- e(X, Y).
	`)
	tgds := parser.MustParseProgram(`
		r1(Y) :- e(X, Y).
		r2(Y) :- e(X, Y).
	`)
	pl := pipeline.New(p, parser.MustParseAtom("p(1, Y)")).WithConstraints(tgds.Rules)
	load := func() *engine.DB {
		db := engine.NewDB()
		for i := 1; i < 20; i++ {
			x, y := db.Store.Int(i), db.Store.Int(i+1)
			db.MustInsert("e", x, y)
			db.MustInsert("r1", y)
			db.MustInsert("r2", y)
			db.MustInsert("c", y, y, y)
		}
		db.MustInsert("l1", db.Store.Int(1))
		return db
	}

	want := []struct {
		strategy   pipeline.Strategy
		iterations int
		inferences int
		arity      int
	}{
		// Naive re-derives aggressively: the cost baseline.
		{pipeline.Naive, 20, 569, 2},
		// Magic prunes to the relevant facts.
		{pipeline.Magic, 57, 99, 2},
		// Raw factoring (before the Section 5 clean-up) halves the arity but
		// its redundant bt x ft joins re-inflate the inference count — the
		// reason the paper always reports post-clean-up programs.
		{pipeline.Factored, 39, 785, 1},
		// The Section 5 clean-up keeps the unary arity and wins outright.
		{pipeline.FactoredOptimized, 39, 80, 1},
	}

	results := map[pipeline.Strategy]*pipeline.RunResult{}
	for _, w := range want {
		r, err := pl.Run(w.strategy, load(), engine.Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.strategy, err)
		}
		results[w.strategy] = r
		if len(r.Answers) != 19 {
			t.Errorf("%s: %d answers, want 19", w.strategy, len(r.Answers))
		}
		if r.Iterations != w.iterations {
			t.Errorf("%s: Iterations = %d, want %d", w.strategy, r.Iterations, w.iterations)
		}
		if r.Inferences != w.inferences {
			t.Errorf("%s: Inferences = %d, want %d", w.strategy, r.Inferences, w.inferences)
		}
		if r.MaxIDBArity != w.arity {
			t.Errorf("%s: MaxIDBArity = %d, want %d", w.strategy, r.MaxIDBArity, w.arity)
		}
	}

	// The headline inequality, independent of the exact constants.
	opt := results[pipeline.FactoredOptimized]
	if !(opt.Inferences < results[pipeline.Magic].Inferences &&
		results[pipeline.Magic].Inferences < results[pipeline.Naive].Inferences) {
		t.Errorf("inference ordering broken: opt=%d magic=%d naive=%d",
			opt.Inferences, results[pipeline.Magic].Inferences, results[pipeline.Naive].Inferences)
	}
}

// TestE1StatsRegression pins the paper's deterministic cost measures on
// factorbench's E1 workload (the three-rule transitive closure over a
// 256-edge chain, query t(85,Y)): inferences, derived facts, and max IDB
// arity per strategy. Evaluation has a single sequential evaluator, so the
// counters are exact on every run and any drift is a real change to an
// evaluator or a rewrite. The same numbers appear in `factorbench -json`.
func TestE1StatsRegression(t *testing.T) {
	pl, load := experiments.E1Pipeline(256)
	want := []struct {
		strategy   pipeline.Strategy
		inferences int
		facts      int
		arity      int
	}{
		{pipeline.SemiNaive, 2_828_545, 32_640, 2},
		{pipeline.Magic, 877_973, 15_049, 2},
		{pipeline.SupplementaryMagic, 893_206, 30_270, 2},
		{pipeline.Factored, 10_088_830, 685, 1},
		{pipeline.FactoredOptimized, 516, 514, 1},
	}
	inferences := map[pipeline.Strategy]int{}
	for _, w := range want {
		r, err := pl.Run(w.strategy, load(), engine.Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.strategy, err)
		}
		inferences[w.strategy] = r.Inferences
		if len(r.Answers) != 171 {
			t.Errorf("%s: %d answers, want 171", w.strategy, len(r.Answers))
		}
		if r.Inferences != w.inferences {
			t.Errorf("%s: Inferences = %d, want %d", w.strategy, r.Inferences, w.inferences)
		}
		if r.Facts != w.facts {
			t.Errorf("%s: Facts = %d, want %d", w.strategy, r.Facts, w.facts)
		}
		if r.MaxIDBArity != w.arity {
			t.Errorf("%s: MaxIDBArity = %d, want %d", w.strategy, r.MaxIDBArity, w.arity)
		}
	}

	// The headline: factoring plus the Section 5 clean-up does 1/1701 of
	// magic's work on this query (877,973 / 516 inferences).
	const wantRatio = 877_973.0 / 516
	ratio := float64(inferences[pipeline.Magic]) / float64(inferences[pipeline.FactoredOptimized])
	if ratio != wantRatio {
		t.Errorf("magic / factored+opt inferences = %.1f, want %.1f", ratio, wantRatio)
	}
}
