package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"factorlog/internal/ast"
	"factorlog/internal/parser"
)

// divergentProgram grows n(z), n(f(z)), n(f(f(z))), ... forever: without a
// budget or context the fixpoint never terminates, so it is the workload of
// choice for cancellation tests. The whole evaluation happens inside round
// 0 (the cascade re-reads relation lengths), exercising the in-round context
// checks.
func divergentProgram(t *testing.T) (*ast.Program, *DB) {
	t.Helper()
	u, err := parser.Parse("n(z). n(f(X)) :- n(X). ?- n(X).")
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	if err := LoadFacts(db, u.Facts); err != nil {
		t.Fatal(err)
	}
	return u.Program(), db
}

// chainTC is a finite transitive-closure workload used to check that a
// context that stays live does not perturb results.
func chainTC(t *testing.T, n int) (*ast.Program, *DB, ast.Atom) {
	t.Helper()
	u, err := parser.Parse("t(X,Y) :- e(X,Y). t(X,Y) :- e(X,W), t(W,Y). ?- t(1,Y).")
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	for i := 1; i < n; i++ {
		db.MustInsert("e", db.Store.Int(i), db.Store.Int(i+1))
	}
	return u.Program(), db, u.Queries[0]
}

func TestEvalCanceledMidEvaluation(t *testing.T) {
	p, db := divergentProgram(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Eval(p, db, Options{Context: ctx})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if errors.Is(err, ErrBudgetExceeded) || errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("cancellation mislabeled: %v", err)
	}
	// "Promptly": the divergent fixpoint would run forever; a canceled
	// one must return well within the test timeout. The bound is loose
	// to stay robust on slow CI machines.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestEvalDeadlineExceeded(t *testing.T) {
	p, db := divergentProgram(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	_, err := Eval(p, db, Options{Context: ctx})
	cancel()
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("deadline mislabeled as cancellation: %v", err)
	}
}

func TestEvalPreCanceledContext(t *testing.T) {
	p, db := divergentProgram(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Eval(p, db, Options{Context: ctx}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestEvalLiveContextMatchesNoContext(t *testing.T) {
	p, db, query := chainTC(t, 40)
	res, err := Eval(p, db, Options{Context: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	answers, err := AnswerSet(db, query)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 39 {
		t.Fatalf("got %d answers, want 39", len(answers))
	}
	p2, db2, _ := chainTC(t, 40)
	res2, err := Eval(p2, db2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One evaluator means exact counters: a live context changes none.
	a, b := res.Stats, res2.Stats
	if a.Derived != b.Derived || a.Inferences != b.Inferences || a.Iterations != b.Iterations {
		t.Fatalf("stats %+v with context, %+v without", a, b)
	}
}

func TestEvalBudgetStillTyped(t *testing.T) {
	// Budgets and contexts coexist: a fact budget fires first when the
	// context stays live.
	p, db := divergentProgram(t)
	_, err := Eval(p, db, Options{Context: context.Background(), MaxFacts: 100})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("budget stop mislabeled: %v", err)
	}
}
