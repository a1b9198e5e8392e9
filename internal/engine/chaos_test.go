package engine

import (
	"errors"
	"fmt"
	"testing"

	"factorlog/internal/faultinject"
	"factorlog/internal/parser"
)

// TestChaos is the deterministic chaos suite: with every engine injection
// point armed at seed-derived rates, evaluations under every option mix
// must (1) never crash the process — every failure is a typed error, (2)
// never deadlock — the suite finishing is the assertion, bounded by go
// test's timeout, and (3) produce exactly the baseline answers whenever
// they succeed (a fault either fails the evaluation or did not fire).
//
// Seeds are fixed so CI failures reproduce exactly: the per-point firing
// period is a pure function of (seed, point) and the call counters.
func TestChaos(t *testing.T) {
	const n = 20
	baseline, err := tcAnswerSet(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseAtom("t(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	allPoints := []faultinject.Point{
		faultinject.ArenaGrow, faultinject.IndexProbe,
		faultinject.PlanCompile, faultinject.ContextCheck,
	}
	seeds := []uint64{1, 2, 3, 42, 12345}
	configs := []Options{
		{},
		{Strategy: Naive},
		{Trace: true},
		{ReorderJoins: true},
	}

	for _, seed := range seeds {
		for _, maxPeriod := range []uint64{25, 400} {
			t.Run(fmt.Sprintf("seed=%d period<=%d", seed, maxPeriod), func(t *testing.T) {
				// Build every EDB before arming: fact loading here is test
				// setup, not the system under test.
				dbs := make([]*DB, len(configs))
				for i := range configs {
					dbs[i] = chainDB(n)
				}
				disable := faultinject.Enable(faultinject.Config{
					Seed: seed, MaxPeriod: maxPeriod, Points: allPoints,
				})
				defer disable()

				for i, opts := range configs {
					firedBefore := faultinject.TotalFired()
					if _, err := Eval(tcProgram(), dbs[i], opts); err != nil {
						// Never-crash: the only acceptable failure is the
						// typed internal error from a recovery barrier.
						if !errors.Is(err, ErrInternal) {
							t.Fatalf("config %d: untyped failure %v", i, err)
						}
						var pe *PanicError
						if !errors.As(err, &pe) || len(pe.Stack) == 0 {
							t.Fatalf("config %d: internal error without stack: %v", i, err)
						}
						continue
					}
					// Success must mean correct answers.
					got, aerr := AnswerSet(dbs[i], q)
					if aerr != nil {
						t.Fatalf("config %d: answer read-back: %v", i, aerr)
					}
					if !sameSet(got, baseline) {
						t.Fatalf("config %d (fired=%d): %d answers, want %d",
							i, faultinject.TotalFired()-firedBefore, len(got), len(baseline))
					}
				}
			})
		}
	}
}

// TestChaosDisabledDifferential pins the harness-off invariant the chaos
// suite's baseline rests on: with injection disabled, the baseline is the
// closed-form transitive closure of the chain, and every option mix the
// suite arms agrees with it exactly.
func TestChaosDisabledDifferential(t *testing.T) {
	if faultinject.Enabled() {
		t.Fatal("harness armed at test start")
	}
	const n = 20
	baseline, err := tcAnswerSet(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := n * (n - 1) / 2; len(baseline) != want {
		t.Fatalf("baseline has %d answers, want %d", len(baseline), want)
	}
	for i, opts := range []Options{{Strategy: Naive}, {Trace: true}, {ReorderJoins: true}} {
		got, err := tcAnswerSet(n, opts)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if !sameSet(got, baseline) {
			t.Errorf("config %d (%+v): answers differ from the baseline", i, opts)
		}
	}
}
