package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"factorlog/internal/faultinject"
	"factorlog/internal/parser"
)

// tcAnswerSet evaluates tcProgram over chainDB(n) and returns t's answer
// set rendered as strings, or the evaluation error.
func tcAnswerSet(n int, opts Options) (map[string]bool, error) {
	db := chainDB(n)
	if _, err := Eval(tcProgram(), db, opts); err != nil {
		return nil, err
	}
	q, err := parser.ParseAtom("t(X, Y)")
	if err != nil {
		return nil, err
	}
	return AnswerSet(db, q)
}

// sameSet reports whether two answer sets agree.
func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestPanicIsolationSequential arms every sequential-path injection point
// at the highest rate and checks that evaluation fails with a typed
// ErrInternal carrying the stack — never a process-killing panic.
func TestPanicIsolationSequential(t *testing.T) {
	for _, point := range []faultinject.Point{
		faultinject.ArenaGrow, faultinject.IndexProbe, faultinject.ContextCheck,
	} {
		t.Run(point.String(), func(t *testing.T) {
			// Build the EDB before arming: fact loading is not behind a
			// recover barrier (it is the caller's setup code, not an
			// evaluation).
			db := chainDB(10)
			disable := faultinject.Enable(faultinject.Config{
				Seed: 1, MaxPeriod: 1, Points: []faultinject.Point{point},
			})
			defer disable()
			_, err := Eval(tcProgram(), db, Options{})
			if err == nil {
				t.Fatalf("%s armed every call but evaluation succeeded", point)
			}
			if !errors.Is(err, ErrInternal) {
				t.Fatalf("err = %v, want ErrInternal", err)
			}
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err %v does not unwrap to *PanicError", err)
			}
			if len(pe.Stack) == 0 {
				t.Error("PanicError carries no stack")
			}
			if f, ok := pe.Value.(*faultinject.Fault); !ok || f.Point != point {
				t.Errorf("panic value = %#v, want *Fault at %s", pe.Value, point)
			}
		})
	}
}

// TestCompileGuardConvertsPanics drives the compile barrier directly: the
// recover half must turn a panic into a typed error at the named site.
func TestCompileGuardConvertsPanics(t *testing.T) {
	rules, err := compileRulesGuarded(tcProgram(), NewStore(), false)
	if err != nil || len(rules) != 2 {
		t.Fatalf("clean compile: rules=%d err=%v", len(rules), err)
	}
	perr := func() (err error) {
		defer recoverTo("compile", &err)
		panic("compiler invariant broken")
	}()
	var pe *PanicError
	if !errors.As(perr, &pe) || pe.Where != "compile" {
		t.Fatalf("barrier produced %v, want *PanicError at compile", perr)
	}
}

// TestMemoryBudget checks ErrMemoryBudget fires under both strategies when
// the storage footprint exceeds MaxBytes, and that a generous budget does
// not interfere.
func TestMemoryBudget(t *testing.T) {
	for _, strategy := range []Strategy{SemiNaive, Naive} {
		t.Run(strategy.String(), func(t *testing.T) {
			// chainDB(64) closes to 2016 t-facts: comfortably over 1 KiB of
			// arena, so a tiny budget must trip.
			db := chainDB(64)
			_, err := Eval(tcProgram(), db, Options{Strategy: strategy, MaxBytes: 1024})
			if !errors.Is(err, ErrMemoryBudget) {
				t.Fatalf("tiny budget: err = %v, want ErrMemoryBudget", err)
			}
			if !strings.Contains(err.Error(), "MaxBytes") {
				t.Errorf("budget error %q does not name the option", err)
			}
			// The typed memory error is distinct from the fact/iteration
			// budget family.
			if errors.Is(err, ErrBudgetExceeded) {
				t.Errorf("ErrMemoryBudget must not alias ErrBudgetExceeded")
			}

			db = chainDB(64)
			if _, err := Eval(tcProgram(), db, Options{Strategy: strategy, MaxBytes: 64 << 20}); err != nil {
				t.Fatalf("generous budget: %v", err)
			}
		})
	}
}

// TestMemoryBudgetValidation rejects negative MaxBytes up front.
func TestMemoryBudgetValidation(t *testing.T) {
	_, err := Eval(tcProgram(), chainDB(4), Options{MaxBytes: -1})
	if !errors.Is(err, ErrBadOptions) {
		t.Fatalf("MaxBytes=-1: err = %v, want ErrBadOptions", err)
	}
}

// TestInjectionDisabledDifferential pins the no-fault invariant the chaos
// suite relies on: with the harness disarmed, evaluations over the
// instrumented paths (budget checks, tracing, provenance) produce answers
// identical to a plain run.
func TestInjectionDisabledDifferential(t *testing.T) {
	if faultinject.Enabled() {
		t.Fatal("harness armed at test start")
	}
	want, err := tcAnswerSet(16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, opts := range []Options{
		{MaxBytes: 64 << 20, MaxFacts: 1 << 20, MaxIterations: 1 << 10},
		{Trace: true},
		{Provenance: true},
	} {
		got, err := tcAnswerSet(16, opts)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !sameSet(got, want) {
			t.Errorf("case %d (%+v): answers differ from the plain run", i, opts)
		}
	}
}

// TestPanicErrorRendering pins the error text callers log.
func TestPanicErrorRendering(t *testing.T) {
	pe := newPanicError("eval", "boom")
	if !errors.Is(fmt.Errorf("wrapped: %w", pe), ErrInternal) {
		t.Error("PanicError does not wrap ErrInternal")
	}
	if want := "engine: internal error: panic in eval: boom"; pe.Error() != want {
		t.Errorf("Error() = %q, want %q", pe.Error(), want)
	}
}
