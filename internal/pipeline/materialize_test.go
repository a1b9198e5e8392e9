package pipeline

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
	"factorlog/internal/faultinject"
	"factorlog/internal/parser"
)

// rlTCSrc is a right-linear transitive closure: factorable and
// counting-eligible, so every materializable strategy applies.
const rlTCSrc = `
t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, W), t(W, Y).
`

func matFacts(t *testing.T, atoms ...string) []ast.Atom {
	t.Helper()
	out := make([]ast.Atom, len(atoms))
	for i, s := range atoms {
		out[i] = mustAtom(t, s)
	}
	return out
}

func edgeAtoms(t *testing.T, edges ...[2]int) []ast.Atom {
	t.Helper()
	out := make([]ast.Atom, len(edges))
	for i, e := range edges {
		out[i] = mustAtom(t, fmt.Sprintf("e(%d, %d)", e[0], e[1]))
	}
	return out
}

// scratchAnswers evaluates strategy s from scratch over the materializer's
// current base — the oracle every materialized serve must match.
func scratchAnswers(t *testing.T, p *ast.Program, query ast.Atom, s Strategy,
	base []ast.Atom) map[string]bool {
	t.Helper()
	db := engine.NewDB()
	if err := engine.LoadFacts(db, base); err != nil {
		t.Fatalf("load base: %v", err)
	}
	pl := New(p, query)
	r, err := pl.Run(s, db, engine.Options{})
	if err != nil {
		t.Fatalf("scratch %v: %v", s, err)
	}
	return r.Answers
}

func diffAnswers(got, want map[string]bool) string {
	for k := range want {
		if !got[k] {
			return fmt.Sprintf("missing %s", k)
		}
	}
	for k := range got {
		if !want[k] {
			return fmt.Sprintf("extra %s", k)
		}
	}
	return ""
}

func TestMaterializerDifferential(t *testing.T) {
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	query := mustAtom(t, "t(1, Y)")
	base := edgeAtoms(t, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4}, [2]int{5, 6})
	strategies := []Strategy{SemiNaive, Magic, SupplementaryMagic, Factored, FactoredOptimized, Counting}

	m, err := NewMaterializer(p, nil, base, nil, MaterializerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Scripted batches: growth, retraction into the live closure, a mixed
	// batch, a pure noop, and an assert that reconnects a severed chain.
	batches := []struct {
		assert, retract []ast.Atom
		effective       bool
	}{
		{assert: edgeAtoms(t, [2]int{4, 5}), effective: true},
		{retract: edgeAtoms(t, [2]int{2, 3}), effective: true},
		{assert: edgeAtoms(t, [2]int{2, 7}, [2]int{7, 3}), retract: edgeAtoms(t, [2]int{3, 4}), effective: true},
		{assert: edgeAtoms(t, [2]int{1, 2}), retract: edgeAtoms(t, [2]int{9, 9}), effective: false},
		{assert: edgeAtoms(t, [2]int{3, 4}), effective: true},
	}

	check := func(stage string) {
		for _, s := range strategies {
			res, err := m.Serve(ctx, query, s)
			if err != nil {
				t.Fatalf("%s: serve %v: %v", stage, s, err)
			}
			if res.Epoch != m.Epoch() {
				t.Errorf("%s: %v served epoch %d, materializer at %d", stage, s, res.Epoch, m.Epoch())
			}
			want := scratchAnswers(t, p, query, s, m.BaseFacts())
			if d := diffAnswers(res.Answers, want); d != "" {
				t.Fatalf("%s: %v: materialized answers diverge: %s", stage, s, d)
			}
		}
	}

	check("initial")
	// Second serve with no mutations in between must be a pure hit.
	res, err := m.Serve(ctx, query, SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "hit" {
		t.Errorf("unchanged serve kind = %q, want hit", res.Kind)
	}

	epoch := m.Epoch()
	for i, b := range batches {
		r, err := m.Apply(b.assert, b.retract)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if b.effective {
			epoch++
		}
		if r.Epoch != epoch || m.Epoch() != epoch {
			t.Fatalf("batch %d: epoch = %d/%d, want %d", i, r.Epoch, m.Epoch(), epoch)
		}
		check(fmt.Sprintf("batch %d", i))
	}

	// Every strategy was built once and caught up by delta afterwards.
	st := m.Stats()
	if st.Builds != int64(len(strategies)) {
		t.Errorf("builds = %d, want %d", st.Builds, len(strategies))
	}
	if st.Deltas == 0 {
		t.Error("no delta refreshes recorded across mutation batches")
	}
	if st.Rebuilds != 0 {
		t.Errorf("rebuilds = %d, want 0 (log never truncated)", st.Rebuilds)
	}
	if st.Batches != 4 || st.Epoch != epoch {
		t.Errorf("batches/epoch = %d/%d, want 4/%d", st.Batches, st.Epoch, epoch)
	}
}

func TestMaterializerDeltaKinds(t *testing.T) {
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	query := mustAtom(t, "t(1, Y)")
	m, err := NewMaterializer(p, nil, edgeAtoms(t, [2]int{1, 2}), nil, MaterializerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	res, err := m.Serve(ctx, query, SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "build" {
		t.Errorf("first serve kind = %q, want build", res.Kind)
	}
	if _, err := m.Apply(edgeAtoms(t, [2]int{2, 3}), nil); err != nil {
		t.Fatal(err)
	}
	res, err = m.Serve(ctx, query, SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "delta" || res.Batches != 1 {
		t.Errorf("post-mutation serve = %q/%d batches, want delta/1", res.Kind, res.Batches)
	}
}

func TestMaterializerLogTruncationRebuild(t *testing.T) {
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	query := mustAtom(t, "t(1, Y)")
	m, err := NewMaterializer(p, nil, edgeAtoms(t, [2]int{1, 2}), nil,
		MaterializerOptions{LogLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := m.Serve(ctx, query, SemiNaive); err != nil {
		t.Fatal(err)
	}
	// Five effective batches against a log of two: the entry is further
	// behind than the log reaches, so the next serve must rebuild.
	for i := 0; i < 5; i++ {
		if _, err := m.Apply(edgeAtoms(t, [2]int{2 + i, 3 + i}), nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Serve(ctx, query, SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "rebuild" {
		t.Errorf("truncated-log serve kind = %q, want rebuild", res.Kind)
	}
	want := scratchAnswers(t, p, query, SemiNaive, m.BaseFacts())
	if d := diffAnswers(res.Answers, want); d != "" {
		t.Errorf("rebuilt answers diverge: %s", d)
	}
}

func TestMaterializerLRUEviction(t *testing.T) {
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaterializer(p, nil, edgeAtoms(t, [2]int{1, 2}, [2]int{2, 3}), nil,
		MaterializerOptions{Entries: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := m.Serve(ctx, mustAtom(t, "t(1, Y)"), SemiNaive); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Serve(ctx, mustAtom(t, "t(2, Y)"), SemiNaive); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Errorf("entries/evictions = %d/%d, want 1/1", st.Entries, st.Evictions)
	}
	// Serving the evicted query again is a fresh build, not an error.
	res, err := m.Serve(ctx, mustAtom(t, "t(1, Y)"), SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "build" {
		t.Errorf("re-serve of evicted entry kind = %q, want build", res.Kind)
	}
}

func TestMaterializerValidation(t *testing.T) {
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaterializer(p, nil, edgeAtoms(t, [2]int{1, 2}), nil, MaterializerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []ast.Atom{
		mustAtom(t, "e(X, 1)"),    // not ground
		mustAtom(t, "e(1, 2, 3)"), // arity mismatch
	}
	for _, a := range cases {
		if _, err := m.Apply([]ast.Atom{a}, nil); !errors.Is(err, engine.ErrMutation) {
			t.Errorf("assert %s: err = %v, want ErrMutation", a, err)
		}
	}
	if m.Epoch() != 0 || m.BaseCount() != 1 {
		t.Errorf("rejected batches mutated state: epoch %d, base %d", m.Epoch(), m.BaseCount())
	}
	if _, err := m.Serve(context.Background(), mustAtom(t, "t(1, Y)"), TopDown); !errors.Is(err, ErrNotMaterializable) {
		t.Errorf("TopDown serve err = %v, want ErrNotMaterializable", err)
	}
}

func TestMaterializerRefreshFaultRecovery(t *testing.T) {
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	query := mustAtom(t, "t(1, Y)")
	m, err := NewMaterializer(p, nil, edgeAtoms(t, [2]int{1, 2}, [2]int{2, 3}), nil, MaterializerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	disable := faultinject.Enable(faultinject.Config{
		Seed: 7, MaxPeriod: 1, Points: []faultinject.Point{faultinject.MatRefresh},
	})
	_, serveErr := m.Serve(ctx, query, SemiNaive)
	disable()
	if !errors.Is(serveErr, engine.ErrInternal) {
		t.Fatalf("faulted serve err = %v, want ErrInternal", serveErr)
	}

	// The fault must not poison the registry: the next serve succeeds and
	// matches a from-scratch evaluation.
	res, err := m.Serve(ctx, query, SemiNaive)
	if err != nil {
		t.Fatalf("post-fault serve: %v", err)
	}
	want := scratchAnswers(t, p, query, SemiNaive, m.BaseFacts())
	if d := diffAnswers(res.Answers, want); d != "" {
		t.Errorf("post-fault answers diverge: %s", d)
	}
}
