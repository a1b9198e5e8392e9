package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"factorlog/internal/ast"
	"factorlog/internal/parser"
)

// chainDB builds e(1,2), e(2,3), ..., e(n-1,n).
func chainDB(n int) *DB {
	db := NewDB()
	for i := 1; i < n; i++ {
		db.MustInsert("e", db.Store.Int(i), db.Store.Int(i+1))
	}
	return db
}

func tcProgram() *ast.Program {
	return parser.MustParseProgram(`
		t(X, Y) :- e(X, Y).
		t(X, Y) :- e(X, W), t(W, Y).
	`)
}

func TestEvalTransitiveClosureChain(t *testing.T) {
	for _, strat := range []Strategy{SemiNaive, Naive} {
		db := chainDB(10)
		res, err := Eval(tcProgram(), db, Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		want := 9 * 10 / 2 // all pairs i<j over 10 nodes
		if got := db.Count("t"); got != want {
			t.Errorf("%v: |t| = %d, want %d", strat, got, want)
		}
		if res.Stats.Derived != want {
			t.Errorf("%v: Derived = %d, want %d", strat, res.Stats.Derived, want)
		}
		if res.Stats.Iterations < 2 {
			t.Errorf("%v: suspicious iteration count %d", strat, res.Stats.Iterations)
		}
	}
}

func TestEvalCycle(t *testing.T) {
	db := NewDB()
	n := 5
	for i := 0; i < n; i++ {
		db.MustInsert("e", db.Store.Int(i), db.Store.Int((i+1)%n))
	}
	if _, err := Eval(tcProgram(), db, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := db.Count("t"); got != n*n {
		t.Errorf("|t| on cycle = %d, want %d", got, n*n)
	}
}

func TestSemiNaiveFewerInferencesThanNaive(t *testing.T) {
	dbS, dbN := chainDB(30), chainDB(30)
	rs, err := Eval(tcProgram(), dbS, Options{Strategy: SemiNaive})
	if err != nil {
		t.Fatal(err)
	}
	rn, err := Eval(tcProgram(), dbN, Options{Strategy: Naive})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Stats.Inferences >= rn.Stats.Inferences {
		t.Errorf("semi-naive (%d) should do fewer inferences than naive (%d)",
			rs.Stats.Inferences, rn.Stats.Inferences)
	}
	if dbS.Count("t") != dbN.Count("t") {
		t.Error("strategies disagree on |t|")
	}
}

func TestEvalGroundRuleFactsAndSeeds(t *testing.T) {
	// IDB facts as bodyless rules (the magic seed pattern).
	p := parser.MustParseProgram(`
		m(5).
		m(W) :- m(X), e(X, W).
	`)
	db := chainDB(8) // uses constants "1".."8"; seed 5 reaches 6,7,8
	if _, err := Eval(p, db, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := db.Count("m"); got != 4 { // 5,6,7,8
		t.Errorf("|m| = %d, want 4", got)
	}
}

func TestEvalListProgram(t *testing.T) {
	// The factored pmem program of Example 1.2 / 4.6.
	p := parser.MustParseProgram(`
		m_pmem(T) :- m_pmem([H | T]).
		fpmem(X) :- m_pmem([X | T]), p(X).
	`)
	db := NewDB()
	// Seed: m_pmem([x1..x5]), p(xi) for odd i.
	elems := make([]Val, 5)
	for i := range elems {
		elems[i] = db.Store.Const(fmt.Sprintf("x%d", i+1))
		if i%2 == 0 {
			db.MustInsert("p", elems[i])
		}
	}
	db.MustInsert("m_pmem", db.Store.List(elems...))
	if _, err := Eval(p, db, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := db.Count("fpmem"); got != 3 { // x1, x3, x5
		t.Errorf("|fpmem| = %d, want 3", got)
	}
	if got := db.Count("m_pmem"); got != 6 { // suffixes incl []
		t.Errorf("|m_pmem| = %d, want 6", got)
	}
}

func TestEvalUnsafeRule(t *testing.T) {
	p := parser.MustParseProgram(`p(X, Z) :- e(X, Y).`)
	if _, err := Eval(p, NewDB(), Options{}); err == nil {
		t.Error("unsafe rule should be rejected")
	}
}

func TestEvalArityConflict(t *testing.T) {
	p := parser.MustParseProgram(`
		p(X) :- e(X, Y).
		q(X) :- p(X, X).
	`)
	if _, err := Eval(p, NewDB(), Options{}); err == nil {
		t.Error("arity conflict should be rejected")
	}
}

func TestEvalBudgetIterations(t *testing.T) {
	// counter(s(X)) :- counter(X) diverges; the budget must stop it.
	p := parser.MustParseProgram(`
		counter(z).
		counter(s(X)) :- counter(X).
	`)
	_, err := Eval(p, NewDB(), Options{MaxIterations: 10})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("want ErrBudgetExceeded, got %v", err)
	}
	_, err = Eval(p, NewDB(), Options{MaxFacts: 50})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("want ErrBudgetExceeded (facts), got %v", err)
	}
}

func TestEvalDuplicateVarsInLiteral(t *testing.T) {
	p := parser.MustParseProgram(`loop(X) :- e(X, X).`)
	db := NewDB()
	a, b := db.Store.Const("a"), db.Store.Const("b")
	db.MustInsert("e", a, a)
	db.MustInsert("e", a, b)
	if _, err := Eval(p, db, Options{}); err != nil {
		t.Fatal(err)
	}
	if db.Count("loop") != 1 {
		t.Errorf("|loop| = %d, want 1", db.Count("loop"))
	}
}

func TestEvalConstantsInRule(t *testing.T) {
	p := parser.MustParseProgram(`near5(Y) :- e(5, Y).`)
	db := chainDB(10)
	if _, err := Eval(p, db, Options{}); err != nil {
		t.Fatal(err)
	}
	if db.Count("near5") != 1 {
		t.Errorf("|near5| = %d, want 1", db.Count("near5"))
	}
}

func TestAnswers(t *testing.T) {
	db := chainDB(6)
	if _, err := Eval(tcProgram(), db, Options{}); err != nil {
		t.Fatal(err)
	}
	// t(2, Y): reaches 3,4,5,6.
	got, err := Answers(db, parser.MustParseAtom("t(2, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("answers = %d, want 4", len(got))
	}
	// Repeated variable: t(X, X) is empty on a chain.
	got, err = Answers(db, parser.MustParseAtom("t(X, X)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("t(X,X) = %d answers, want 0", len(got))
	}
	// Unknown predicate: no answers, no error.
	got, err = Answers(db, parser.MustParseAtom("zzz(X)"))
	if err != nil || got != nil {
		t.Errorf("unknown pred: %v %v", got, err)
	}
	// Arity mismatch is an error.
	if _, err := Answers(db, parser.MustParseAtom("t(X)")); err == nil {
		t.Error("arity mismatch should error")
	}
}

func TestAnswerSet(t *testing.T) {
	db := chainDB(4)
	if _, err := Eval(tcProgram(), db, Options{}); err != nil {
		t.Fatal(err)
	}
	set, err := AnswerSet(db, parser.MustParseAtom("t(1, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"(1,2)", "(1,3)", "(1,4)"} {
		if !set[want] {
			t.Errorf("missing %s in %v", want, set)
		}
	}
	if len(set) != 3 {
		t.Errorf("set size = %d", len(set))
	}
}

func TestLoadFacts(t *testing.T) {
	u, err := parser.Parse(`e(1,2). e(2,3). p([a,b]).`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	if err := LoadFacts(db, u.Facts); err != nil {
		t.Fatal(err)
	}
	if db.Count("e") != 2 || db.Count("p") != 1 {
		t.Error("LoadFacts counts wrong")
	}
	// Non-ground atom rejected.
	if err := LoadFacts(db, []ast.Atom{ast.NewAtom("q", ast.V("X"))}); err == nil {
		t.Error("non-ground fact should error")
	}
}

// Property: semi-naive and naive agree on random EDBs.
func TestStrategiesAgreeOnRandomGraphs(t *testing.T) {
	p := parser.MustParseProgram(`
		t(X, Y) :- t(X, W), t(W, Y).
		t(X, Y) :- e(X, W), t(W, Y).
		t(X, Y) :- t(X, W), e(W, Y).
		t(X, Y) :- e(X, Y).
	`)
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(8)
		edges := make([][2]int, 0)
		for i := 0; i < n*2; i++ {
			edges = append(edges, [2]int{r.Intn(n), r.Intn(n)})
		}
		load := func() *DB {
			db := NewDB()
			for _, e := range edges {
				db.MustInsert("e", db.Store.Int(e[0]), db.Store.Int(e[1]))
			}
			return db
		}
		dbS, dbN := load(), load()
		if _, err := Eval(p, dbS, Options{Strategy: SemiNaive}); err != nil {
			t.Fatal(err)
		}
		if _, err := Eval(p, dbN, Options{Strategy: Naive}); err != nil {
			t.Fatal(err)
		}
		q := parser.MustParseAtom("t(X, Y)")
		sS, _ := AnswerSet(dbS, q)
		sN, _ := AnswerSet(dbN, q)
		if len(sS) != len(sN) {
			t.Fatalf("seed %d: strategies disagree: %d vs %d", seed, len(sS), len(sN))
		}
		for k := range sS {
			if !sN[k] {
				t.Fatalf("seed %d: %s missing from naive", seed, k)
			}
		}
	}
}

func TestProvenanceTrees(t *testing.T) {
	db := chainDB(5)
	p := tcProgram()
	res, err := Eval(p, db, Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	pv := res.Prov
	if pv == nil {
		t.Fatal("no provenance recorded")
	}
	tuple := []Val{db.Store.Int(1), db.Store.Int(4)}
	id, ok := pv.Lookup("t", tuple)
	if !ok {
		t.Fatal("t(1,4) has no provenance")
	}
	if h := pv.TreeHeight(id); h < 3 {
		t.Errorf("t(1,4) tree height = %d, want >= 3", h)
	}
	if sz := pv.TreeSize(id); sz < 5 {
		t.Errorf("t(1,4) tree size = %d, want >= 5", sz)
	}
	if err := pv.Verify(db.Store, id); err != nil {
		t.Errorf("derivation tree invalid: %v", err)
	}
	out := pv.RenderTree(db.Store, id)
	if len(out) == 0 || out[0] != 't' {
		t.Errorf("render:\n%s", out)
	}
	// Every derived t fact has a valid tree.
	trel := db.Lookup("t")
	for pos := int32(0); pos < int32(trel.Len()); pos++ {
		tup := trel.Tuple(pos)
		id, ok := pv.Lookup("t", tup)
		if !ok {
			t.Fatalf("no provenance for t%s", db.Store.TupleString(tup))
		}
		if err := pv.Verify(db.Store, id); err != nil {
			t.Fatalf("t%s: %v", db.Store.TupleString(tup), err)
		}
	}
}

func TestProvenanceEDBLeaf(t *testing.T) {
	db := chainDB(3)
	res, err := Eval(tcProgram(), db, Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	id, ok := res.Prov.Lookup("e", []Val{db.Store.Int(1), db.Store.Int(2)})
	if !ok {
		t.Skip("EDB fact not touched") // e(1,2) is used, should be present
	}
	d := res.Prov.DerivationOf(id)
	if d.Rule != -1 || len(d.Children) != 0 {
		t.Errorf("EDB fact should be a leaf: %+v", d)
	}
	if res.Prov.TreeHeight(id) != 1 {
		t.Error("leaf height should be 1")
	}
}

func TestStrategyString(t *testing.T) {
	if SemiNaive.String() != "semi-naive" || Naive.String() != "naive" {
		t.Error("Strategy.String wrong")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy should render")
	}
}

// TestOptionsValidation rejects out-of-domain options up front. Workers
// survives only as a deprecated field: 0 and 1 are accepted, and any other
// value fails because there is no parallel evaluator to select.
func TestOptionsValidation(t *testing.T) {
	p := parser.MustParseProgram(`t(X, Y) :- e(X, Y).`)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"negative workers", Options{Workers: -1}},
		{"two workers", Options{Workers: 2}},
		{"negative max iterations", Options{MaxIterations: -5}},
		{"negative max facts", Options{MaxFacts: -2}},
	} {
		db := NewDB()
		db.MustInsert("e", db.Store.Int(1), db.Store.Int(2))
		_, err := Eval(p, db, tc.opts)
		if !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: err = %v, want ErrBadOptions", tc.name, err)
		}
	}
	for _, opts := range []Options{{}, {Workers: 1}} {
		db := NewDB()
		db.MustInsert("e", db.Store.Int(1), db.Store.Int(2))
		if _, err := Eval(p, db, opts); err != nil {
			t.Errorf("opts %+v: unexpected error %v", opts, err)
		}
	}
}
