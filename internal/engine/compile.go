package engine

import (
	"fmt"

	"factorlog/internal/ast"
)

// patKind discriminates compiled argument patterns.
type patKind uint8

const (
	patConst patKind = iota
	patVar
	patCompound
)

// pattern is a compiled term: constants are interned up front, variables are
// slot numbers into the rule's binding frame, compounds keep their shape.
type pattern struct {
	kind    patKind
	val     Val    // patConst
	slot    int    // patVar
	functor string // patCompound
	args    []pattern
}

// literalSpec is one compiled body literal.
type literalSpec struct {
	pred      string
	arity     int
	args      []pattern
	boundCols []int // columns fully bound before this literal (probe key)
	freeCols  []int // remaining columns (residually matched)
	idb       bool  // head predicate of some rule in the program
}

// indexNeed is one hash index a rule's body requires: the probe of some
// body literal with at least one bound column. The compiler declares these
// so the evaluator can build every index up front instead of lazily inside
// Probe — removing the first-probe
// stall and making in-round probes read-only.
type indexNeed struct {
	pred string
	cols []int // sorted ascending (compiled in column order)
}

// compiledRule is an executable rule.
type compiledRule struct {
	src      ast.Rule
	idx      int // index into the program's rule list
	nslots   int
	headPred string
	headArgs []pattern
	body     []literalSpec
	idbOccs  []int // body positions whose predicate is IDB (delta positions)
	// indexNeeds lists the (relation, columns) indexes this rule's body
	// probes, one per literal with bound columns.
	indexNeeds []indexNeed
}

// label renders the rule's source for trace records.
func (r *compiledRule) label() string { return r.src.String() }

// compiler lowers an ast.Program for a given store.
type compiler struct {
	store *Store
	idb   map[string]bool
	slots map[string]int
	n     int
}

// compileProgram lowers all rules. It validates safety (every head variable
// bound by the body) and consistent arities. With reorder set, body
// literals are greedily reordered so that literals with more bound columns
// run earlier (answers are unaffected; join work often is).
func compileProgram(p *ast.Program, store *Store, reorder bool) ([]*compiledRule, error) {
	if _, err := p.PredArities(); err != nil {
		return nil, err
	}
	c := &compiler{store: store, idb: p.IDBPreds()}
	rules := make([]*compiledRule, 0, len(p.Rules))
	for i, r := range p.Rules {
		if reorder {
			r = reorderBody(r)
		}
		cr, err := c.compileRule(r, i)
		if err != nil {
			return nil, fmt.Errorf("rule %d (%s): %w", i+1, r, err)
		}
		rules = append(rules, cr)
	}
	return rules, nil
}

// reorderBody greedily picks, at each step, the body literal with the most
// arguments fully bound by the literals already placed (constants count;
// ties break toward the smallest remaining free-variable count, then
// original order). Reordering is sound for positive programs.
func reorderBody(r ast.Rule) ast.Rule {
	n := len(r.Body)
	if n < 3 {
		return r
	}
	bound := map[string]bool{}
	used := make([]bool, n)
	order := make([]int, 0, n)
	termBound := func(t ast.Term) bool {
		for _, v := range t.Vars() {
			if !bound[v] {
				return false
			}
		}
		return true
	}
	for len(order) < n {
		best, bestBound, bestFree := -1, -1, 1<<30
		for i, a := range r.Body {
			if used[i] {
				continue
			}
			nb, nf := 0, 0
			for _, t := range a.Args {
				if termBound(t) {
					nb++
				}
			}
			for _, v := range a.Vars() {
				if !bound[v] {
					nf++
				}
			}
			if nb > bestBound || (nb == bestBound && nf < bestFree) {
				best, bestBound, bestFree = i, nb, nf
			}
		}
		used[best] = true
		order = append(order, best)
		for _, v := range r.Body[best].Vars() {
			bound[v] = true
		}
	}
	body := make([]ast.Atom, n)
	for k, i := range order {
		body[k] = r.Body[i]
	}
	return ast.Rule{Head: r.Head, Body: body}
}

func (c *compiler) compileRule(r ast.Rule, idx int) (*compiledRule, error) {
	c.slots = map[string]int{}
	c.n = 0
	cr := &compiledRule{src: r, idx: idx, headPred: r.Head.Pred}

	// Compile body first so slot-bound analysis follows literal order.
	bound := make(map[int]bool)
	for bi, a := range r.Body {
		spec := literalSpec{pred: a.Pred, arity: len(a.Args), idb: c.idb[a.Pred]}
		for col, t := range a.Args {
			pat := c.compileTerm(t)
			spec.args = append(spec.args, pat)
			if patternBound(pat, bound) {
				spec.boundCols = append(spec.boundCols, col)
			} else {
				spec.freeCols = append(spec.freeCols, col)
			}
		}
		// After the literal, all its slots are bound.
		for _, pat := range spec.args {
			markBound(pat, bound)
		}
		if spec.idb {
			cr.idbOccs = append(cr.idbOccs, bi)
		}
		if len(spec.boundCols) > 0 {
			cr.indexNeeds = append(cr.indexNeeds, indexNeed{pred: spec.pred, cols: spec.boundCols})
		}
		cr.body = append(cr.body, spec)
	}

	for _, t := range r.Head.Args {
		pat := c.compileTerm(t)
		if !patternBound(pat, bound) {
			return nil, fmt.Errorf("unsafe rule: head variable(s) in %s not bound by body", t)
		}
		cr.headArgs = append(cr.headArgs, pat)
	}
	cr.nslots = c.n
	return cr, nil
}

func (c *compiler) compileTerm(t ast.Term) pattern {
	switch t.Kind {
	case ast.Var:
		slot, ok := c.slots[t.Functor]
		if !ok {
			slot = c.n
			c.n++
			c.slots[t.Functor] = slot
		}
		return pattern{kind: patVar, slot: slot}
	case ast.Const:
		return pattern{kind: patConst, val: c.store.Const(t.Functor)}
	default:
		args := make([]pattern, len(t.Args))
		for i, a := range t.Args {
			args[i] = c.compileTerm(a)
		}
		return pattern{kind: patCompound, functor: t.Functor, args: args}
	}
}

func patternBound(p pattern, bound map[int]bool) bool {
	switch p.kind {
	case patConst:
		return true
	case patVar:
		return bound[p.slot]
	default:
		for _, a := range p.args {
			if !patternBound(a, bound) {
				return false
			}
		}
		return true
	}
}

func markBound(p pattern, bound map[int]bool) {
	switch p.kind {
	case patVar:
		bound[p.slot] = true
	case patCompound:
		for _, a := range p.args {
			markBound(a, bound)
		}
	}
}

// evalPattern builds the Val denoted by a fully bound pattern.
func evalPattern(p pattern, slots []Val, store *Store) Val {
	switch p.kind {
	case patConst:
		return p.val
	case patVar:
		return slots[p.slot]
	default:
		args := make([]Val, len(p.args))
		for i, a := range p.args {
			args[i] = evalPattern(a, slots, store)
		}
		return store.Compound(p.functor, args...)
	}
}

// matchPattern matches p against v, binding unbound slots (recorded on
// trail for backtracking) and checking bound ones.
func matchPattern(p pattern, v Val, slots []Val, trail *[]int, store *Store) bool {
	switch p.kind {
	case patConst:
		return p.val == v
	case patVar:
		if slots[p.slot] == NoVal {
			slots[p.slot] = v
			*trail = append(*trail, p.slot)
			return true
		}
		return slots[p.slot] == v
	default:
		if store.IsConst(v) || store.Functor(v) != p.functor {
			return false
		}
		args := store.Args(v)
		if len(args) != len(p.args) {
			return false
		}
		for i, a := range p.args {
			if !matchPattern(a, args[i], slots, trail, store) {
				return false
			}
		}
		return true
	}
}

func undoTrail(slots []Val, trail []int, mark int) []int {
	for _, s := range trail[mark:] {
		slots[s] = NoVal
	}
	return trail[:mark]
}
