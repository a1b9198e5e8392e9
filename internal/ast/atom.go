package ast

import (
	"fmt"
	"strings"
)

// EqualPred is the name of the special "infinite EDB" equality predicate
// introduced by the standard-form translation of Section 4.1 of the paper.
// equal(X, Y) holds for all pairs of equal terms.
const EqualPred = "equal"

// FnPredPrefix prefixes the special predicates introduced by the
// standard-form translation for function symbols: a term f(T1..Tn) in an
// argument of the recursive predicate becomes a fresh variable V plus a
// literal fn_f(T1..Tn, V). The paper's `list(X, T, L)` relation is the
// instance fn_'.'(X, T, L) of this scheme.
const FnPredPrefix = "fn_"

// Atom is a predicate applied to terms: p(t1, ..., tn). Atoms serve as rule
// heads, body literals, facts (when ground), and queries.
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom constructs an atom.
func NewAtom(pred string, args ...Term) Atom { return Atom{Pred: pred, Args: args} }

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// Equal reports structural equality.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].Equal(b.Args[i]) {
			return false
		}
	}
	return true
}

// Ground reports whether all arguments are ground.
func (a Atom) Ground() bool {
	for _, t := range a.Args {
		if !t.Ground() {
			return false
		}
	}
	return true
}

// Vars returns the variable names in a in first-occurrence order.
func (a Atom) Vars() []string {
	var order []string
	seen := map[string]bool{}
	for _, t := range a.Args {
		t.CollectVars(&order, seen)
	}
	return order
}

// HasVar reports whether variable name occurs in a.
func (a Atom) HasVar(name string) bool {
	for _, t := range a.Args {
		if t.HasVar(name) {
			return true
		}
	}
	return false
}

// Clone returns a deep-enough copy (terms are immutable; the args slice is
// copied so callers may append or overwrite entries).
func (a Atom) Clone() Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Pred: a.Pred, Args: args}
}

// String renders the atom in surface syntax, e.g. t_bf(X,Y) or true for a
// zero-arity predicate.
func (a Atom) String() string {
	var b strings.Builder
	writeName(&b, a.Pred)
	if len(a.Args) == 0 {
		return b.String()
	}
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		t.write(&b)
	}
	b.WriteByte(')')
	return b.String()
}

// CanonicalKey renders the atom with variables renamed to V0, V1, ... in
// first-occurrence order, so alphabetic variants share a key. Used to
// identify goals up to renaming.
func (a Atom) CanonicalKey() string {
	m := map[string]string{}
	for i, v := range a.Vars() {
		m[v] = fmt.Sprintf("V%d", i)
	}
	return renameAtomVars(a, m).String()
}

// Compare totally orders atoms by predicate, arity, then arguments.
func (a Atom) Compare(b Atom) int {
	if c := strings.Compare(a.Pred, b.Pred); c != 0 {
		return c
	}
	if d := len(a.Args) - len(b.Args); d != 0 {
		return d
	}
	for i := range a.Args {
		if c := a.Args[i].Compare(b.Args[i]); c != 0 {
			return c
		}
	}
	return 0
}

// --- Adorned predicate names -------------------------------------------------
//
// Adornment annotates each argument position of a predicate as bound ('b') or
// free ('f') with respect to a query and a sideways information passing
// strategy. We encode adornments into predicate names, separating the base
// name from the adornment string with adornSep, so every downstream
// transformation can treat adorned predicates as ordinary predicates. The
// printer renders p_bf, matching the paper's p^bf.

const adornSep = "_"

// Adornment is a string over {'b','f'}, one character per argument position.
type Adornment string

// IsValid reports whether ad consists only of 'b' and 'f'.
func (ad Adornment) IsValid() bool {
	for i := 0; i < len(ad); i++ {
		if ad[i] != 'b' && ad[i] != 'f' {
			return false
		}
	}
	return true
}

// Bound returns the indices of bound positions.
func (ad Adornment) Bound() []int { return ad.positions('b') }

// Free returns the indices of free positions.
func (ad Adornment) Free() []int { return ad.positions('f') }

func (ad Adornment) positions(c byte) []int {
	var out []int
	for i := 0; i < len(ad); i++ {
		if ad[i] == c {
			out = append(out, i)
		}
	}
	return out
}

// AllBound reports whether every position is bound.
func (ad Adornment) AllBound() bool { return len(ad.Free()) == 0 }

// AllFree reports whether every position is free.
func (ad Adornment) AllFree() bool { return len(ad.Bound()) == 0 }

// AdornedName combines a base predicate name with an adornment, e.g.
// AdornedName("t", "bf") == "t_bf".
func AdornedName(base string, ad Adornment) string {
	if len(ad) == 0 {
		return base
	}
	return base + adornSep + string(ad)
}

// SplitAdorned splits an adorned predicate name into its base and adornment.
// If the name has no valid adornment suffix, it returns (name, "", false).
func SplitAdorned(name string) (base string, ad Adornment, ok bool) {
	i := strings.LastIndex(name, adornSep)
	if i < 0 || i == len(name)-1 {
		return name, "", false
	}
	suffix := Adornment(name[i+1:])
	if !suffix.IsValid() {
		return name, "", false
	}
	return name[:i], suffix, true
}

// MagicPrefix prefixes magic predicates: the magic version of p_bf is
// m_p_bf, holding the bound-argument projections of the goals generated for
// p_bf during a top-down evaluation.
const MagicPrefix = "m_"

// MagicName returns the magic predicate name for an adorned predicate name.
func MagicName(adornedPred string) string { return MagicPrefix + adornedPred }

// IsMagicName reports whether name is a magic predicate name.
func IsMagicName(name string) bool { return strings.HasPrefix(name, MagicPrefix) }

// MagicAtom builds the magic literal of atom a given its adornment: the
// predicate m_<pred> applied to the bound-position arguments of a.
func MagicAtom(a Atom, ad Adornment) Atom {
	bound := ad.Bound()
	args := make([]Term, len(bound))
	for i, pos := range bound {
		args[i] = a.Args[pos]
	}
	return Atom{Pred: MagicName(a.Pred), Args: args}
}

// AdornmentOf computes the adornment of atom a given a set of bound
// variables: an argument is bound iff it is ground or all of its variables
// are in bound.
func AdornmentOf(a Atom, bound map[string]bool) Adornment {
	var b strings.Builder
	for _, t := range a.Args {
		if termBound(t, bound) {
			b.WriteByte('b')
		} else {
			b.WriteByte('f')
		}
	}
	return Adornment(b.String())
}

func termBound(t Term, bound map[string]bool) bool {
	switch t.Kind {
	case Var:
		return bound[t.Functor]
	case Const:
		return true
	default:
		for _, a := range t.Args {
			if !termBound(a, bound) {
				return false
			}
		}
		return true
	}
}

// FnPredName returns the standard-form predicate name for function symbol f,
// e.g. fn_cons for cons. The list functor gets the paper's name "list".
func FnPredName(functor string) string {
	if functor == ConsFunctor {
		return "list"
	}
	return FnPredPrefix + functor
}

// IsStandardFormPred reports whether pred is one of the special predicates
// introduced by the standard-form translation (equal, list, fn_*). These are
// conceptually infinite EDB relations; they exist only at compile time for
// factorability testing.
func IsStandardFormPred(pred string) bool {
	return pred == EqualPred || pred == "list" || strings.HasPrefix(pred, FnPredPrefix)
}

// FmtPredArity renders "p/2"-style predicate identifiers for messages.
func FmtPredArity(pred string, arity int) string {
	return fmt.Sprintf("%s/%d", pred, arity)
}
