package smt

import (
	"math/rand"
	"testing"

	"cpr/internal/expr"
	"cpr/internal/interval"
)

// refPurify is purify without the purity bit: every subterm, pure or not,
// goes through the cache map. It shares fresh, divPair and defs with p.
func refPurify(p *purifier, cache map[*expr.Term]*expr.Term, t *expr.Term) *expr.Term {
	if r, ok := cache[t]; ok {
		return r
	}
	var r *expr.Term
	switch t.Op {
	case expr.OpIntConst, expr.OpBoolConst, expr.OpVar:
		r = t
	case expr.OpIte:
		cond := refPurify(p, cache, t.Args[0])
		a := refPurify(p, cache, t.Args[1])
		b := refPurify(p, cache, t.Args[2])
		if t.Sort == expr.SortBool {
			r = expr.Ite(cond, a, b)
			break
		}
		v := p.fresh()
		p.defs = append(p.defs,
			expr.Implies(cond, expr.Eq(v, a)),
			expr.Implies(expr.Not(cond), expr.Eq(v, b)),
		)
		r = v
	case expr.OpDiv, expr.OpRem:
		a := refPurify(p, cache, t.Args[0])
		b := refPurify(p, cache, t.Args[1])
		q, rem := p.divPair(a, b, t.Op)
		if t.Op == expr.OpDiv {
			r = q
		} else {
			r = rem
		}
	default:
		args := make([]*expr.Term, len(t.Args))
		changed := false
		for i, a := range t.Args {
			args[i] = refPurify(p, cache, a)
			if args[i] != a {
				changed = true
			}
		}
		if !changed {
			r = t
		} else {
			r = expr.Rebuild(t.Op, args)
		}
	}
	cache[t] = r
	return r
}

// randImpureFormula builds a random Bool formula with nested Int and Bool
// ite, div and rem beside pure subformulas.
func randImpureFormula(r *rand.Rand, depth int) *expr.Term {
	if depth == 0 {
		switch r.Intn(3) {
		case 0:
			return expr.Le(randIntTerm(r, 2), randIntTerm(r, 1))
		case 1:
			return randFormula(r, 1)
		default:
			return expr.BoolVar("q")
		}
	}
	a, b := randImpureFormula(r, depth-1), randImpureFormula(r, depth-1)
	switch r.Intn(6) {
	case 0:
		return expr.And(a, b)
	case 1:
		return expr.Or(a, b)
	case 2:
		return expr.Not(a)
	case 3:
		return expr.Ite(randImpureFormula(r, depth-1), a, b)
	case 4:
		return expr.Eq(expr.Ite(a, randIntTerm(r, 1), randIntTerm(r, 1)), randIntTerm(r, 1))
	default:
		return expr.Implies(a, b)
	}
}

// TestPurifyMatchesReference: skipping pure subterms changes nothing. On
// random formulas, purified three at a time by one purifier as a query's
// conjuncts would be, purify returns the reference's term pointers, defs
// and aux names.
func TestPurifyMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	pure, impure := 0, 0
	for iter := 0; iter < 400; iter++ {
		var got, want purifier
		cache := map[*expr.Term]*expr.Term{}
		for k := 0; k < 3; k++ {
			f := randImpureFormula(r, 3)
			if f.Pure() {
				pure++
			} else {
				impure++
			}
			if g, w := got.purify(f), refPurify(&want, cache, f); g != w {
				t.Fatalf("iter %d: purify(%v) = %v, reference %v", iter, f, g, w)
			}
		}
		if got.next != want.next || len(got.defs) != len(want.defs) {
			t.Fatalf("iter %d: %d aux names and %d defs, reference %d and %d",
				iter, got.next, len(got.defs), want.next, len(want.defs))
		}
		for i := range want.defs {
			if got.defs[i] != want.defs[i] {
				t.Fatalf("iter %d: def %d is %v, reference %v", iter, i, got.defs[i], want.defs[i])
			}
		}
	}
	if pure == 0 || impure == 0 {
		t.Fatalf("%d pure and %d impure formulas: the comparison is one-sided", pure, impure)
	}
}

var purified *expr.Term

// TestPurifyPureAllocatesNothing: a pure formula comes back before the
// purifier makes its cache map.
func TestPurifyPureAllocatesNothing(t *testing.T) {
	f := randFormula(rand.New(rand.NewSource(5)), 4)
	if !f.Pure() {
		t.Fatalf("%v is not pure", f)
	}
	var p purifier
	allocs := testing.AllocsPerRun(100, func() {
		p = purifier{}
		purified = p.purify(f)
	})
	if allocs != 0 || purified != f {
		t.Fatalf("purifying a pure formula allocated %.0f times and returned %v", allocs, purified)
	}
}

// refPinBools is pinBools without the Bool-variable summary: any bound
// that excludes 0 or 1 makes it walk the formula.
func refPinBools(f *expr.Term, bounds map[string]interval.Interval) (*expr.Term, bool) {
	narrow := false
	for _, iv := range bounds {
		if iv.Lo > 0 || iv.Hi < 1 {
			narrow = true
			break
		}
	}
	if !narrow {
		return f, true
	}
	var sub map[string]*expr.Term
	for _, v := range expr.Vars(f) {
		iv, bounded := bounds[v.Name]
		if v.Sort != expr.SortBool || !bounded || (iv.Lo <= 0 && iv.Hi >= 1) {
			continue
		}
		lo, hi := max(iv.Lo, 0), min(iv.Hi, 1)
		if lo > hi {
			return nil, false
		}
		if sub == nil {
			sub = make(map[string]*expr.Term)
		}
		sub[v.Name] = expr.Bool(lo == 1)
	}
	return expr.Subst(f, sub), true
}

// TestPinBoolsMatchesWalk: pinBools skips its walk only where the walk
// would pin nothing. On random formulas over Int and Bool variables, under
// random bounds on both, it returns what the walking reference returns.
func TestPinBoolsMatchesWalk(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	names := []string{"x", "y", "p", "q", "a"}
	pinned, skipped := 0, 0
	for iter := 0; iter < 3000; iter++ {
		f := randImpureFormula(r, 2)
		bounds := map[string]interval.Interval{}
		for _, n := range names {
			if r.Intn(2) == 0 {
				lo := int64(r.Intn(5) - 2)
				bounds[n] = interval.New(lo, lo+int64(r.Intn(3)))
			}
		}
		g, ok := pinBools(f, bounds)
		wg, wok := refPinBools(f, bounds)
		if g != wg || ok != wok {
			t.Fatalf("iter %d: pinBools(%v, %v) = %v, %v; reference %v, %v", iter, f, bounds, g, ok, wg, wok)
		}
		switch {
		case wg != f || !wok:
			pinned++
		case g == f:
			skipped++
		}
	}
	if pinned == 0 || skipped == 0 {
		t.Fatalf("%d pinned and %d unpinned formulas: the comparison is one-sided", pinned, skipped)
	}
}
