package smt

import (
	"fmt"

	"cpr/internal/expr"
)

// purifier rewrites a formula so that the arithmetic layer only ever sees
// +, −, ·, and variables: integer-sorted ite, div, and rem are replaced by
// fresh variables with defining constraints collected in defs. A pure
// subterm (expr.Term.Pure: no ite of either sort, div or rem below) comes
// back unchanged before the cache is consulted, so a pure formula costs no
// map work; aux numbering follows the impure subterms alone.
type purifier struct {
	defs  []*expr.Term
	next  int
	cache map[*expr.Term]*expr.Term
}

func (p *purifier) fresh() *expr.Term {
	v := expr.IntVar(fmt.Sprintf("%s%d", auxPrefix, p.next))
	p.next++
	return v
}

func (p *purifier) purify(t *expr.Term) *expr.Term {
	if t.Pure() {
		return t
	}
	if p.cache == nil {
		p.cache = make(map[*expr.Term]*expr.Term)
	}
	if r, ok := p.cache[t]; ok {
		return r
	}
	var r *expr.Term
	switch t.Op {
	case expr.OpIte:
		cond := p.purify(t.Args[0])
		a := p.purify(t.Args[1])
		b := p.purify(t.Args[2])
		if t.Sort == expr.SortBool {
			r = expr.Ite(cond, a, b)
			break
		}
		// Integer ite: v with (cond → v = a) ∧ (¬cond → v = b).
		v := p.fresh()
		p.defs = append(p.defs,
			expr.Implies(cond, expr.Eq(v, a)),
			expr.Implies(expr.Not(cond), expr.Eq(v, b)),
		)
		r = v
	case expr.OpDiv, expr.OpRem:
		a := p.purify(t.Args[0])
		b := p.purify(t.Args[1])
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
			args[i] = p.purify(a)
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
	p.cache[t] = r
	return r
}

// divPair introduces quotient and remainder variables for a div/rem pair
// with C semantics (truncation toward zero): a = b·q + r, |r| < |b|, and
// sign(r) follows sign(a). The definition is guarded by b ≠ 0, matching
// SMT-LIB's treatment of division as total but unspecified at zero; the
// run-time crash semantics of division by zero is the executor's concern,
// not the logic's.
func (p *purifier) divPair(a, b *expr.Term, _ expr.Op) (q, r *expr.Term) {
	q = p.fresh()
	r = p.fresh()
	zero := expr.Int(0)
	absLT := expr.Or( // |r| < |b|
		expr.And(expr.Ge(r, zero), expr.Lt(r, b)),
		expr.And(expr.Ge(r, zero), expr.Lt(r, expr.Neg(b))),
		expr.And(expr.Le(r, zero), expr.Lt(expr.Neg(r), b)),
		expr.And(expr.Le(r, zero), expr.Lt(expr.Neg(r), expr.Neg(b))),
	)
	signFollows := expr.Or(
		expr.And(expr.Ge(a, zero), expr.Ge(r, zero)),
		expr.And(expr.Le(a, zero), expr.Le(r, zero)),
	)
	def := expr.Implies(
		expr.Ne(b, zero),
		expr.And(
			expr.Eq(a, expr.Add(expr.Mul(b, q), r)),
			absLT,
			signFollows,
		),
	)
	p.defs = append(p.defs, def)
	return q, r
}
