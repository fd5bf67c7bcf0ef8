package smt

import (
	"math"
	"math/bits"

	"cpr/internal/expr"
	"cpr/internal/interval"
)

// Satisfies reports whether m is a model of f under bounds as this solver
// reads them, without solving:
//
//   - every variable of f has a value in m, within its explicit bound, else
//     within DefaultBounds (integers) or {0, 1} (booleans);
//   - arithmetic is exact: a step that overflows int64 is not shown;
//   - every integer ite, div and rem value lies within DefaultBounds, as the
//     auxiliary variable purification introduces for it must, wherever the
//     subterm occurs. So no argument is short-circuited.
//
// False means only "not shown": a zero divisor, whose quotient the solver
// leaves free, answers false as well. True means m is a model the solver
// itself could have returned for f under bounds.
func (s *Solver) Satisfies(f *expr.Term, bounds map[string]interval.Interval, m expr.Model) bool {
	ev := exactEval{m: m, bounds: bounds, def: s.opts.DefaultBounds}
	v := ev.eval(f)
	return !ev.bad && v == 1
}

// exactEval evaluates a term under solver semantics; bad is sticky and set
// by the first step the solver's semantics would not reproduce.
type exactEval struct {
	m      expr.Model
	bounds map[string]interval.Interval
	def    interval.Interval
	bad    bool
}

func (e *exactEval) eval(t *expr.Term) int64 {
	if e.bad {
		return 0
	}
	switch t.Op {
	case expr.OpIntConst, expr.OpBoolConst:
		return t.Val
	case expr.OpVar:
		v, ok := e.m[t.Name]
		iv, bounded := e.bounds[t.Name]
		switch {
		case !ok:
			e.bad = true
		case bounded && !iv.Contains(v):
			e.bad = true
		case t.Sort == expr.SortBool:
			e.bad = v != 0 && v != 1
		case !bounded:
			e.defaulted(v)
		}
		return v
	case expr.OpAdd, expr.OpAnd, expr.OpOr:
		var acc int64
		if t.Op == expr.OpAnd {
			acc = 1
		}
		for _, a := range t.Args {
			v := e.eval(a)
			switch t.Op {
			case expr.OpAdd:
				acc = e.add(acc, v)
			case expr.OpAnd:
				acc &= v
			default:
				acc |= v
			}
		}
		return acc
	case expr.OpNot:
		return 1 - e.eval(t.Args[0])
	case expr.OpNeg:
		return e.sub(0, e.eval(t.Args[0]))
	case expr.OpIte:
		c, a, b := e.eval(t.Args[0]), e.eval(t.Args[1]), e.eval(t.Args[2])
		if c == 0 {
			a = b
		}
		if t.Sort == expr.SortInt {
			e.defaulted(a)
		}
		return a
	}
	a, b := e.eval(t.Args[0]), e.eval(t.Args[1])
	switch t.Op {
	case expr.OpSub:
		return e.sub(a, b)
	case expr.OpMul:
		hi, lo := bits.Mul64(abs64(a), abs64(b))
		e.bad = e.bad || hi != 0 || lo > math.MaxInt64
		if (a < 0) != (b < 0) {
			return -int64(lo)
		}
		return int64(lo)
	case expr.OpDiv, expr.OpRem:
		if b == 0 || (a == math.MinInt64 && b == -1) {
			e.bad = true
			return 0
		}
		q, r := a/b, a%b
		e.defaulted(q)
		e.defaulted(r)
		if t.Op == expr.OpDiv {
			return q
		}
		return r
	case expr.OpEq:
		return b2i(a == b)
	case expr.OpNe:
		return b2i(a != b)
	case expr.OpLt:
		return b2i(a < b)
	case expr.OpLe:
		return b2i(a <= b)
	case expr.OpGt:
		return b2i(a > b)
	case expr.OpGe:
		return b2i(a >= b)
	case expr.OpImplies:
		return b2i(a == 0 || b != 0)
	}
	e.bad = true
	return 0
}

// defaulted checks a value the solver holds in a variable bounded by
// DefaultBounds: an unbounded integer variable or an auxiliary one.
func (e *exactEval) defaulted(v int64) {
	e.bad = e.bad || !e.def.Contains(v)
}

func (e *exactEval) add(a, b int64) int64 {
	c := a + b
	e.bad = e.bad || (b > 0 && c < a) || (b < 0 && c > a)
	return c
}

func (e *exactEval) sub(a, b int64) int64 {
	c := a - b
	e.bad = e.bad || (b < 0 && c < a) || (b > 0 && c > a)
	return c
}

func abs64(a int64) uint64 {
	if a < 0 {
		return uint64(-a) // −MinInt64 wraps, and uint64 reads it as 2^63
	}
	return uint64(a)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
