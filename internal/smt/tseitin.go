package smt

import (
	"fmt"

	"cpr/internal/expr"
	"cpr/internal/smt/sat"
)

// encoder Tseitin-encodes the boolean skeleton of a purified, simplified
// formula into a CDCL solver, keeping the map from theory atoms to SAT
// variables for the DPLL(T) loop.
type encoder struct {
	sat      *sat.Solver
	atomVar  map[*expr.Term]int // theory atom → SAT var
	atoms    []*expr.Term       // atoms in first-encounter order (determinism)
	boolVar  map[string]int     // named boolean variable → SAT var
	cache    map[*expr.Term]sat.Lit
	trueLit  sat.Lit
	haveTrue bool
}

func newEncoder() *encoder {
	return &encoder{
		sat:     sat.New(),
		atomVar: make(map[*expr.Term]int),
		boolVar: make(map[string]int),
		cache:   make(map[*expr.Term]sat.Lit),
	}
}

func (e *encoder) constTrue() sat.Lit {
	if !e.haveTrue {
		v := e.sat.NewVar()
		e.trueLit = sat.MkLit(v, false)
		e.sat.AddClause(e.trueLit)
		e.haveTrue = true
	}
	return e.trueLit
}

// encode returns a literal equivalent to the subformula t.
func (e *encoder) encode(t *expr.Term) sat.Lit {
	if l, ok := e.cache[t]; ok {
		return l
	}
	var l sat.Lit
	switch t.Op {
	case expr.OpBoolConst:
		if t.Val == 1 {
			l = e.constTrue()
		} else {
			l = e.constTrue().Not()
		}
	case expr.OpVar:
		v, ok := e.boolVar[t.Name]
		if !ok {
			v = e.sat.NewVar()
			e.boolVar[t.Name] = v
		}
		l = sat.MkLit(v, false)
	case expr.OpLe, expr.OpLt, expr.OpGe, expr.OpGt:
		l = e.atomLit(t)
	case expr.OpEq, expr.OpNe:
		if t.Args[0].Sort == expr.SortInt {
			l = e.atomLit(t)
			break
		}
		// Boolean iff / xor.
		a := e.encode(t.Args[0])
		b := e.encode(t.Args[1])
		g := sat.MkLit(e.sat.NewVar(), false)
		e.sat.AddClause(g.Not(), a.Not(), b)
		e.sat.AddClause(g.Not(), a, b.Not())
		e.sat.AddClause(g, a, b)
		e.sat.AddClause(g, a.Not(), b.Not())
		if t.Op == expr.OpNe {
			g = g.Not()
		}
		l = g
	case expr.OpNot:
		l = e.encode(t.Args[0]).Not()
	case expr.OpAnd:
		lits := make([]sat.Lit, len(t.Args))
		for i, a := range t.Args {
			lits[i] = e.encode(a)
		}
		g := sat.MkLit(e.sat.NewVar(), false)
		long := make([]sat.Lit, 0, len(lits)+1)
		long = append(long, g)
		for _, li := range lits {
			e.sat.AddClause(g.Not(), li)
			long = append(long, li.Not())
		}
		e.sat.AddClause(long...)
		l = g
	case expr.OpOr:
		lits := make([]sat.Lit, len(t.Args))
		for i, a := range t.Args {
			lits[i] = e.encode(a)
		}
		g := sat.MkLit(e.sat.NewVar(), false)
		long := make([]sat.Lit, 0, len(lits)+1)
		long = append(long, g.Not())
		for _, li := range lits {
			e.sat.AddClause(g, li.Not())
			long = append(long, li)
		}
		e.sat.AddClause(long...)
		l = g
	case expr.OpImplies:
		a := e.encode(t.Args[0])
		b := e.encode(t.Args[1])
		g := sat.MkLit(e.sat.NewVar(), false)
		e.sat.AddClause(g.Not(), a.Not(), b)
		e.sat.AddClause(g, a)
		e.sat.AddClause(g, b.Not())
		l = g
	case expr.OpIte: // boolean-sorted ite
		c := e.encode(t.Args[0])
		a := e.encode(t.Args[1])
		b := e.encode(t.Args[2])
		g := sat.MkLit(e.sat.NewVar(), false)
		e.sat.AddClause(g.Not(), c.Not(), a)
		e.sat.AddClause(g.Not(), c, b)
		e.sat.AddClause(g, c.Not(), a.Not())
		e.sat.AddClause(g, c, b.Not())
		l = g
	default:
		panic(fmt.Sprintf("smt: encode: unexpected boolean operator %v in %v", t.Op, t))
	}
	e.cache[t] = l
	return l
}

// suppLit is a theory atom with the polarity the support set requires.
type suppLit struct {
	atom     *expr.Term
	positive bool
}

// litValue reads the truth value of an encoded subformula off a SAT model.
func (e *encoder) litValue(t *expr.Term, model []bool) bool {
	l, ok := e.cache[t]
	if !ok {
		panic("smt: support: unencoded subformula")
	}
	return model[l.Var()] != l.Neg()
}

// support extracts a subset of theory literals that by itself forces the
// root formula true under the given skeleton model: a cheap prime
// implicant. For a true disjunction one true child suffices; for a false
// conjunction one false child suffices; everything else is followed
// according to its model value.
func (e *encoder) support(root *expr.Term, model []bool) []suppLit {
	var out []suppLit
	seen := make(map[*expr.Term]bool)
	var mark func(t *expr.Term)
	mark = func(t *expr.Term) {
		if seen[t] {
			return
		}
		seen[t] = true
		val := e.litValue(t, model)
		switch t.Op {
		case expr.OpBoolConst:
			// constants need no support
		case expr.OpVar:
			// boolean decision variables carry no theory content
		case expr.OpLe, expr.OpLt, expr.OpGe, expr.OpGt:
			out = append(out, suppLit{atom: t, positive: val})
		case expr.OpEq, expr.OpNe:
			if t.Args[0].Sort == expr.SortInt {
				out = append(out, suppLit{atom: t, positive: val})
				return
			}
			mark(t.Args[0])
			mark(t.Args[1])
		case expr.OpNot:
			mark(t.Args[0])
		case expr.OpAnd:
			if val {
				for _, a := range t.Args {
					mark(a)
				}
				return
			}
			for _, a := range t.Args {
				if !e.litValue(a, model) {
					mark(a)
					return
				}
			}
		case expr.OpOr:
			if !val {
				for _, a := range t.Args {
					mark(a)
				}
				return
			}
			for _, a := range t.Args {
				if e.litValue(a, model) {
					mark(a)
					return
				}
			}
		case expr.OpImplies:
			if !val {
				mark(t.Args[0])
				mark(t.Args[1])
				return
			}
			if !e.litValue(t.Args[0], model) {
				mark(t.Args[0])
				return
			}
			mark(t.Args[1])
		case expr.OpIte:
			mark(t.Args[0])
			if e.litValue(t.Args[0], model) {
				mark(t.Args[1])
			} else {
				mark(t.Args[2])
			}
		default:
			panic("smt: support: unexpected operator " + t.Op.String())
		}
	}
	mark(root)
	return out
}

func (e *encoder) atomLit(t *expr.Term) sat.Lit {
	v, ok := e.atomVar[t]
	if !ok {
		v = e.sat.NewVar()
		e.atomVar[t] = v
		e.atoms = append(e.atoms, t)
	}
	return sat.MkLit(v, false)
}
