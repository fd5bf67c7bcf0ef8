package smt

import (
	"fmt"

	"cpr/internal/expr"
	"cpr/internal/smt/lia"
	"cpr/internal/smt/sat"
)

// encoder Tseitin-encodes the boolean skeleton of a purified, simplified
// formula into a CDCL solver, keeping the map from theory atoms to SAT
// variables for the DPLL(T) loop and the memo of their LIA translations.
//
// A Solver owns one encoder for its scratch queries and resets it before
// each one, so the CDCL storage and the maps are reused rather than
// reallocated; the incremental Context owns another that it never resets.
type encoder struct {
	sat     *sat.Solver
	atomVar map[*expr.Term]int // theory atom → SAT var
	atoms   []*expr.Term       // atoms in first-encounter order (determinism)
	boolVar map[string]int     // named boolean variable → SAT var
	nodes   map[*expr.Term]node
	// cons memoizes atomToConstraint per (atom, polarity): the DPLL(T) loop
	// asserts the same atoms round after round, and a solver's queries
	// share most of theirs. reset keeps it: the translation is a pure
	// function of the interned atom, and lia never writes a constraint.
	cons     map[conKey]lia.Constraint
	trueLit  sat.Lit
	haveTrue bool

	// gen stamps the nodes one support traversal has visited; supp is the
	// traversal's reusable output buffer.
	gen  uint32
	supp []suppLit
}

// node is an encoded subformula's literal plus the support traversal's
// visit stamp.
type node struct {
	lit  sat.Lit
	mark uint32
}

// conKey memoizes atom→constraint translation per polarity.
type conKey struct {
	atom *expr.Term
	pos  bool
}

func newEncoder() *encoder {
	return &encoder{
		sat:     sat.New(),
		atomVar: make(map[*expr.Term]int),
		boolVar: make(map[string]int),
		nodes:   make(map[*expr.Term]node),
		cons:    make(map[conKey]lia.Constraint),
	}
}

// reset returns the encoder to the state newEncoder produces, keeping its
// storage and its constraint memo. Every scratch query starts from a reset
// encoder, so it numbers variables and adds clauses exactly as a fresh one
// would.
func (e *encoder) reset() {
	e.sat.Reset()
	clear(e.atomVar)
	clear(e.boolVar)
	clear(e.nodes)
	e.atoms = e.atoms[:0]
	e.trueLit, e.haveTrue = 0, false
}

// constraint returns the LIA constraint of a support literal, translating
// each (atom, polarity) once per encoder lifetime: the lifetime of its
// Solver (one repair job) for the scratch encoder, of its context for the
// incremental one.
func (e *encoder) constraint(sl suppLit) (lia.Constraint, error) {
	k := conKey{atom: sl.atom, pos: sl.positive}
	if con, ok := e.cons[k]; ok {
		return con, nil
	}
	con, err := atomToConstraint(sl.atom, sl.positive)
	if err != nil {
		return lia.Constraint{}, err
	}
	e.cons[k] = con
	return con, nil
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
	if n, ok := e.nodes[t]; ok {
		return n.lit
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
	e.nodes[t] = node{lit: l}
	return l
}

// suppLit is a theory atom with the polarity the support set requires.
type suppLit struct {
	atom     *expr.Term
	positive bool
}

// litValue reads the truth value of an encoded subformula off a SAT model.
func (e *encoder) litValue(t *expr.Term, model []bool) bool {
	n, ok := e.nodes[t]
	if !ok {
		panic("smt: support: unencoded subformula")
	}
	return model[n.lit.Var()] != n.lit.Neg()
}

// support extracts a subset of theory literals that by itself forces the
// root formula true under the given skeleton model: a cheap prime
// implicant. For a true disjunction one true child suffices; for a false
// conjunction one false child suffices; everything else is followed
// according to its model value. The returned slice is reused by the next
// call.
func (e *encoder) support(root *expr.Term, model []bool) []suppLit {
	e.gen++
	if e.gen == 0 { // wrapped: stale stamps could collide, wipe them
		for t, n := range e.nodes {
			e.nodes[t] = node{lit: n.lit}
		}
		e.gen = 1
	}
	e.supp = e.supp[:0]
	e.mark(root, model)
	return e.supp
}

// mark visits t once per support traversal, appending the theory literals
// it needs to e.supp.
func (e *encoder) mark(t *expr.Term, model []bool) {
	n, ok := e.nodes[t]
	if !ok {
		panic("smt: support: unencoded subformula")
	}
	if n.mark == e.gen {
		return
	}
	e.nodes[t] = node{lit: n.lit, mark: e.gen}
	val := model[n.lit.Var()] != n.lit.Neg()
	switch t.Op {
	case expr.OpBoolConst:
		// constants need no support
	case expr.OpVar:
		// boolean decision variables carry no theory content
	case expr.OpLe, expr.OpLt, expr.OpGe, expr.OpGt:
		e.supp = append(e.supp, suppLit{atom: t, positive: val})
	case expr.OpEq, expr.OpNe:
		if t.Args[0].Sort == expr.SortInt {
			e.supp = append(e.supp, suppLit{atom: t, positive: val})
			return
		}
		e.mark(t.Args[0], model)
		e.mark(t.Args[1], model)
	case expr.OpNot:
		e.mark(t.Args[0], model)
	case expr.OpAnd:
		if val {
			for _, a := range t.Args {
				e.mark(a, model)
			}
			return
		}
		for _, a := range t.Args {
			if !e.litValue(a, model) {
				e.mark(a, model)
				return
			}
		}
	case expr.OpOr:
		if !val {
			for _, a := range t.Args {
				e.mark(a, model)
			}
			return
		}
		for _, a := range t.Args {
			if e.litValue(a, model) {
				e.mark(a, model)
				return
			}
		}
	case expr.OpImplies:
		if !val {
			e.mark(t.Args[0], model)
			e.mark(t.Args[1], model)
			return
		}
		if !e.litValue(t.Args[0], model) {
			e.mark(t.Args[0], model)
			return
		}
		e.mark(t.Args[1], model)
	case expr.OpIte:
		e.mark(t.Args[0], model)
		if e.litValue(t.Args[0], model) {
			e.mark(t.Args[1], model)
		} else {
			e.mark(t.Args[2], model)
		}
	default:
		panic("smt: support: unexpected operator " + t.Op.String())
	}
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
