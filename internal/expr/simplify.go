package expr

import "sort"

// Compare imposes the package's deterministic total order on terms,
// returning -1, 0, or +1.
func (t *Term) Compare(u *Term) int {
	switch {
	case t == u:
		return 0
	case t.less(u):
		return -1
	default:
		return 1
	}
}

// LinearSum is a linear combination of atoms: Const + Σ Coeff[a]·a. Atoms
// are integer terms that linearization does not look inside (variables,
// products of variables, divisions, ites, …).
type LinearSum struct {
	Coeff map[*Term]int64
	Const int64
}

// Linearize decomposes an integer term into a linear sum over atoms,
// distributing + - and multiplication by constants.
func Linearize(t *Term) LinearSum {
	s := LinearSum{Coeff: make(map[*Term]int64)}
	linearizeInto(t, 1, &s)
	for a, c := range s.Coeff {
		if c == 0 {
			delete(s.Coeff, a)
		}
	}
	return s
}

func linearizeInto(t *Term, mult int64, s *LinearSum) {
	switch t.Op {
	case OpIntConst:
		s.Const += mult * t.Val
	case OpAdd:
		for _, a := range t.Args {
			linearizeInto(a, mult, s)
		}
	case OpSub:
		linearizeInto(t.Args[0], mult, s)
		linearizeInto(t.Args[1], -mult, s)
	case OpNeg:
		linearizeInto(t.Args[0], -mult, s)
	case OpMul:
		a, b := t.Args[0], t.Args[1]
		switch {
		case a.Op == OpIntConst:
			linearizeInto(b, mult*a.Val, s)
		case b.Op == OpIntConst:
			linearizeInto(a, mult*b.Val, s)
		default:
			s.Coeff[t] += mult
		}
	default:
		s.Coeff[t] += mult
	}
}

// SortedAtoms returns the atoms of the sum in the deterministic term order.
func (s LinearSum) SortedAtoms() []*Term {
	atoms := make([]*Term, 0, len(s.Coeff))
	for a := range s.Coeff {
		atoms = append(atoms, a)
	}
	sort.Slice(atoms, func(i, j int) bool { return atoms[i].less(atoms[j]) })
	return atoms
}

// Term rebuilds the sum as a term.
func (s LinearSum) Term() *Term {
	parts := make([]*Term, 0, len(s.Coeff)+1)
	for _, a := range s.SortedAtoms() {
		parts = append(parts, Mul(Int(s.Coeff[a]), a))
	}
	if s.Const != 0 || len(parts) == 0 {
		parts = append(parts, Int(s.Const))
	}
	return Add(parts...)
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// Simplify rewrites t bottom-up through the simplifying constructors and
// normalizes integer comparisons to a canonical linear form:
//
//	Σ cᵢ·aᵢ ≤ k        (for < ≤ > ≥, gcd-reduced, constant on the right)
//	Σ cᵢ·aᵢ = k / ≠ k  (sign-normalized, gcd-reduced)
//
// Structurally distinct but semantically identical atoms such as x+1 > y
// and x >= y therefore intern to the same term.
//
// The result is memoized on t: terms are immutable and interned, so each
// distinct term is simplified once per process, and the path constraints,
// patch formulas and specifications a refinement loop repeats in every
// query cost a pointer load after the first.
func Simplify(t *Term) *Term {
	switch t.Op {
	case OpIntConst, OpBoolConst, OpVar:
		return t
	}
	if r := t.simplified.Load(); r != nil {
		return r
	}
	args := make([]*Term, len(t.Args))
	for i, a := range t.Args {
		args[i] = Simplify(a)
	}
	r := Rebuild(t.Op, args)
	if isIntCmp(r) {
		r = normalizeCmp(r)
	}
	t.simplified.Store(r)
	return r
}

func isIntCmp(t *Term) bool {
	switch t.Op {
	case OpLt, OpLe, OpGt, OpGe:
		return true
	case OpEq, OpNe:
		return t.Args[0].Sort == SortInt
	}
	return false
}

// normalizeCmp canonicalizes an integer comparison. See Simplify.
func normalizeCmp(t *Term) *Term {
	l := Linearize(t.Args[0])
	r := Linearize(t.Args[1])
	// diff := lhs - rhs
	diff := LinearSum{Coeff: make(map[*Term]int64), Const: l.Const - r.Const}
	for a, c := range l.Coeff {
		diff.Coeff[a] += c
	}
	for a, c := range r.Coeff {
		diff.Coeff[a] -= c
	}
	for a, c := range diff.Coeff {
		if c == 0 {
			delete(diff.Coeff, a)
		}
	}
	op := t.Op
	// Reduce > and ≥ to < and ≤ by negating the sum.
	if op == OpGt || op == OpGe {
		for a := range diff.Coeff {
			diff.Coeff[a] = -diff.Coeff[a]
		}
		diff.Const = -diff.Const
		if op == OpGt {
			op = OpLt
		} else {
			op = OpLe
		}
	}
	// Reduce < to ≤ over the integers: s < 0 ⇔ s + 1 ≤ 0.
	if op == OpLt {
		diff.Const++
		op = OpLe
	}
	if len(diff.Coeff) == 0 {
		switch op {
		case OpLe:
			return Bool(diff.Const <= 0)
		case OpEq:
			return Bool(diff.Const == 0)
		case OpNe:
			return Bool(diff.Const != 0)
		}
	}
	// gcd reduction.
	var g int64
	for _, c := range diff.Coeff {
		g = gcd64(g, c)
	}
	k := -diff.Const // move constant to the right: Σ c·a ⋈ k
	if g > 1 {
		switch op {
		case OpLe:
			for a := range diff.Coeff {
				diff.Coeff[a] /= g
			}
			k = floorDiv(k, g)
		case OpEq:
			if k%g != 0 {
				return False()
			}
			for a := range diff.Coeff {
				diff.Coeff[a] /= g
			}
			k /= g
		case OpNe:
			if k%g != 0 {
				return True()
			}
			for a := range diff.Coeff {
				diff.Coeff[a] /= g
			}
			k /= g
		}
	}
	// Sign normalization for = and ≠: leading coefficient positive.
	if op == OpEq || op == OpNe {
		atoms := diff.SortedAtoms()
		if len(atoms) > 0 && diff.Coeff[atoms[0]] < 0 {
			for a := range diff.Coeff {
				diff.Coeff[a] = -diff.Coeff[a]
			}
			k = -k
		}
	}
	diff.Const = 0
	lhs := diff.Term()
	rhs := Int(k)
	switch op {
	case OpLe:
		return mk(OpLe, SortBool, 0, "", lhs, rhs)
	case OpEq:
		return mk(OpEq, SortBool, 0, "", lhs, rhs)
	case OpNe:
		return mk(OpNe, SortBool, 0, "", lhs, rhs)
	}
	panic("expr: normalizeCmp: unreachable")
}
