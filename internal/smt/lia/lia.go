// Package lia decides conjunctions of (quasi-)linear integer arithmetic
// constraints over bounded variables and produces models.
//
// The decision procedure layers:
//
//  1. interval bound propagation (cheap pruning and many UNSAT answers),
//  2. enumeration of small-domain variables occurring in nonlinear
//     monomials (patch parameters have box bounds, so products such as
//     x*a become linear after enumerating a),
//  3. a Fourier–Motzkin rational relaxation, exact on overflow-checked
//     int64 rows and redone on big.Rat rows for the calls that overflow
//     them, and
//  4. branch-and-bound on fractional sample components and violated
//     disequalities.
//
// Every variable must be bounded (program integers are 32-bit, patch
// parameters live in boxes), which makes the procedure a complete decision
// procedure for the fragment the repair system generates.
package lia

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"cpr/internal/interval"
)

// Rel is a constraint relation.
type Rel uint8

// Constraint relations: Σ terms ⋈ K.
const (
	RelLe Rel = iota // Σ ≤ K
	RelEq            // Σ = K
	RelNe            // Σ ≠ K
)

func (r Rel) String() string {
	switch r {
	case RelLe:
		return "<="
	case RelEq:
		return "="
	case RelNe:
		return "!="
	}
	return "?"
}

// Term is a monomial with an integer coefficient: Coef · Π Vars. Coef is
// nonzero (bound propagation divides by it). Vars is sorted and non-empty;
// repeated names denote powers.
type Term struct {
	Coef int64
	Vars []string
}

// Constraint is Σ Terms ⋈ K.
type Constraint struct {
	Terms []Term
	K     int64
	Rel   Rel
}

// String renders the constraint for diagnostics.
func (c Constraint) String() string {
	var b strings.Builder
	for i, t := range c.Terms {
		if i > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%d·%s", t.Coef, strings.Join(t.Vars, "·"))
	}
	if len(c.Terms) == 0 {
		b.WriteString("0")
	}
	fmt.Fprintf(&b, " %s %d", c.Rel, c.K)
	return b.String()
}

// Problem is a conjunction of constraints plus finite bounds for every
// variable that occurs. Variables present in Bounds but not in any
// constraint are still assigned in the model.
type Problem struct {
	Cons   []Constraint
	Bounds map[string]interval.Interval
}

// Status is a solver verdict.
type Status int8

// Verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Result carries the verdict and, when Sat, a model.
type Result struct {
	Status Status
	Model  map[string]int64
}

// Options tunes the solver.
type Options struct {
	// EnumLimit bounds the domain size of a variable enumerated to
	// linearize nonlinear monomials. Default 4096.
	EnumLimit int64
	// MaxSteps bounds total search nodes. Default 200000.
	MaxSteps int
	// MaxConstraints bounds the constraint count during FM elimination.
	// Default 200000.
	MaxConstraints int
	// Stop, when non-nil, is polled periodically inside the
	// branch-and-bound/enumeration loop; a true return aborts the query
	// with ErrBudget. The SMT layer uses it to stop a query with its run.
	Stop func() bool
}

func (o Options) withDefaults() Options {
	if o.EnumLimit == 0 {
		o.EnumLimit = 4096
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 200000
	}
	if o.MaxConstraints == 0 {
		o.MaxConstraints = 200000
	}
	return o
}

// ErrBudget is returned when the solver exceeds its resource limits.
var ErrBudget = errors.New("lia: resource budget exhausted")

// ErrUnbounded is returned when a variable lacks bounds.
var ErrUnbounded = errors.New("lia: unbounded variable")

type solver struct {
	opts  Options
	steps int
	fm    fm64
	// exact sends every elimination to the big.Rat rows (the reference in
	// tests); fallbacks counts the eliminations that went there.
	exact     bool
	fallbacks int
}

// Solve decides the problem. It returns ErrBudget when limits are hit and
// ErrUnbounded when a constraint mentions a variable missing from Bounds.
// Solve never writes into p.Cons or the constraints it holds: every derived
// constraint is a new value, so callers may share and memoize them.
func Solve(p Problem, opts Options) (Result, error) {
	return (&solver{opts: opts.withDefaults()}).solveProblem(p, make(map[string]interval.Interval, len(p.Bounds)))
}

// solveProblem is Solve with the bound-propagation map supplied: an empty
// map the solve fills from p.Bounds and then tightens.
func (s *solver) solveProblem(p Problem, bounds map[string]interval.Interval) (Result, error) {
	for _, c := range p.Cons {
		for _, t := range c.Terms {
			for _, v := range t.Vars {
				if _, ok := p.Bounds[v]; !ok {
					return Result{}, fmt.Errorf("%w: %s", ErrUnbounded, v)
				}
			}
		}
	}
	for v, iv := range p.Bounds {
		if iv.IsEmpty() {
			return Result{Status: Unsat}, nil
		}
		bounds[v] = iv
	}
	res, err := s.solve(p.Cons, bounds)
	if err != nil {
		return Result{}, err
	}
	if res.Status == Sat {
		// Assign variables that never occurred in constraints.
		for v, iv := range p.Bounds {
			if _, ok := res.Model[v]; !ok {
				res.Model[v] = clampToward(0, iv)
			}
		}
	}
	return res, nil
}

func clampToward(pref int64, iv interval.Interval) int64 {
	if pref < iv.Lo {
		return iv.Lo
	}
	if pref > iv.Hi {
		return iv.Hi
	}
	return pref
}

func (s *solver) step() error {
	s.steps++
	if s.steps > s.opts.MaxSteps {
		return fmt.Errorf("%w: %d search steps", ErrBudget, s.steps-1)
	}
	if s.opts.Stop != nil && s.steps%256 == 0 && s.opts.Stop() {
		return fmt.Errorf("%w: cancelled after %d search steps", ErrBudget, s.steps)
	}
	return nil
}

// ---- saturating interval arithmetic -------------------------------------

const (
	satMax = math.MaxInt64 / 4 // headroom so sums of two sat values stay exact
	satMin = -satMax
)

func satAdd(a, b int64) int64 {
	c := a + b
	if c > satMax {
		return satMax
	}
	if c < satMin {
		return satMin
	}
	return c
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	c := a * b
	if a == c/b && c <= satMax && c >= satMin {
		return c
	}
	if (a > 0) == (b > 0) {
		return satMax
	}
	return satMin
}

func clampIv(iv interval.Interval) interval.Interval {
	if iv.Lo < satMin {
		iv.Lo = satMin
	}
	if iv.Hi > satMax {
		iv.Hi = satMax
	}
	return iv
}

func mulIv(a, b interval.Interval) interval.Interval {
	p1 := satMul(a.Lo, b.Lo)
	p2 := satMul(a.Lo, b.Hi)
	p3 := satMul(a.Hi, b.Lo)
	p4 := satMul(a.Hi, b.Hi)
	lo, hi := p1, p1
	for _, p := range []int64{p2, p3, p4} {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	return interval.Interval{Lo: lo, Hi: hi}
}

// monoRange returns the interval of a monomial under bounds.
func monoRange(vars []string, bounds map[string]interval.Interval) interval.Interval {
	iv := interval.Point(1)
	for _, v := range vars {
		iv = mulIv(iv, clampIv(bounds[v]))
	}
	return iv
}

// termRange returns the interval of Coef·mono.
func termRange(t Term, bounds map[string]interval.Interval) interval.Interval {
	return mulIv(interval.Point(t.Coef), monoRange(t.Vars, bounds))
}

// ---- main recursive solve ------------------------------------------------

func (s *solver) solve(cons []Constraint, bounds map[string]interval.Interval) (Result, error) {
	if err := s.step(); err != nil {
		return Result{}, err
	}
	cons, st := propagate(cons, bounds)
	if st == Unsat {
		return Result{Status: Unsat}, nil
	}
	// Enumerate a variable appearing in nonlinear monomials, if any.
	if v, ok := pickNonlinearVar(cons, bounds); ok {
		iv := bounds[v]
		if iv.Count() > s.opts.EnumLimit {
			return Result{}, fmt.Errorf("%w: domain of %s too large (%d) to linearize", ErrBudget, v, iv.Count())
		}
		for val := iv.Lo; ; val++ {
			if err := s.step(); err != nil {
				return Result{}, err
			}
			sub := substitute(cons, v, val)
			nb := copyBounds(bounds)
			nb[v] = interval.Point(val)
			res, err := s.solve(sub, nb)
			if err != nil {
				return Result{}, err
			}
			if res.Status == Sat {
				res.Model[v] = val
				return res, nil
			}
			if val == iv.Hi {
				break
			}
		}
		return Result{Status: Unsat}, nil
	}
	return s.solveLinear(cons, bounds)
}

// pickNonlinearVar returns a variable occurring in a monomial of degree
// ≥ 2, preferring the smallest domain.
func pickNonlinearVar(cons []Constraint, bounds map[string]interval.Interval) (string, bool) {
	best := ""
	var bestCount int64
	for _, c := range cons {
		for _, t := range c.Terms {
			if len(t.Vars) < 2 {
				continue
			}
			for _, v := range t.Vars {
				cnt := bounds[v].Count()
				if best == "" || cnt < bestCount {
					best, bestCount = v, cnt
				}
			}
		}
	}
	return best, best != ""
}

// substitute fixes v := val in all constraints.
func substitute(cons []Constraint, v string, val int64) []Constraint {
	out := make([]Constraint, 0, len(cons))
	for _, c := range cons {
		nc := Constraint{K: c.K, Rel: c.Rel}
		for _, t := range c.Terms {
			coef := t.Coef
			var rest []string
			for _, tv := range t.Vars {
				if tv == v {
					coef = satMul(coef, val)
				} else {
					rest = append(rest, tv)
				}
			}
			if len(rest) == 0 {
				nc.K -= coef // constant moves to the right-hand side
				continue
			}
			nc.Terms = append(nc.Terms, Term{Coef: coef, Vars: rest})
		}
		nc = combineLike(nc)
		out = append(out, nc)
	}
	return out
}

// combineLike merges terms with identical monomials and drops zeros.
func combineLike(c Constraint) Constraint {
	byKey := make(map[string]*Term)
	var order []string
	for _, t := range c.Terms {
		k := strings.Join(t.Vars, "\x00")
		if e, ok := byKey[k]; ok {
			e.Coef += t.Coef
		} else {
			nt := t
			byKey[k] = &nt
			order = append(order, k)
		}
	}
	out := Constraint{K: c.K, Rel: c.Rel}
	for _, k := range order {
		if byKey[k].Coef != 0 {
			out.Terms = append(out.Terms, *byKey[k])
		}
	}
	return out
}

func copyBounds(b map[string]interval.Interval) map[string]interval.Interval {
	c := make(map[string]interval.Interval, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}

// ---- bound propagation ----------------------------------------------------

// propagate tightens bounds from degree-1 terms and evaluates ground
// constraints. It mutates bounds in place and may drop constraints that
// became trivially true. Returns Unsat when a domain empties or a ground
// constraint fails.
func propagate(cons []Constraint, bounds map[string]interval.Interval) ([]Constraint, Status) {
	for pass := 0; pass < 64; pass++ {
		changed := false
		kept := cons[:0:0]
		for _, c := range cons {
			if len(c.Terms) == 0 {
				ok := true
				switch c.Rel {
				case RelLe:
					ok = 0 <= c.K
				case RelEq:
					ok = c.K == 0
				case RelNe:
					ok = c.K != 0
				}
				if !ok {
					return nil, Unsat
				}
				continue // trivially true: drop
			}
			// Whole-constraint range check.
			total := interval.Point(0)
			for _, t := range c.Terms {
				r := termRange(t, bounds)
				total = interval.Interval{Lo: satAdd(total.Lo, r.Lo), Hi: satAdd(total.Hi, r.Hi)}
			}
			switch c.Rel {
			case RelLe:
				if total.Lo > c.K {
					return nil, Unsat
				}
				if total.Hi <= c.K {
					continue // always true: drop
				}
			case RelEq:
				if total.Lo > c.K || total.Hi < c.K {
					return nil, Unsat
				}
			case RelNe:
				if total.Lo == c.K && total.Hi == c.K {
					return nil, Unsat
				}
				if !total.Contains(c.K) {
					continue // always true: drop
				}
			}
			kept = append(kept, c)
			if c.Rel == RelNe {
				continue // no bound tightening from disequalities here
			}
			// Tighten each degree-1 variable.
			for i, t := range c.Terms {
				if len(t.Vars) != 1 {
					continue
				}
				v := t.Vars[0]
				rest := interval.Point(0)
				for j, u := range c.Terms {
					if j == i {
						continue
					}
					r := termRange(u, bounds)
					rest = interval.Interval{Lo: satAdd(rest.Lo, r.Lo), Hi: satAdd(rest.Hi, r.Hi)}
				}
				// Coef·v ≤ K − rest.Lo  (for ≤ and =)
				// Coef·v ≥ K − rest.Hi  (for = only)
				iv := bounds[v]
				upper := satAdd(c.K, -rest.Lo)
				if t.Coef > 0 {
					hi := floorDiv(upper, t.Coef)
					if hi < iv.Hi {
						iv.Hi = hi
						changed = true
					}
				} else {
					lo := ceilDiv(upper, t.Coef)
					if lo > iv.Lo {
						iv.Lo = lo
						changed = true
					}
				}
				if c.Rel == RelEq {
					lower := satAdd(c.K, -rest.Hi)
					if t.Coef > 0 {
						lo := ceilDiv(lower, t.Coef)
						if lo > iv.Lo {
							iv.Lo = lo
							changed = true
						}
					} else {
						hi := floorDiv(lower, t.Coef)
						if hi < iv.Hi {
							iv.Hi = hi
							changed = true
						}
					}
				}
				if iv.IsEmpty() {
					return nil, Unsat
				}
				bounds[v] = iv
			}
		}
		cons = kept
		if !changed {
			break
		}
	}
	return cons, Unknown
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}

// Verify replays a model against a problem: every variable must lie within
// its bounds and every constraint must hold under direct evaluation. It is
// the LIA tier's verdict-validation hook (paranoid-mode defense in depth):
// a false return means the arithmetic procedure produced an assignment
// that does not satisfy its own constraint system. Variables absent from
// the model fail verification — a sat answer must assign everything.
func Verify(p Problem, model map[string]int64) bool {
	for name, iv := range p.Bounds {
		v, ok := model[name]
		if !ok || v < iv.Lo || v > iv.Hi {
			return false
		}
	}
	for _, c := range p.Cons {
		var sum int64
		for _, t := range c.Terms {
			prod := t.Coef
			for _, name := range t.Vars {
				v, ok := model[name]
				if !ok {
					return false
				}
				prod *= v
			}
			sum += prod
		}
		switch c.Rel {
		case RelLe:
			if sum > c.K {
				return false
			}
		case RelEq:
			if sum != c.K {
				return false
			}
		case RelNe:
			if sum == c.K {
				return false
			}
		}
	}
	return true
}
