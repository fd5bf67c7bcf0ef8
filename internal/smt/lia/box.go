package lia

import "cpr/internal/interval"

// Box is a reusable bounds environment for deciding many constraint
// conjunctions over the same variable domains — the shape of the DPLL(T)
// theory loop, where every round re-checks a different support set under
// one bounds box. A Box stores the domains once and reuses its
// bound-propagation scratch map across Solve calls, so the per-query cost
// is the solve itself rather than map rebuilding.
//
// A Box is not safe for concurrent use; the incremental SMT context owns
// one per bounds box.
type Box struct {
	bounds  map[string]interval.Interval
	scratch map[string]interval.Interval
}

// NewBox returns a box over a copy of the given domains.
func NewBox(bounds map[string]interval.Interval) *Box {
	b := &Box{bounds: make(map[string]interval.Interval, len(bounds))}
	for v, iv := range bounds {
		b.Extend(v, iv)
	}
	return b
}

// Extend adds (or overwrites) one variable's domain. Extending mid-stream
// is how the SMT context grows a box as new formulas introduce variables.
func (b *Box) Extend(name string, iv interval.Interval) {
	b.bounds[name] = iv
}

// Has reports whether the box covers the variable.
func (b *Box) Has(name string) bool {
	_, ok := b.bounds[name]
	return ok
}

// Solve decides the conjunction of cons under the box's domains, exactly
// as Solve(Problem{Cons: cons, Bounds: box domains}, opts) would, reusing
// the box's propagation scratch instead of allocating fresh maps. Like
// Solve, it never writes into cons.
func (b *Box) Solve(cons []Constraint, opts Options) (Result, error) {
	if b.scratch == nil {
		b.scratch = make(map[string]interval.Interval, len(b.bounds))
	}
	clear(b.scratch)
	return (&solver{opts: opts.withDefaults()}).solveProblem(Problem{Cons: cons, Bounds: b.bounds}, b.scratch)
}
