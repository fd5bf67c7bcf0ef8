package lia

import (
	"fmt"

	"cpr/internal/interval"
)

// Box is a reusable bounds environment for deciding many constraint
// conjunctions over the same variable domains — the shape of the DPLL(T)
// theory loop, where every round re-checks a different support set under
// one bounds box. A Box validates and stores the domains once and reuses
// its bound-propagation scratch map across Solve calls, so the per-query
// cost is the solve itself rather than map rebuilding and re-validation.
//
// A Box is not safe for concurrent use; the incremental SMT context owns
// one per bounds box.
type Box struct {
	bounds  map[string]interval.Interval
	scratch map[string]interval.Interval
	empty   bool
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
	if iv.IsEmpty() {
		b.empty = true
	}
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
	for _, c := range cons {
		for _, t := range c.Terms {
			for _, v := range t.Vars {
				if !b.Has(v) {
					return Result{}, fmt.Errorf("%w: %s", ErrUnbounded, v)
				}
			}
		}
	}
	if b.empty {
		return Result{Status: Unsat}, nil
	}
	if b.scratch == nil {
		b.scratch = make(map[string]interval.Interval, len(b.bounds))
	} else {
		clear(b.scratch)
	}
	for v, iv := range b.bounds {
		b.scratch[v] = iv
	}
	s := &solver{opts: opts.withDefaults()}
	res, err := s.solve(cons, b.scratch)
	if err != nil {
		return Result{}, err
	}
	if res.Status == Sat {
		// Assign variables that never occurred in constraints.
		for v, iv := range b.bounds {
			if _, ok := res.Model[v]; !ok {
				res.Model[v] = clampToward(0, iv)
			}
		}
	}
	return res, nil
}
