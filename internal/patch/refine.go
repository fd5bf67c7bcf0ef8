package patch

import (
	"errors"
	"fmt"

	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/smt"
)

// Refiner implements the abstract-patch refinement of the paper's §4
// (Algorithm 3): counterexample-guided shrinking of the parameter
// constraint Tρ until the specification holds for every admissible
// parameter vector on the current path.
type Refiner struct {
	// Solver answers the satisfiability queries.
	Solver *smt.Solver
	// InputBounds bound the program input symbols X (and any auxiliary
	// symbols such as patch outputs default to the solver's 32-bit range).
	InputBounds map[string]interval.Interval
	// MaxCounterexamples bounds refinement iterations per call
	// (default 4096); exceeding it returns ErrRefineBudget. It also bounds
	// the one-parameter regions a witness sweeps.
	MaxCounterexamples int

	// observe, when set, sees each witness sweep's model and the values it
	// removed (tests re-check them).
	observe func(witness expr.Model, removed []int64)
}

// ErrRefineBudget is returned when refinement exceeds its iteration cap.
var ErrRefineBudget = errors.New("patch: refinement budget exhausted")

// Refine is Algorithm 3. Inputs: the path constraint φ (over X and patch
// outputs), the instantiated patch formula ψρ (over X, A, patch outputs),
// the instantiated specification σ (over X and patch outputs), the patch
// (whose Params name the region dimensions), the region Tρ to refine, and
// the holes ψρ was built from (Psi(holes) = ψρ), or nil.
//
// It returns the refined region. An empty region means the patch cannot
// be repaired for this path and must be discarded ("return False").
//
//	ωpass1 = φ ∧ σ             sat?  (the path can satisfy σ at all)
//	ωpass2 = φ ∧ ψρ ∧ Tρ ∧ σ   unsat with ωpass1 sat ⇒ discard
//	ωfail  = φ ∧ ψρ ∧ Tρ ∧ ¬σ  each model yields a counterexample
//	                           parameter point, removed via Split;
//	                           iterate until unsat, then Merge.
//
// Each ωfail model also carries a concrete input x*, which witnesses every
// parameter value it drives into the violation (the repair ↔ reachability
// duality). Given the holes, a one-parameter region of at most
// MaxCounterexamples points is swept after each model: every value that
// x* provably violates goes in the same step, with no solver call (see
// witness). The loop still runs until ωfail is unsat, so the refined
// region is the same point set; in one dimension Merge renders a point
// set one way, so the result is the same region in fewer queries. Regions
// of two or more parameters keep the one-point-per-model loop, because
// their merged boxes depend on the order points are removed in.
func (r *Refiner) Refine(phi, psi, sigma *expr.Term, p *Patch, region interval.Region, holes []Hole) (interval.Region, error) {
	maxCex := r.MaxCounterexamples
	if maxCex == 0 {
		maxCex = 4096
	}
	bounds := r.boundsWith(p, region)

	// Removal of non-refinable constraints (Algorithm 3 lines 1-7).
	pass1, err := r.Solver.IsSat(expr.And(phi, sigma), r.InputBounds)
	if err != nil {
		return interval.Region{}, fmt.Errorf("refine ωpass1: %w", err)
	}
	if pass1 {
		pass2, err := r.Solver.IsSat(expr.And(phi, psi, region.ToTerm(p.Params), sigma), bounds)
		if err != nil {
			return interval.Region{}, fmt.Errorf("refine ωpass2: %w", err)
		}
		if !pass2 {
			return interval.EmptyRegion(region.Dim), nil
		}
	}

	// Counterexample exploration (lines 8-31). Each model of ωfail is one
	// parameter vector admitting a specification violation; Split removes
	// it (3ⁿ−1 regions per removal), a one-parameter region also loses
	// every value the model's input witnesses, and the loop continues on
	// the refined region, which is exactly the recursion of Algorithm 3
	// unrolled: sub-regions incompatible with φ ∧ ψρ never produce
	// counterexamples and are kept as-is (line 24).
	cur := region
	for i := 0; i < maxCex; i++ {
		if cur.IsEmpty() {
			return cur, nil
		}
		if i > 0 && i%16 == 0 {
			// Point removal fragments the region (up to 3ⁿ−1 boxes per
			// counterexample); periodic merging keeps ToTerm formulas and
			// split costs linear instead of quadratic.
			cur = cur.Merge()
		}
		fail := expr.And(phi, psi, cur.ToTerm(p.Params), expr.Not(sigma))
		failBounds := r.boundsWith(p, cur)
		model, found, err := r.Solver.GetModel(fail, failBounds)
		if err != nil {
			return interval.Region{}, fmt.Errorf("refine ωfail: %w", err)
		}
		if !found {
			// No more violations: merge contiguous regions and return.
			return cur.Merge(), nil
		}
		cur = cur.SubtractPoint(p.ParamPoint(model))
		if holes != nil && cur.Dim == 1 && cur.Count() <= int64(maxCex) {
			w := witness{solver: r.Solver, fail: fail, bounds: failBounds, holes: holes, param: p.Params[0], env: model.Clone()}
			var removed []int64
			if cur, removed = w.sweep(cur); removed != nil && r.observe != nil {
				r.observe(model, removed)
			}
		}
	}
	return interval.Region{}, ErrRefineBudget
}

// witness is one ωfail model, re-evaluated at other values of a
// one-parameter region: its input x* stays fixed, the parameter moves.
type witness struct {
	solver *smt.Solver
	fail   *expr.Term                   // the ωfail query the model answered
	bounds map[string]interval.Interval // and the bounds it was posed under
	holes  []Hole
	param  string
	env    expr.Model // a copy of the model; violates overwrites the parameter and hole outputs
}

// violates reports whether x* also drives parameter value q into the
// violation: with the parameter at q and each hole output recomputed from
// its definition in hit order, the assignment must satisfy the very ωfail
// query the solver answered, under its bounds and the solver's semantics
// (smt.Solver.Satisfies). So a value is removed only with a genuine
// counterexample, and one whose evaluation fails — a zero divisor, an
// unbound variable, int64 overflow, a hole output outside its bound — is
// kept for the solver to decide.
func (w *witness) violates(q int64) bool {
	w.env[w.param] = q
	for _, h := range w.holes {
		v, err := expr.Eval(h.Def, w.env)
		if err != nil {
			return false
		}
		w.env[h.Out.Name] = v
	}
	return w.solver.Satisfies(w.fail, w.bounds, w.env)
}

// sweep removes from the one-dimensional region every value the witness
// violates and returns the rest as maximal intervals (the region as it was
// when nothing goes), with the removed values.
func (w *witness) sweep(region interval.Region) (interval.Region, []int64) {
	var kept []interval.Box
	var removed []int64
	region.Points(func(pt []int64) bool {
		q := pt[0]
		switch n := len(kept); {
		case w.violates(q):
			removed = append(removed, q)
		case n > 0 && kept[n-1][0].Hi+1 == q: // Points runs in ascending order
			kept[n-1][0].Hi = q
		default:
			kept = append(kept, interval.Box{interval.Point(q)})
		}
		return true
	})
	if removed == nil {
		return region, nil
	}
	return interval.Region{Dim: 1, Boxes: kept}, removed
}

// boundsWith merges the input bounds with the hull of the region's
// parameter dimensions.
func (r *Refiner) boundsWith(p *Patch, region interval.Region) map[string]interval.Interval {
	bounds := make(map[string]interval.Interval, len(r.InputBounds)+len(p.Params))
	for k, v := range r.InputBounds {
		bounds[k] = v
	}
	for i, name := range p.Params {
		hull := interval.Empty()
		for _, b := range region.Boxes {
			hull = hull.Hull(b[i])
		}
		bounds[name] = hull
	}
	return bounds
}
