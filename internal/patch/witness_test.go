package patch

import (
	"fmt"
	"math/rand"
	"testing"

	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/smt"
)

// oracleCase is one random refinement problem over inputs x, y ∈ [-3, 3]
// and one parameter a: a linear template at one or two hole hits, a path
// constraint and a specification, all without division (the solver leaves
// a zero divisor's quotient free, so expr.Eval is not its reference there).
type oracleCase struct {
	p           *Patch
	holes       []Hole
	phi, sigma  *expr.Term
	inputBounds map[string]interval.Interval
	region      interval.Region
	desc        string
}

func randLin(rng *rand.Rand, vars ...*expr.Term) *expr.Term {
	parts := []*expr.Term{expr.Int(int64(rng.Intn(7) - 3))}
	for _, v := range vars {
		parts = append(parts, expr.Mul(expr.Int(int64(rng.Intn(5)-2)), v))
	}
	return expr.Add(parts...)
}

func randCmp(rng *rand.Rand, l, r *expr.Term) *expr.Term {
	switch rng.Intn(5) {
	case 0:
		return expr.Le(l, r)
	case 1:
		return expr.Lt(l, r)
	case 2:
		return expr.Eq(l, r)
	case 3:
		return expr.Ne(l, r)
	default:
		return expr.Ge(l, r)
	}
}

func newOracleCase(rng *rand.Rand) oracleCase {
	boolHole := rng.Intn(2) == 0
	twoHits := rng.Intn(2) == 0
	// The parameter always occurs with a nonzero coefficient.
	ca := expr.Mul(expr.Int([]int64{-2, -1, 1, 2}[rng.Intn(4)]), a)
	var template *expr.Term
	if boolHole {
		template = randCmp(rng, expr.Add(randLin(rng, x, y), ca), expr.Int(int64(rng.Intn(5)-2)))
		if rng.Intn(3) == 0 {
			template = expr.Or(template, randCmp(rng, randLin(rng, x, y), expr.Int(0)))
		}
	} else {
		template = expr.Add(randLin(rng, x, y), ca)
	}
	lo := int64(rng.Intn(5) - 6)
	hi := lo + int64(rng.Intn(10)+2)
	p := New(1, template, map[string]interval.Interval{"a": interval.New(lo, hi)})
	outVar := func(i int) *expr.Term {
		name := fmt.Sprintf("patch!out!%d", i)
		if boolHole {
			return expr.BoolVar(name)
		}
		return expr.IntVar(name)
	}
	o0 := outVar(0)
	holes := []Hole{p.Instantiate(o0, map[string]*expr.Term{"x": x, "y": y})}
	outs := []*expr.Term{o0}
	if twoHits {
		// The second hit sees x updated from the first hit's output.
		var x1 *expr.Term
		if boolHole {
			x1 = expr.Ite(o0, expr.Add(x, expr.Int(1)), expr.Sub(x, expr.Int(1)))
		} else {
			x1 = expr.Add(o0, expr.Int(int64(rng.Intn(3)-1)))
		}
		o1 := outVar(1)
		holes = append(holes, p.Instantiate(o1, map[string]*expr.Term{"x": x1, "y": y}))
		outs = append(outs, o1)
	}
	// φ: the path's branch outcomes plus one input constraint; σ over the
	// inputs and the hole outputs.
	parts := []*expr.Term{randCmp(rng, randLin(rng, x, y), expr.Int(int64(rng.Intn(5)-2)))}
	var sigma *expr.Term
	if boolHole {
		for _, o := range outs {
			if rng.Intn(2) == 0 {
				parts = append(parts, o)
			} else {
				parts = append(parts, expr.Not(o))
			}
		}
		sigma = randCmp(rng, randLin(rng, x, y), expr.Int(int64(rng.Intn(5)-2)))
		if rng.Intn(2) == 0 {
			sigma = expr.Or(sigma, outs[len(outs)-1])
		}
	} else {
		last := outs[len(outs)-1]
		parts = append(parts, randCmp(rng, randLin(rng, x, last), expr.Int(int64(rng.Intn(9)-4))))
		sigma = randCmp(rng, randLin(rng, x, y, last), expr.Int(int64(rng.Intn(5)-2)))
	}
	region := p.Constraint
	if rng.Intn(3) == 0 { // sometimes start from a fragmented region
		region = region.SubtractPoint([]int64{lo + int64(rng.Intn(int(hi-lo+1)))})
	}
	return oracleCase{
		p: p, holes: holes, phi: expr.And(parts...), sigma: sigma,
		inputBounds: map[string]interval.Interval{"x": interval.New(-3, 3), "y": interval.New(-3, 3)},
		region:      region,
		desc:        fmt.Sprintf("θ=%v φ=%v σ=%v T=%v hits=%d", template, expr.And(parts...), sigma, region, len(holes)),
	}
}

// evalAt evaluates φ ∧ ¬σ and φ ∧ σ at one input and parameter value,
// computing the hole outputs from their definitions in hit order.
func (c oracleCase) evalAt(env expr.Model) (fail, pass bool) {
	for _, h := range c.holes {
		v, err := expr.Eval(h.Def, env)
		if err != nil {
			panic(err)
		}
		env[h.Out.Name] = v
	}
	phi, err1 := expr.EvalBool(c.phi, env)
	sigma, err2 := expr.EvalBool(c.sigma, env)
	if err1 != nil || err2 != nil {
		panic(fmt.Sprint(err1, err2))
	}
	return phi && !sigma, phi && sigma
}

// expected enumerates every (input, parameter) pair: the refined region is
// the parameter values no input drives into the violation, or empty when
// σ is satisfiable on the path but no parameter value lets any input pass.
func (c oracleCase) expected(solver *smt.Solver) (interval.Region, error) {
	var kept []interval.Box
	anyPass := false
	c.region.Points(func(pt []int64) bool {
		q := pt[0]
		violated := false
		for xv := int64(-3); xv <= 3; xv++ {
			for yv := int64(-3); yv <= 3; yv++ {
				fail, pass := c.evalAt(expr.Model{"x": xv, "y": yv, "a": q})
				violated = violated || fail
				anyPass = anyPass || pass
			}
		}
		if !violated {
			kept = append(kept, interval.Box{interval.Point(q)})
		}
		return true
	})
	if !anyPass {
		// ωpass1 leaves the hole outputs free, beyond this enumeration:
		// ask the solver, as Refine does, whether σ is reachable at all.
		pass1, err := solver.IsSat(expr.And(c.phi, c.sigma), c.inputBounds)
		if err != nil {
			return interval.Region{}, err
		}
		if pass1 {
			return interval.EmptyRegion(1), nil
		}
	}
	return interval.Region{Dim: 1, Boxes: kept}.Merge(), nil
}

// TestRefineWitnessOracle checks witness-generalized refinement against
// brute force on random one-parameter problems: Refine with the hole
// definitions returns exactly the enumerated point set, renders exactly
// what the one-point-per-model loop renders, and every value a witness
// sweep removed is violated, by evaluation, on that sweep's model input.
func TestRefineWitnessOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var swept, sweptValues int
	var withQueries, withoutQueries uint64
	for i := 0; i < 400; i++ {
		c := newOracleCase(rng)
		r := &Refiner{Solver: smt.NewSolver(smt.Options{}), InputBounds: c.inputBounds}
		r.observe = func(m expr.Model, removed []int64) {
			swept++
			for _, q := range removed {
				sweptValues++
				env := expr.Model{"x": m["x"], "y": m["y"], "a": q}
				if !c.inputBounds["x"].Contains(env["x"]) || !c.inputBounds["y"].Contains(env["y"]) {
					t.Fatalf("case %d (%s): witness input %v out of bounds", i, c.desc, env)
				}
				if fail, _ := c.evalAt(env); !fail {
					t.Fatalf("case %d (%s): a=%d removed, but witness x=%d y=%d does not violate σ there", i, c.desc, q, env["x"], env["y"])
				}
			}
		}
		got, err := r.Refine(c.phi, Psi(c.holes), c.sigma, c.p, c.region, c.holes)
		if err != nil {
			t.Fatalf("case %d (%s): Refine: %v", i, c.desc, err)
		}
		plain := &Refiner{Solver: smt.NewSolver(smt.Options{}), InputBounds: c.inputBounds}
		loop, err := plain.Refine(c.phi, Psi(c.holes), c.sigma, c.p, c.region, nil)
		if err != nil {
			t.Fatalf("case %d (%s): per-point Refine: %v", i, c.desc, err)
		}
		want, err := c.expected(smt.NewSolver(smt.Options{}))
		if err != nil {
			t.Fatalf("case %d: oracle ωpass1: %v", i, err)
		}
		if got.String() != want.String() {
			t.Fatalf("case %d (%s): Refine = %s, enumeration = %s", i, c.desc, got, want)
		}
		if got.String() != loop.String() {
			t.Fatalf("case %d (%s): Refine = %s, per-point loop = %s", i, c.desc, got, loop)
		}
		withQueries += r.Solver.Stats().SolverQueries
		withoutQueries += plain.Solver.Stats().SolverQueries
	}
	t.Logf("%d sweeps removed %d values; %d queries with the holes, %d without", swept, sweptValues, withQueries, withoutQueries)
	if swept < 40 || withQueries >= withoutQueries {
		t.Fatalf("the oracle barely exercised the sweep: %d sweeps, %d vs %d queries", swept, withQueries, withoutQueries)
	}
}

// TestRefineKeepsOutOfBoundHoleOutputs: out = x·a with x pinned to 2³⁰
// and σ = out ≤ 0. The witness for a = 1 (out = 2³⁰) would also violate σ
// at a ∈ [2, 4], but there out leaves its 32-bit bound, so no solver model
// exists for those values and they must stay.
func TestRefineKeepsOutOfBoundHoleOutputs(t *testing.T) {
	outI := expr.IntVar("patch!out!0")
	p := New(1, expr.Mul(x, a), map[string]interval.Interval{"a": interval.New(-1, 4)})
	holes := []Hole{p.Instantiate(outI, map[string]*expr.Term{"x": expr.Int(1 << 30)})}
	sigma := expr.Le(outI, expr.Int(0))
	r := &Refiner{Solver: smt.NewSolver(smt.Options{})}
	ref, err := r.Refine(expr.True(), Psi(holes), sigma, p, p.Constraint, holes)
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	if got := ref.String(); got != "[-1,0] ∪ [2,4]" {
		t.Fatalf("refined region %s, want [-1,0] ∪ [2,4]", got)
	}
}

// TestWitnessKeepsEvaluationErrors calls the evaluation step directly: a
// value whose hole output divides by zero is kept (the solver leaves that
// quotient free, so a whole-loop test cannot see the rule), as is a value
// whose evaluation overflows int64, while a value the witness genuinely
// violates goes.
func TestWitnessKeepsEvaluationErrors(t *testing.T) {
	outI := expr.IntVar("patch!out!0")
	p := New(1, expr.Div(x, expr.Sub(a, expr.Int(2))), map[string]interval.Interval{"a": interval.New(0, 4)})
	holes := []Hole{p.Instantiate(outI, map[string]*expr.Term{"x": x})}
	region := p.Constraint
	fail := expr.And(Psi(holes), region.ToTerm(p.Params), expr.Not(expr.Le(outI, expr.Int(0))))
	bounds := map[string]interval.Interval{"x": interval.New(5, 5), "a": interval.New(0, 4)}
	w := witness{
		solver: smt.NewSolver(smt.Options{}),
		fail:   fail, bounds: bounds, holes: holes, param: "a",
		env: expr.Model{"x": 5, "a": 3, "patch!out!0": 5},
	}
	if !w.violates(3) || !w.violates(4) {
		t.Fatal("a ∈ {3, 4} gives out = 5 / (a-2) > 0: both violate")
	}
	if w.violates(2) {
		t.Fatal("a = 2 divides by zero: the value must be kept")
	}
	if w.violates(0) || w.violates(1) {
		t.Fatal("a ∈ {0, 1} gives out < 0: σ holds")
	}

	// x·a with x at 2⁶² is 2⁶³ for a = 2, which wraps to −2⁶³ in int64 and
	// would pass for a violation of σ = out ≥ 0.
	big := New(2, expr.Mul(x, a), map[string]interval.Interval{"a": interval.New(-1, 2)})
	bigHoles := []Hole{big.Instantiate(outI, map[string]*expr.Term{"x": expr.Int(1 << 62)})}
	wide := smt.NewSolver(smt.Options{DefaultBounds: interval.New(-1<<63, 1<<63-1)})
	w = witness{
		solver: wide,
		fail:   expr.And(Psi(bigHoles), expr.Lt(outI, expr.Int(0))),
		bounds: map[string]interval.Interval{"a": interval.New(-1, 2)},
		holes:  bigHoles, param: "a",
		env: expr.Model{"a": -1},
	}
	if !w.violates(-1) {
		t.Fatal("a = -1 gives out = -2⁶² < 0: violates")
	}
	if w.violates(1) {
		t.Fatal("a = 1 gives out = 2⁶² ≥ 0: σ holds")
	}
	if w.violates(2) {
		t.Fatal("a = 2 overflows int64: the value must be kept")
	}
}

// TestRefineLargeRegionNotSwept: a one-parameter region above
// MaxCounterexamples is never enumerated, so it refines exactly as the
// one-point-per-model loop does, in as many queries, even though one
// witness (x = 0) violates all three failing values: 2³² points at the
// default cap, and 11 points at a cap of 8. Within the cap, the sweep
// saves two queries.
func TestRefineLargeRegionNotSwept(t *testing.T) {
	outI := expr.IntVar("patch!out!0")
	phi := expr.And(expr.Ge(outI, x), expr.Le(outI, expr.Add(x, expr.Int(2))))
	sigma := expr.Ne(x, expr.Int(0))
	inputs := map[string]interval.Interval{"x": interval.New(0, 0)}
	maxCex := 0
	run := func(lo, hi int64, withHoles bool) (string, uint64) {
		p := New(1, a, map[string]interval.Interval{"a": interval.New(lo, hi)})
		holes := []Hole{p.Instantiate(outI, nil)}
		var given []Hole
		if withHoles {
			given = holes
		}
		r := &Refiner{Solver: smt.NewSolver(smt.Options{}), InputBounds: inputs, MaxCounterexamples: maxCex}
		ref, err := r.Refine(phi, Psi(holes), sigma, p, p.Constraint, given)
		if err != nil {
			t.Fatalf("Refine [%d,%d]: %v", lo, hi, err)
		}
		return ref.String(), r.Solver.Stats().SolverQueries
	}
	lo, hi := int64(-1<<31), int64(1<<31-1) // 2³² points
	wantRegion, wantQueries := run(lo, hi, false)
	if want := "[-2147483648,-1] ∪ [3,2147483647]"; wantRegion != want {
		t.Fatalf("per-point loop gave %s, want %s", wantRegion, want)
	}
	maxCex = 8
	if smallRegion, smallQueries := run(-5, 5, true); smallRegion != "[-5,-1] ∪ [3,5]" || smallQueries != wantQueries {
		t.Fatalf("11 points above a cap of 8: %s in %d queries, want [-5,-1] ∪ [3,5] in %d", smallRegion, smallQueries, wantQueries)
	}
	maxCex = 0
	gotRegion, gotQueries := run(lo, hi, true)
	if gotRegion != wantRegion || gotQueries != wantQueries {
		t.Fatalf("with holes %s in %d queries, per-point %s in %d", gotRegion, gotQueries, wantRegion, wantQueries)
	}
	smallRegion, smallQueries := run(-5, 5, true)
	if smallRegion != "[-5,-1] ∪ [3,5]" || smallQueries != wantQueries-2 {
		t.Fatalf("small region: %s in %d queries, want [-5,-1] ∪ [3,5] in %d", smallRegion, smallQueries, wantQueries-2)
	}
}
