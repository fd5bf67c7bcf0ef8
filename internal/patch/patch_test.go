package patch

import (
	"math"
	"testing"

	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/smt"
)

var (
	x   = expr.IntVar("x")
	y   = expr.IntVar("y")
	a   = expr.IntVar("a")
	b   = expr.IntVar("b")
	out = expr.BoolVar("patch!out!0")
)

func figBounds() map[string]interval.Interval {
	return map[string]interval.Interval{
		"x": interval.New(-100, 100),
		"y": interval.New(-100, 100),
	}
}

// The Figure 1 specification: no divide-by-zero at the bug location,
// σ = x ≠ 0 ∧ y ≠ 0 (the linear form of x·y ≠ 0 over the integers).
func figSpec() *expr.Term {
	return expr.And(expr.Ne(x, expr.Int(0)), expr.Ne(y, expr.Int(0)))
}

func newRefiner() *Refiner {
	return &Refiner{
		Solver:      smt.NewSolver(smt.Options{}),
		InputBounds: figBounds(),
	}
}

func TestNewPatchBasics(t *testing.T) {
	p := New(1, expr.Ge(x, a), map[string]interval.Interval{"a": interval.New(-10, 10)})
	if len(p.Params) != 1 || p.Params[0] != "a" {
		t.Fatalf("params: %v", p.Params)
	}
	if p.CountConcrete() != 21 {
		t.Fatalf("count: %d", p.CountConcrete())
	}
	if p.String() == "" || p.ConstraintTerm().IsFalse() {
		t.Fatal("rendering broken")
	}
	// Parameterless patch counts as one concrete patch.
	c := New(2, expr.Gt(x, expr.Int(0)), nil)
	if c.CountConcrete() != 1 || !c.ConstraintTerm().IsTrue() {
		t.Fatalf("concrete patch: %d %v", c.CountConcrete(), c.ConstraintTerm())
	}
}

func TestFormulaInstantiation(t *testing.T) {
	p := New(1, expr.Ge(x, a), map[string]interval.Interval{"a": interval.New(-10, 10)})
	// Snapshot: at the hole, x had symbolic value x0 + 1.
	snap := map[string]*expr.Term{"x": expr.Add(expr.IntVar("x0"), expr.Int(1))}
	psi := p.Formula(out, snap)
	// ψ must mention x0 and a, not x.
	if expr.ContainsVar(psi, "x") || !expr.ContainsVar(psi, "x0") || !expr.ContainsVar(psi, "a") {
		t.Fatalf("ψ = %v", psi)
	}
	// Parameters must never be substituted, even if a snapshot variable
	// shares the name.
	snap2 := map[string]*expr.Term{"a": expr.Int(9), "x": x}
	psi2 := p.Formula(out, snap2)
	if !expr.ContainsVar(psi2, "a") {
		t.Fatalf("parameter was substituted away: %v", psi2)
	}
}

// figHoles instantiates a Figure 1 patch at the example's one hole hit,
// where x and y still hold the inputs.
func figHoles(p *Patch) []Hole {
	return []Hole{p.Instantiate(out, map[string]*expr.Term{"x": x, "y": y})}
}

// TestFigure1Step2Patch1 reproduces the paper's §2 refinement of patch 1
// (x ≥ a) on input partition P1 (x > 3 ∧ y ≤ 5): the values {5, 6, 7} are
// removed from a ∈ [-10, 7], leaving a ∈ [-10, 4]. The first ωfail model's
// input (x = 4, y = 0) violates all three values, so with the hole
// definition the refinement asks four queries (ωpass1, ωpass2, one model,
// the final unsat) where the one-point-per-model loop asks six.
func TestFigure1Step2Patch1(t *testing.T) {
	phi := expr.And(
		expr.Gt(x, expr.Int(3)),
		expr.Le(y, expr.Int(5)),
		expr.Eq(out, expr.False()), // the crashing path takes the guard's false side
	)
	for _, tc := range []struct {
		name    string
		holes   bool
		queries uint64
	}{{"witness", true, 4}, {"per-point", false, 6}} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(1, expr.Ge(x, a), map[string]interval.Interval{"a": interval.New(-10, 7)})
			holes := figHoles(p)
			r := newRefiner()
			var given []Hole
			if tc.holes {
				given = holes
			}
			ref, err := r.Refine(phi, Psi(holes), figSpec(), p, p.Constraint, given)
			if err != nil {
				t.Fatalf("Refine: %v", err)
			}
			if got := ref.String(); got != "[-10,4]" {
				t.Fatalf("refined region %s, want [-10,4]", got)
			}
			if got := r.Solver.Stats().SolverQueries; got != tc.queries {
				t.Fatalf("%d solver queries, want %d", got, tc.queries)
			}
		})
	}
}

// TestFigure1Step2Patch2: patch 2 (y < b, b ∈ [1, 10]) cannot be violated
// on P1 — the refinement is a no-op.
func TestFigure1Step2Patch2(t *testing.T) {
	p := New(2, expr.Lt(y, b), map[string]interval.Interval{"b": interval.New(1, 10)})
	phi := expr.And(
		expr.Gt(x, expr.Int(3)),
		expr.Le(y, expr.Int(5)),
		expr.Eq(out, expr.False()),
	)
	holes := figHoles(p)
	ref, err := newRefiner().Refine(phi, Psi(holes), figSpec(), p, p.Constraint, holes)
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	if ref.Count() != 10 {
		t.Fatalf("refined count %d, want 10 (unchanged)", ref.Count())
	}
}

// TestFigure1Step3Patch2: on P2 (x ≤ 3 ∧ y > 5) every parameter value of
// patch 2 admits a violation (x = 0), so the region empties: the patch is
// discarded.
func TestFigure1Step3Patch2(t *testing.T) {
	p := New(2, expr.Lt(y, b), map[string]interval.Interval{"b": interval.New(1, 10)})
	phi := expr.And(
		expr.Le(x, expr.Int(3)),
		expr.Gt(y, expr.Int(5)),
		expr.Eq(out, expr.False()),
	)
	holes := figHoles(p)
	ref, err := newRefiner().Refine(phi, Psi(holes), figSpec(), p, p.Constraint, holes)
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	if !ref.IsEmpty() {
		t.Fatalf("patch 2 should be discarded on P2, region %v", ref)
	}
}

// TestFigure1Step3Patch1: on P2, patch 1 (x ≥ a) refines from [-10, 4] to
// [-10, 0].
func TestFigure1Step3Patch1(t *testing.T) {
	p := New(1, expr.Ge(x, a), map[string]interval.Interval{"a": interval.New(-10, 4)})
	phi := expr.And(
		expr.Le(x, expr.Int(3)),
		expr.Gt(y, expr.Int(5)),
		expr.Eq(out, expr.False()),
	)
	holes := figHoles(p)
	ref, err := newRefiner().Refine(phi, Psi(holes), figSpec(), p, p.Constraint, holes)
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	if ref.Count() != 11 { // [-10, 0]
		t.Fatalf("refined count %d (%v), want 11", ref.Count(), ref)
	}
	if ref.Contains([]int64{1}) || !ref.Contains([]int64{0}) {
		t.Fatalf("refined region wrong: %v", ref)
	}
}

// TestFigure1Patch3 reproduces patch 3 (x == a || y == b): on P1 the
// parameter constraint collapses to b = 0 ∧ a ∈ [-10, 10].
func TestFigure1Patch3(t *testing.T) {
	p := New(3, expr.Or(expr.Eq(x, a), expr.Eq(y, b)), map[string]interval.Interval{
		"a": interval.New(-10, 10),
		"b": interval.New(-10, 10),
	})
	// Initial constraint from the paper: (a=7 ∧ b∈[-10,10]) ∨ (b=0 ∧ a∈[-10,10]),
	// as disjoint boxes: a=7×[-10,10] plus b=0 with a≠7.
	p.Constraint = interval.Region{Dim: 2, Boxes: []interval.Box{
		{interval.Point(7), interval.New(-10, 10)},
		{interval.New(-10, 6), interval.Point(0)},
		{interval.New(8, 10), interval.Point(0)},
	}}
	if p.Constraint.Count() != 41 {
		t.Fatalf("initial count %d, want 41", p.Constraint.Count())
	}
	phi := expr.And(
		expr.Gt(x, expr.Int(3)),
		expr.Le(y, expr.Int(5)),
		expr.Eq(out, expr.False()),
	)
	holes := figHoles(p)
	ref, err := newRefiner().Refine(phi, Psi(holes), figSpec(), p, p.Constraint, holes)
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	// Paper: b = 0 ∧ a ∈ [-10, 10] → 21 concrete patches.
	if ref.Count() != 21 {
		t.Fatalf("refined count %d (%v), want 21", ref.Count(), ref)
	}
	if !ref.Contains([]int64{7, 0}) || ref.Contains([]int64{7, 3}) {
		t.Fatalf("refined region wrong: %v", ref)
	}
}

// TestTwoParameterRefineIgnoresHoles: a two-parameter region keeps the
// one-point-per-model loop even when the hole definitions are given, so
// its boxes, and the queries that produced them, match the loop's.
func TestTwoParameterRefineIgnoresHoles(t *testing.T) {
	p := New(3, expr.Or(expr.Eq(x, a), expr.Eq(y, b)), map[string]interval.Interval{
		"a": interval.New(-3, 3),
		"b": interval.New(-3, 3),
	})
	phi := expr.And(expr.Gt(x, expr.Int(3)), expr.Le(y, expr.Int(5)), expr.Eq(out, expr.False()))
	holes := figHoles(p)
	run := func(given []Hole) (string, uint64) {
		r := newRefiner()
		r.observe = func(expr.Model, []int64) { t.Fatal("a two-parameter region was swept") }
		ref, err := r.Refine(phi, Psi(holes), figSpec(), p, p.Constraint, given)
		if err != nil {
			t.Fatalf("Refine: %v", err)
		}
		return ref.String(), r.Solver.Stats().SolverQueries
	}
	gotRegion, gotQueries := run(holes)
	wantRegion, wantQueries := run(nil)
	if gotRegion != wantRegion || gotQueries != wantQueries {
		t.Fatalf("with holes %s in %d queries, without %s in %d", gotRegion, gotQueries, wantRegion, wantQueries)
	}
	if wantQueries < 4 {
		t.Fatalf("only %d queries: the loop removed no point", wantQueries)
	}
}

// TestRefineDiscardsWhenNoParamsWork: ωpass1 sat, ωpass2 unsat ⇒ empty.
func TestRefineDiscardsWhenNoParamsWork(t *testing.T) {
	// Patch: y < b with b ∈ [1,3]; path forces y = 5 and the guard false
	// side... then ψ gives ¬(5 < b) fine; but spec requires y ≠ 5 — no b
	// can help, while the path itself could satisfy σ with a different
	// patch (σ only speaks about x).
	p := New(1, expr.Lt(y, b), map[string]interval.Interval{"b": interval.New(1, 3)})
	phi := expr.And(
		expr.Eq(y, expr.Int(0)),
		expr.Eq(out, expr.True()), // guard true side
	)
	holes := figHoles(p)
	// σ: the guard must not be taken (out = false) — impossible here for
	// any b since y=0 < b for all b ∈ [1,3].
	sigma := expr.Not(out)
	ref, err := newRefiner().Refine(phi, Psi(holes), sigma, p, p.Constraint, holes)
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	if !ref.IsEmpty() {
		t.Fatalf("expected discard, got %v", ref)
	}
}

func TestPoolRankingAndCounts(t *testing.T) {
	bounds := map[string]interval.Interval{"a": interval.New(-10, 10)}
	p1 := New(1, expr.Ge(x, a), bounds)
	p2 := New(2, expr.Lt(x, a), bounds)
	p3 := New(3, expr.Gt(x, expr.Int(0)), nil)
	pool := &Pool{Patches: []*Patch{p1, p2, p3}}
	if pool.CountConcrete() != 43 {
		t.Fatalf("pool count %d, want 43", pool.CountConcrete())
	}
	p2.Score = 10
	p1.Score = 10
	p1.Deletions = 1
	ranked := pool.Ranked()
	if ranked[0].ID != 2 { // same score, fewer deletions wins
		t.Fatalf("ranking: %v", []int{ranked[0].ID, ranked[1].ID, ranked[2].ID})
	}
	pool.Remove(2)
	if pool.Size() != 2 || pool.CountConcrete() != 22 {
		t.Fatalf("after remove: %d %d", pool.Size(), pool.CountConcrete())
	}
	// Parameter ranges as wide as int64 saturate |P| instead of wrapping.
	wide := map[string]interval.Interval{"a": interval.New(0, math.MaxInt64)}
	big := &Pool{Patches: []*Patch{New(4, expr.Ge(x, a), wide), New(5, expr.Lt(x, a), wide)}}
	if big.CountConcrete() != math.MaxInt64 {
		t.Fatalf("wide pool count %d, want saturation at MaxInt64", big.CountConcrete())
	}
	// Clone independence.
	cl := pool.Clone()
	cl.Patches[0].Score = 99
	if pool.Patches[0].Score == 99 {
		t.Fatal("clone shares score state")
	}
}

func TestAnyParams(t *testing.T) {
	p := New(1, expr.Ge(x, a), map[string]interval.Interval{"a": interval.New(3, 5)})
	m, ok := p.AnyParams()
	if !ok || m["a"] < 3 || m["a"] > 5 {
		t.Fatalf("AnyParams: %v %v", m, ok)
	}
	p.Constraint = interval.EmptyRegion(1)
	if _, ok := p.AnyParams(); ok {
		t.Fatal("empty region should have no params")
	}
	c := New(2, expr.Gt(x, expr.Int(0)), nil)
	if m, ok := c.AnyParams(); !ok || len(m) != 0 {
		t.Fatalf("concrete AnyParams: %v %v", m, ok)
	}
}
