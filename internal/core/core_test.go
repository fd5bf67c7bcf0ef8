package core

import (
	"fmt"
	"strings"
	"testing"

	"cpr/internal/concolic"
	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/lang"
	"cpr/internal/lang/interp"
	"cpr/internal/patch"
	"cpr/internal/smt"
	"cpr/internal/synth"
)

// divZeroSubject mirrors the paper's §2 example (CVE-2016-3623): a guard
// must be synthesized so the divisions cannot divide by zero. The correct
// developer patch is x == 0 || y == 0.
const divZeroSubject = `
void main(int x, int y) {
    if (__HOLE__) {
        return;
    }
    __BUG__;
    int c = 100 / x;
    int d = c / y;
}
`

func divZeroJob() Job {
	prog := lang.MustParse(divZeroSubject)
	return Job{
		Program: prog,
		Spec: expr.And(
			expr.Ne(expr.IntVar("x"), expr.Int(0)),
			expr.Ne(expr.IntVar("y"), expr.Int(0)),
		),
		FailingInputs: []map[string]int64{{"x": 7, "y": 0}},
		Components: synth.Components{
			Vars:         map[string]lang.Type{"x": lang.TypeInt, "y": lang.TypeInt},
			Params:       []string{"a", "b"},
			ParamRange:   interval.New(-10, 10),
			Cmp:          []expr.Op{expr.OpEq, expr.OpGe, expr.OpLt},
			Bool:         []expr.Op{expr.OpOr},
			Arith:        []expr.Op{},
			MaxTemplates: 40, // paper-scale pool; keeps the test fast
		},
		InputBounds: map[string]interval.Interval{
			"x": interval.New(-100, 100),
			"y": interval.New(-100, 100),
		},
		Budget: Budget{MaxIterations: 25, ValidationIterations: 8},
	}
}

func devPatchDivZero() *expr.Term {
	return expr.Or(
		expr.Eq(expr.IntVar("x"), expr.Int(0)),
		expr.Eq(expr.IntVar("y"), expr.Int(0)),
	)
}

func TestRepairDivZeroEndToEnd(t *testing.T) {
	job := divZeroJob()
	res, err := Repair(job, Options{})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	st := res.Stats
	if st.PInit == 0 || st.PoolInit == 0 {
		t.Fatalf("empty initial pool: %+v", st)
	}
	if st.PFinal >= st.PInit {
		t.Fatalf("no patch-space reduction: init=%d final=%d", st.PInit, st.PFinal)
	}
	if st.PathsExplored == 0 {
		t.Fatalf("no paths explored: %+v", st)
	}
	// The developer patch must be covered by some surviving patch and
	// ranked near the top.
	solver := smt.NewSolver(smt.Options{})
	rank, found := CorrectPatchRank(solver, res.Ranked, devPatchDivZero(), job.InputBounds)
	if !found {
		for i, p := range res.Ranked {
			if i < 15 {
				t.Logf("rank %d: %s (score %.2f)", i+1, p, p.Score)
			}
		}
		t.Fatalf("correct patch not in final pool (size %d)", res.Pool.Size())
	}
	if rank > 10 {
		t.Errorf("correct patch ranked %d, want top-10", rank)
	}
	t.Logf("reduction %.0f%%, φE=%d φS=%d, correct rank %d, pool %d→%d",
		st.ReductionRatio()*100, st.PathsExplored, st.PathsSkipped, rank, st.PoolInit, st.PoolFinal)
}

// TestRepairedProgramActuallySafe: the top-ranked non-deletion patch must
// make the program crash-free on a grid of inputs.
func TestRepairedProgramActuallySafe(t *testing.T) {
	job := divZeroJob()
	res, err := Repair(job, Options{})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	var best *patch.Patch
	for _, p := range res.Ranked {
		if !p.Expr.IsConst() {
			best = p
			break
		}
	}
	if best == nil {
		t.Fatal("no non-deletion patch survived")
	}
	params, ok := best.AnyParams()
	if !ok {
		t.Fatalf("no parameters for %s", best)
	}
	for x := int64(-3); x <= 3; x++ {
		for y := int64(-3); y <= 3; y++ {
			out := interp.Run(job.Program, map[string]int64{"x": x, "y": y}, interp.Options{
				Hole:       best.Expr,
				HoleParams: params,
			})
			if out.Crashed() {
				t.Fatalf("patched program crashed at x=%d y=%d with %s %v", x, y, best, params)
			}
		}
	}
}

// TestValidationReproducesPaperInitialConstraints checks that the pinned
// validation phase shrinks the Figure-1 templates exactly as the paper's
// step I table shows.
func TestValidationReproducesPaperInitialConstraints(t *testing.T) {
	job := divZeroJob()
	job.Budget.MaxIterations = 1 // effectively validation only
	res, err := Repair(job, Options{})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	x, y := expr.IntVar("x"), expr.IntVar("y")
	a, b := expr.IntVar("a"), expr.IntVar("b")
	find := func(tpl *expr.Term) *patch.Patch {
		c := expr.Simplify(tpl)
		for _, p := range res.Pool.Patches {
			if p.Expr == c {
				return p
			}
		}
		return nil
	}
	// Paper step I: x ≥ a with a ∈ [-10, 7] (18 patches).
	if p := find(expr.Ge(x, a)); p == nil || p.CountConcrete() != 18 {
		t.Errorf("x >= a: %v (want 18 concrete)", p)
	}
	// y < b with b ∈ [1, 10] (10 patches).
	if p := find(expr.Lt(y, b)); p == nil || p.CountConcrete() != 10 {
		t.Errorf("y < b: %v (want 10 concrete)", p)
	}
	// x == a || y == b with (a=7 ∧ b any) ∨ (b=0 ∧ a any): 41 patches.
	if p := find(expr.Or(expr.Eq(x, a), expr.Eq(y, b))); p == nil || p.CountConcrete() != 41 {
		t.Errorf("x == a || y == b: %v (want 41 concrete)", p)
	}
	// The contradiction patch (false) cannot repair the failing test and
	// must be gone; the tautology patch (true) survives.
	if find(expr.False()) != nil {
		t.Error("patch `false` survived validation")
	}
	if find(expr.True()) == nil {
		t.Error("patch `true` should survive (deletion patches stay in the pool)")
	}
}

func TestDeletionPatchDeprioritized(t *testing.T) {
	job := divZeroJob()
	res, err := Repair(job, Options{})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	// true survives but must rank below the top.
	for i, p := range res.Ranked {
		if p.Expr == expr.True() {
			if i == 0 {
				t.Fatalf("deletion patch ranked first")
			}
			if p.Deletions == 0 {
				t.Fatalf("deletion patch has no deletion marks")
			}
			return
		}
	}
	t.Fatal("true patch not found in pool")
}

// TestPickNewInputPathReduction tests the §3.4 mechanism directly: a flip
// whose path contradicts every pool patch is pruned, and re-admitted when
// the ablation disables the patch-feasibility check (the Figure 1 step V
// situation).
func TestPickNewInputPathReduction(t *testing.T) {
	job := divZeroJob()
	x, y := expr.IntVar("x"), expr.IntVar("y")
	out := expr.BoolVar("patch!out!0")
	collapsed := patch.New(1, expr.Or(expr.Eq(x, expr.IntVar("a")), expr.Eq(y, expr.IntVar("b"))),
		map[string]interval.Interval{"a": interval.Point(0), "b": interval.Point(0)})
	mkEngine := func(disable bool) *engine {
		e := &engine{
			job:    job,
			opts:   Options{DisablePathReduction: disable},
			solver: smt.NewSolver(smt.Options{}),
			pool:   &patch.Pool{Patches: []*patch.Patch{collapsed.Clone()}},
		}
		e.curBounds = e.inputBounds()
		return e
	}
	flip := concolic.Flip{
		// Clean-path prefix ¬out ∧ x ≠ 0, flipped toward the y-crash.
		Prefix:  []*expr.Term{expr.Not(out), expr.Ne(x, expr.Int(0))},
		Negated: expr.Eq(y, expr.Int(0)),
		Depth:   2,
		HoleHits: []concolic.HoleHit{{
			Out:      out,
			Snapshot: map[string]*expr.Term{"x": x, "y": y},
		}},
	}
	e := mkEngine(false)
	if o := e.pickNewInput(flip, e.inputBounds(), e.solver); o.OK || o.Unknown {
		t.Fatal("path reduction should prune: no pool patch admits ¬out ∧ x≠0 ∧ y=0")
	}
	e = mkEngine(true)
	o := e.pickNewInput(flip, e.inputBounds(), e.solver)
	if !o.OK {
		t.Fatal("ablation should admit the input-feasible path")
	}
	if in := o.child.Input; in["y"] != 0 || in["x"] == 0 {
		t.Fatalf("ablation model should satisfy the path: %v", in)
	}
	// A flip every patch admits is kept either way.
	flip.Negated = expr.Ne(y, expr.Int(0))
	e = mkEngine(false)
	if !e.pickNewInput(flip, e.inputBounds(), e.solver).OK {
		t.Fatal("feasible flip wrongly pruned")
	}
}

// TestPathReductionAblationEndToEnd compares φS with and without the
// pruning on the full repair loop (counts include the pinned validation
// exploration, where flips contradicting the pinned input are pruned).
func TestPathReductionAblationEndToEnd(t *testing.T) {
	job := divZeroJob()
	withRed, err := Repair(job, Options{})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	without, err := Repair(job, Options{DisablePathReduction: true})
	if err != nil {
		t.Fatalf("Repair (no reduction): %v", err)
	}
	if withRed.Stats.PathsSkipped == 0 {
		t.Errorf("no paths skipped with reduction enabled: %+v", withRed.Stats)
	}
	t.Logf("with reduction: φE=%d φS=%d; without: φE=%d φS=%d",
		withRed.Stats.PathsExplored, withRed.Stats.PathsSkipped,
		without.Stats.PathsExplored, without.Stats.PathsSkipped)
}

func TestAnytimeProperty(t *testing.T) {
	// More budget ⇒ at least as much reduction (gradual correctness, §1).
	job := divZeroJob()
	job.Budget.MaxIterations = 2
	small, err := Repair(job, Options{})
	if err != nil {
		t.Fatalf("Repair small: %v", err)
	}
	job.Budget.MaxIterations = 25
	large, err := Repair(job, Options{})
	if err != nil {
		t.Fatalf("Repair large: %v", err)
	}
	if large.Stats.PFinal > small.Stats.PFinal {
		t.Errorf("more budget increased the pool: %d vs %d", large.Stats.PFinal, small.Stats.PFinal)
	}
}

func TestRepairErrors(t *testing.T) {
	prog := lang.MustParse(`void main(int x) { int y = x + 1; }`)
	if _, err := Repair(Job{Program: prog, FailingInputs: []map[string]int64{{"x": 0}}}, Options{}); err != ErrNoHole {
		t.Fatalf("want ErrNoHole, got %v", err)
	}
	prog2 := lang.MustParse(`void main(int x) { if (__HOLE__) { return; } }`)
	if _, err := Repair(Job{Program: prog2}, Options{}); err != ErrNoFailingInput {
		t.Fatalf("want ErrNoFailingInput, got %v", err)
	}
}

func TestCoversEquivalence(t *testing.T) {
	solver := smt.NewSolver(smt.Options{})
	bounds := map[string]interval.Interval{
		"x": interval.New(-100, 100),
		"y": interval.New(-100, 100),
	}
	x, y, a, b := expr.IntVar("x"), expr.IntVar("y"), expr.IntVar("a"), expr.IntVar("b")
	// x == a || y == b with a=0, b=0 covers x == 0 || y == 0.
	p := patch.New(1, expr.Or(expr.Eq(x, a), expr.Eq(y, b)), map[string]interval.Interval{
		"a": interval.New(-10, 10), "b": interval.New(-10, 10),
	})
	dev := devPatchDivZero()
	ok, params, err := Covers(solver, p, dev, bounds, 0)
	if err != nil || !ok {
		t.Fatalf("Covers: %v %v", ok, err)
	}
	if params["a"] != 0 || params["b"] != 0 {
		t.Fatalf("covering params %v, want a=0 b=0", params)
	}
	// x >= a cannot cover it.
	q := patch.New(2, expr.Ge(x, a), map[string]interval.Interval{"a": interval.New(-10, 10)})
	ok, _, err = Covers(solver, q, dev, bounds, 0)
	if err != nil || ok {
		t.Fatalf("x >= a should not cover the developer patch")
	}
	// A syntactically identical concrete patch trivially covers.
	r := patch.New(3, expr.Simplify(dev), nil)
	ok, _, err = Covers(solver, r, dev, bounds, 0)
	if err != nil || !ok {
		t.Fatalf("identical patch should cover: %v %v", ok, err)
	}
	// Sort mismatch is not an error, just no.
	s2 := patch.New(4, expr.Add(x, a), map[string]interval.Interval{"a": interval.New(-10, 10)})
	ok, _, err = Covers(solver, s2, dev, bounds, 0)
	if err != nil || ok {
		t.Fatalf("sort mismatch should not cover")
	}
}

func TestFormatTopPatches(t *testing.T) {
	job := divZeroJob()
	job.Budget.MaxIterations = 3
	res, err := Repair(job, Options{})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	ranked := len(res.Ranked)
	if ranked < 2 {
		t.Fatalf("ranked pool has %d patches, want at least 2", ranked)
	}
	for _, tc := range []struct{ n, want int }{
		{-1, 0}, {0, 0}, {1, 1}, {ranked, ranked}, {1 << 62, ranked},
	} {
		lines := FormatTopPatches(res, tc.n)
		if len(lines) != tc.want {
			t.Fatalf("FormatTopPatches(n=%d) = %d lines, want %d", tc.n, len(lines), tc.want)
		}
		for i, line := range lines {
			if !strings.HasPrefix(line, fmt.Sprintf("#%d score=", i+1)) {
				t.Fatalf("FormatTopPatches(n=%d) line %d = %q", tc.n, i, line)
			}
		}
	}
}
