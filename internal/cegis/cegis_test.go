package cegis

import (
	"context"
	"testing"
	"time"

	"cpr/internal/core"
	"cpr/internal/expr"
	"cpr/internal/faultinject"
	"cpr/internal/interval"
	"cpr/internal/lang"
	"cpr/internal/patch"
	"cpr/internal/smt"
	"cpr/internal/synth"
)

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

func divZeroJob() core.Job {
	prog := lang.MustParse(divZeroSubject)
	return core.Job{
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
			MaxTemplates: 30,
		},
		InputBounds: map[string]interval.Interval{
			"x": interval.New(-100, 100),
			"y": interval.New(-100, 100),
		},
		Budget: core.Budget{MaxIterations: 20},
	}
}

// TestCEGISReturnsDeletionPatch reproduces the paper's Finding 2: CEGIS
// terminates at the first candidate that verifies against the collected
// paths, which is a functionality-deleting tautology.
func TestCEGISReturnsDeletionPatch(t *testing.T) {
	res, err := Repair(divZeroJob(), Options{})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if res.Patch == nil {
		t.Fatalf("CEGIS produced no patch: %+v", res.Stats)
	}
	if res.Patch.Expr != expr.True() {
		t.Fatalf("expected the tautology patch (Finding 2), got %s", res.Patch)
	}
	if res.Stats.PathsExplored == 0 {
		t.Fatalf("no exploration: %+v", res.Stats)
	}
	t.Logf("CEGIS stats: %+v", res.Stats)
}

// TestCEGISReductionIsSmall: CEGIS barely reduces the patch space compared
// to its initial size (0% for most paper subjects), because it stops at
// the first verified patch.
func TestCEGISReductionIsSmall(t *testing.T) {
	res, err := Repair(divZeroJob(), Options{})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if res.Stats.PInit == 0 {
		t.Fatal("no initial pool")
	}
	if r := res.Stats.ReductionRatio(); r > 0.10 {
		t.Errorf("CEGIS reduction %.2f unexpectedly large", r)
	}
}

// TestCEGISWithoutDeletionTemplates: when the pool omits the trivial
// guards, CEGIS must work through counterexamples and produce a patch
// that at least passes the collected paths.
func TestCEGISWithoutDeletionTemplates(t *testing.T) {
	job := divZeroJob()
	job.Components.SuppressDeletion = true
	res, err := Repair(job, Options{})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if res.Patch == nil {
		t.Skipf("no patch verified within budget: %+v", res.Stats)
	}
	if res.Patch.Expr.IsConst() {
		t.Fatalf("deletion template slipped in: %s", res.Patch)
	}
	t.Logf("CEGIS found %s with %v (%+v)", res.Patch, res.Params, res.Stats)
}

func TestCEGISErrors(t *testing.T) {
	prog := lang.MustParse(`void main(int x) { int y = x + 1; }`)
	if _, err := Repair(core.Job{Program: prog, FailingInputs: []map[string]int64{{"x": 0}}}, Options{}); err != core.ErrNoHole {
		t.Fatalf("want ErrNoHole, got %v", err)
	}
	prog2 := lang.MustParse(`int main(int x) { int y = __HOLE__; return y; }`)
	if _, err := Repair(core.Job{Program: prog2, FailingInputs: []map[string]int64{{"x": 0}}}, Options{}); err != ErrUnsupportedHole {
		t.Fatalf("want ErrUnsupportedHole, got %v", err)
	}
}

// TestCEGISCorrectnessCheck: the returned deletion patch must NOT cover
// the developer patch — that is the point of Finding 2.
func TestCEGISCorrectnessCheck(t *testing.T) {
	job := divZeroJob()
	res, err := Repair(job, Options{})
	if err != nil || res.Patch == nil {
		t.Fatalf("Repair: %v %+v", err, res)
	}
	solver := smt.NewSolver(smt.Options{})
	dev := expr.Or(
		expr.Eq(expr.IntVar("x"), expr.Int(0)),
		expr.Eq(expr.IntVar("y"), expr.Int(0)),
	)
	// Pin the returned params into a concrete patch for the check.
	sub := make(map[string]*expr.Term)
	for k, v := range res.Params {
		sub[k] = expr.Int(v)
	}
	concrete := expr.Subst(res.Patch.Expr, sub)
	ok, _, err := core.Covers(solver, patch.New(1, concrete, nil), dev, job.InputBounds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("CEGIS patch %v unexpectedly equals the developer patch", concrete)
	}
}

// TestCEGISTimedOut: an expired deadline winds the baseline down with
// TimedOut set and a valid (patchless) best-so-far result — never an
// error. The deadline is already past at the start, so no run can finish
// inside it.
func TestCEGISTimedOut(t *testing.T) {
	job := divZeroJob()
	job.Budget.MaxIterations = 1 << 20
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	res, err := Repair(job, Options{Context: ctx})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("overran the expired deadline by too much: %v", el)
	}
	if !res.Stats.TimedOut {
		t.Fatalf("TimedOut not set: %+v", res.Stats)
	}
	if res.Patch != nil {
		t.Fatalf("expired run returned a patch: %v", res.Patch)
	}
}

// TestCEGISCancelled: a pre-cancelled context has the same effect.
func TestCEGISCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Repair(divZeroJob(), Options{Context: ctx})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !res.Stats.TimedOut {
		t.Fatalf("TimedOut not set: %+v", res.Stats)
	}
}

// TestCEGISSurvivesSolverFaults: injected solver faults degrade to counted
// unknowns, not errors.
func TestCEGISSurvivesSolverFaults(t *testing.T) {
	faultinject.Activate(&faultinject.Plan{SolverEvery: 3, SolverKind: faultinject.SolverTimeout})
	defer faultinject.Deactivate()
	res, err := Repair(divZeroJob(), Options{})
	if err != nil {
		t.Fatalf("Repair under faults: %v", err)
	}
	if res.Stats.SolverUnknowns == 0 {
		t.Errorf("degradation invisible: %+v", res.Stats)
	}
}
