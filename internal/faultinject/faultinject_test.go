// The tests in this package are the repair engine's resilience proof: for
// every injected fault class, Repair must return a sound, non-empty pool
// with the degradation visible in Stats — never an error, never a silently
// shrunken pool. Faults only ever make the engine skip reduction work, so
// the faulted run's surviving patches must be a superset of the unfaulted
// run's survivors (no spurious removals), and the developer patch must
// remain covered.
package faultinject_test

import (
	"testing"
	"time"

	"cpr/internal/core"
	"cpr/internal/expr"
	"cpr/internal/faultinject"
	"cpr/internal/interval"
	"cpr/internal/lang"
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
			MaxTemplates: 40,
		},
		InputBounds: map[string]interval.Interval{
			"x": interval.New(-100, 100),
			"y": interval.New(-100, 100),
		},
		Budget: core.Budget{MaxIterations: 25, ValidationIterations: 8},
	}
}

func devPatch() *expr.Term {
	return expr.Or(
		expr.Eq(expr.IntVar("x"), expr.Int(0)),
		expr.Eq(expr.IntVar("y"), expr.Int(0)),
	)
}

// survivorIDs keys the pool by template ID (deterministic from synthesis
// order, so comparable across runs of the same job).
func survivorIDs(res *core.Result) map[int]bool {
	ids := make(map[int]bool, len(res.Pool.Patches))
	for _, p := range res.Pool.Patches {
		ids[p.ID] = true
	}
	return ids
}

// checkSound asserts the invariants every degraded run must preserve:
// a non-empty pool, ranking consistent with the pool, every unfaulted
// survivor still present (faults must not cause spurious removals), and
// the developer patch covered by some surviving patch.
func checkSound(t *testing.T, res *core.Result, unfaulted map[int]bool) {
	t.Helper()
	if res == nil || res.Pool == nil {
		t.Fatal("faulted run returned no result")
	}
	if res.Pool.Size() == 0 {
		t.Fatal("faulted run emptied the pool")
	}
	if len(res.Ranked) != len(res.Pool.Patches) {
		t.Fatalf("ranking inconsistent with pool: %d vs %d", len(res.Ranked), len(res.Pool.Patches))
	}
	got := survivorIDs(res)
	for id := range unfaulted {
		if !got[id] {
			t.Errorf("patch %d survived the unfaulted run but was removed under faults", id)
		}
	}
	solver := smt.NewSolver(smt.Options{})
	if _, found := core.CorrectPatchRank(solver, res.Ranked, devPatch(), divZeroJob().InputBounds); !found {
		t.Error("developer patch no longer covered by the faulted pool")
	}
}

func runUnfaulted(t *testing.T) *core.Result {
	t.Helper()
	faultinject.Deactivate()
	res, err := core.Repair(divZeroJob(), core.Options{})
	if err != nil {
		t.Fatalf("unfaulted Repair: %v", err)
	}
	return res
}

func runFaulted(t *testing.T, plan *faultinject.Plan) *core.Result {
	t.Helper()
	faultinject.Activate(plan)
	defer faultinject.Deactivate()
	res, err := core.Repair(divZeroJob(), core.Options{})
	if err != nil {
		t.Fatalf("faulted Repair: %v", err)
	}
	return res
}

func TestRepairUnderSolverTimeout(t *testing.T) {
	base := survivorIDs(runUnfaulted(t))
	res := runFaulted(t, &faultinject.Plan{SolverEvery: 3, SolverKind: faultinject.SolverTimeout})
	checkSound(t, res, base)
	if res.Stats.SolverUnknowns == 0 {
		t.Errorf("degradation invisible: %+v", res.Stats)
	}
	if res.Stats.FlipsDropped == 0 {
		t.Errorf("no unknown flip was dropped: %+v", res.Stats)
	}
}

func TestRepairUnderSolverFail(t *testing.T) {
	base := survivorIDs(runUnfaulted(t))
	res := runFaulted(t, &faultinject.Plan{SolverEvery: 3, SolverKind: faultinject.SolverFail})
	checkSound(t, res, base)
	if res.Stats.SolverUnknowns == 0 {
		t.Errorf("degradation invisible: %+v", res.Stats)
	}
}

func TestRepairUnderSolverPanic(t *testing.T) {
	base := survivorIDs(runUnfaulted(t))
	res := runFaulted(t, &faultinject.Plan{SolverEvery: 4, SolverKind: faultinject.SolverPanic})
	checkSound(t, res, base)
	if res.Stats.SolverPanics == 0 {
		t.Errorf("solver panics not counted: %+v", res.Stats)
	}
}

func TestRepairUnderExecPanic(t *testing.T) {
	base := survivorIDs(runUnfaulted(t))
	res := runFaulted(t, &faultinject.Plan{ExecPanicEvery: 4})
	checkSound(t, res, base)
	if res.Stats.ExecPanics == 0 {
		t.Errorf("exec panics not counted: %+v", res.Stats)
	}
}

// TestRepairUnderRankPerturbation: a perturbed exploration order may
// legitimately explore different paths (so the subset relation does not
// apply), but the pool must stay non-empty and keep covering the
// developer patch.
func TestRepairUnderRankPerturbation(t *testing.T) {
	res := runFaulted(t, &faultinject.Plan{RankPerturb: 500, Seed: 12345})
	if res.Pool.Size() == 0 {
		t.Fatal("perturbed run emptied the pool")
	}
	solver := smt.NewSolver(smt.Options{})
	if _, found := core.CorrectPatchRank(solver, res.Ranked, devPatch(), divZeroJob().InputBounds); !found {
		t.Error("developer patch lost under rank perturbation")
	}
}

// TestRepairFaultsPlusDeadline: faults and a wall-clock budget together
// still yield a valid best-so-far result with TimedOut set.
func TestRepairFaultsPlusDeadline(t *testing.T) {
	faultinject.Activate(&faultinject.Plan{SolverEvery: 2, SolverKind: faultinject.SolverTimeout})
	defer faultinject.Deactivate()
	job := divZeroJob()
	job.Budget.MaxIterations = 1 << 20
	// Small enough to fire mid-run: even the faulted run needs tens of
	// milliseconds to drain its queue on this subject.
	job.Budget.MaxDuration = 5 * time.Millisecond
	start := time.Now()
	res, err := core.Repair(job, core.Options{})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("overran the 100ms budget by too much: %v", el)
	}
	if !res.Stats.TimedOut {
		t.Fatalf("TimedOut not set: %+v", res.Stats)
	}
	if res.Pool.Size() == 0 {
		t.Fatal("pool lost under faults+deadline")
	}
}

// TestDroppedFlipsAreCounted: with every solver query failing, no flip's
// feasibility can be decided, so every flip is dropped, and each drop must
// be counted exactly once in FlipsDropped and once in PathsSkipped.
// Nothing else skips a path in this run: every reduction query fails too,
// so the pool never changes and every queued item's patch resolves.
func TestDroppedFlipsAreCounted(t *testing.T) {
	res := runFaulted(t, &faultinject.Plan{SolverEvery: 1, SolverKind: faultinject.SolverTimeout})
	if res.Pool.Size() == 0 {
		t.Fatal("pool lost")
	}
	st := res.Stats
	if st.SolverUnknowns == 0 || st.FlipsDropped == 0 {
		t.Fatalf("no degradation recorded: %+v", st)
	}
	if st.PathsSkipped != st.FlipsDropped {
		t.Errorf("paths skipped %d, flips dropped %d: every dropped flip is one skipped path", st.PathsSkipped, st.FlipsDropped)
	}
	if st.InputsGenerated != 0 {
		t.Errorf("%d inputs generated from flips no query could decide", st.InputsGenerated)
	}
}

// ---- hook unit tests ----

func TestHooksInactiveAreNoOps(t *testing.T) {
	faultinject.Deactivate()
	for i := 0; i < 10; i++ {
		if faultinject.SolverQuery() != faultinject.None {
			t.Fatal("SolverQuery fired without a plan")
		}
		if faultinject.ExecPanic() {
			t.Fatal("ExecPanic fired without a plan")
		}
		if faultinject.RankDelta(uint64(i)) != 0 {
			t.Fatal("RankDelta nonzero without a plan")
		}
	}
}

func TestSolverQueryEveryNth(t *testing.T) {
	faultinject.Activate(&faultinject.Plan{SolverEvery: 3, SolverKind: faultinject.SolverTimeout})
	defer faultinject.Deactivate()
	var fired []int
	for i := 1; i <= 9; i++ {
		if faultinject.SolverQuery() != faultinject.None {
			fired = append(fired, i)
		}
	}
	if len(fired) != 3 || fired[0] != 3 || fired[1] != 6 || fired[2] != 9 {
		t.Fatalf("fired at %v, want [3 6 9]", fired)
	}
}

func TestRankDeltaDeterministicAndBounded(t *testing.T) {
	faultinject.Activate(&faultinject.Plan{RankPerturb: 7, Seed: 99})
	defer faultinject.Deactivate()
	seenNonZero := false
	for key := uint64(0); key < 200; key++ {
		d1 := faultinject.RankDelta(key)
		d2 := faultinject.RankDelta(key)
		if d1 != d2 {
			t.Fatalf("RankDelta not deterministic for key %d: %d vs %d", key, d1, d2)
		}
		if d1 < -7 || d1 > 7 {
			t.Fatalf("RankDelta %d out of [-7,7]", d1)
		}
		if d1 != 0 {
			seenNonZero = true
		}
	}
	if !seenNonZero {
		t.Fatal("RankDelta never perturbed anything")
	}
}
