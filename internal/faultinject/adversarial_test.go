// Adversarial faults: the solver does not fail loudly — it lies. Each
// test forces one lie class on every produced verdict (LieEvery: 1, so
// the schedule is scheduling-independent even under parallel workers) and
// asserts the self-healing guard makes the repair result *bit-identical*
// to a clean scratch run: same surviving patches, same ranking, same
// exploration stats. Health counters are the only permitted difference.
package faultinject_test

import (
	"fmt"
	"strings"
	"testing"

	"cpr/internal/core"
	"cpr/internal/faultinject"
)

// repairFingerprint is the cross-run identity the guard must preserve:
// pool membership, per-patch constraints, ranking, and every headline
// exploration stat. Health and solver-traffic counters are deliberately
// excluded — healing is allowed to cost extra solves, not extra (or
// missing) patches.
func repairFingerprint(res *core.Result) string {
	var b strings.Builder
	st := res.Stats
	fmt.Fprintf(&b, "stats P %d->%d pool %d->%d phiE=%d phiS=%d gen=%d ref=%d rem=%d\n",
		st.PInit, st.PFinal, st.PoolInit, st.PoolFinal, st.PathsExplored, st.PathsSkipped,
		st.InputsGenerated, st.Refinements, st.Removals)
	for _, p := range res.Pool.Patches {
		fmt.Fprintf(&b, "pool %d %s count=%d\n", p.ID, p, p.Constraint.Count())
	}
	for i, p := range res.Ranked {
		fmt.Fprintf(&b, "rank %d: id=%d score=%.6f\n", i+1, p.ID, p.Score)
	}
	return b.String()
}

// cleanScratchRun is the trusted reference: sequential, scratch-mode,
// no faults. Every lying run must reproduce it exactly.
func cleanScratchRun(t *testing.T) *core.Result {
	t.Helper()
	faultinject.Deactivate()
	opts := core.Options{Workers: 1}
	opts.SMT.Incremental = false
	res, err := core.Repair(divZeroJob(), opts)
	if err != nil {
		t.Fatalf("clean scratch Repair: %v", err)
	}
	return res
}

func runLying(t *testing.T, kind faultinject.Fault, workers int) *core.Result {
	t.Helper()
	faultinject.Activate(&faultinject.Plan{LieEvery: 1, LieKind: kind})
	defer faultinject.Deactivate()
	opts := core.Options{Workers: workers}
	opts.SMT.Incremental = true
	opts.SMT.Guard.Paranoid = true
	res, err := core.Repair(divZeroJob(), opts)
	if err != nil {
		t.Fatalf("lying Repair (kind=%d workers=%d): %v", kind, workers, err)
	}
	return res
}

func testLieClass(t *testing.T, kind faultinject.Fault) {
	want := repairFingerprint(cleanScratchRun(t))
	for _, workers := range []int{1, faultWorkers()} {
		res := runLying(t, kind, workers)
		if got := repairFingerprint(res); got != want {
			t.Errorf("workers=%d: lying run diverged from clean scratch run:\n--- want ---\n%s--- got ---\n%s",
				workers, want, got)
		}
		st := res.Stats
		if st.Validations == 0 {
			t.Errorf("workers=%d: guard never validated anything: %+v", workers, st)
		}
		if st.ValidationFailures == 0 {
			t.Errorf("workers=%d: lies were injected but no validation failure recorded: %+v", workers, st)
		}
		if st.FallbackSolves == 0 {
			t.Errorf("workers=%d: validation failed but no fallback solve recorded: %+v", workers, st)
		}
	}
}

func TestRepairUnderFlippedModels(t *testing.T) {
	testLieClass(t, faultinject.SolverFlipModel)
}

func TestRepairUnderSpuriousUnsat(t *testing.T) {
	testLieClass(t, faultinject.SolverSpuriousUnsat)
}

// The quarantine/fallback machinery must be visible to operators: with
// persistent lying the run must report quarantines or fallback solves,
// never heal silently.
func TestLyingRunReportsHealing(t *testing.T) {
	res := runLying(t, faultinject.SolverSpuriousUnsat, 1)
	st := res.Stats
	if st.Quarantines == 0 && st.FallbackSolves == 0 {
		t.Fatalf("healed without reporting quarantines or fallbacks: %+v", st)
	}
}

// ---- hook unit test ----

func TestSolverLieEveryNth(t *testing.T) {
	faultinject.Activate(&faultinject.Plan{LieEvery: 3, LieKind: faultinject.SolverSpuriousUnsat})
	defer faultinject.Deactivate()
	var fired []int
	for i := 1; i <= 9; i++ {
		if faultinject.SolverLie() != faultinject.None {
			fired = append(fired, i)
		}
	}
	if len(fired) != 3 || fired[0] != 3 || fired[1] != 6 || fired[2] != 9 {
		t.Fatalf("fired at %v, want [3 6 9]", fired)
	}
}

func TestSolverLieInactiveIsNoOp(t *testing.T) {
	faultinject.Deactivate()
	for i := 0; i < 10; i++ {
		if faultinject.SolverLie() != faultinject.None {
			t.Fatal("SolverLie fired without a plan")
		}
	}
}
