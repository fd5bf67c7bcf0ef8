package core

import (
	"testing"

	"cpr/internal/faultinject"
)

// TestIncrementalRepairDifferential is the tentpole's acceptance contract:
// with SMT.Incremental on, the repair result — pool, constraints, ranking,
// and every headline stat — is identical to scratch mode, at one worker
// and at many. Verdicts are decided on the persistent context but models
// still come from the deterministic scratch path, so this must hold
// exactly.
func TestIncrementalRepairDifferential(t *testing.T) {
	scratch, err := Repair(divZeroJob(), Options{Workers: 1})
	if err != nil {
		t.Fatalf("Repair scratch: %v", err)
	}
	if st := scratch.Stats; st.EncodeCacheHits != 0 || st.ClausesKept != 0 || st.AssumptionCores != 0 {
		t.Fatalf("scratch run reports incremental counters: %+v", st)
	}
	want := fingerprint(scratch)

	for _, n := range []int{1, testWorkers()} {
		opts := Options{Workers: n}
		opts.SMT.Incremental = true
		res, err := Repair(divZeroJob(), opts)
		if err != nil {
			t.Fatalf("Repair incremental workers=%d: %v", n, err)
		}
		if got := fingerprint(res); got != want {
			t.Fatalf("incremental workers=%d diverged from scratch:\n--- want ---\n%s--- got ---\n%s", n, want, got)
		}
		st := res.Stats
		if st.EncodeCacheHits == 0 {
			t.Errorf("workers=%d: no encoding reuse over %d queries", n, st.SolverQueries)
		}
		// ClausesKept is a per-context gauge read from whichever context
		// answered the last verdict query, and ClausesLearned also counts
		// the scratch solves of model queries: retention is only
		// scheduling-independent at one worker.
		if n == 1 && st.ClausesKept == 0 && st.ClausesLearned > 0 {
			t.Errorf("workers=%d: learned %d clauses but retained none", n, st.ClausesLearned)
		}
	}
}

// TestIncrementalRepairSurvivesSolverFaults: the faultinject suite's
// guarantee must hold with the persistent context too — injected panics
// mid-run discard at most the context (rebuilt lazily), never the run, and
// are counted.
func TestIncrementalRepairSurvivesSolverFaults(t *testing.T) {
	for _, kind := range []faultinject.Fault{faultinject.SolverPanic, faultinject.SolverTimeout} {
		faultinject.Activate(&faultinject.Plan{SolverEvery: 5, SolverKind: kind})
		opts := Options{Workers: 1}
		opts.SMT.Incremental = true
		res, err := Repair(divZeroJob(), opts)
		faultinject.Deactivate()
		if err != nil {
			t.Fatalf("kind %v: Repair under faults: %v", kind, err)
		}
		if res.Pool == nil || len(res.Ranked) != len(res.Pool.Patches) {
			t.Fatalf("kind %v: faulted run returned an inconsistent pool", kind)
		}
		if res.Stats.SolverUnknowns+res.Stats.SolverPanics == 0 {
			t.Errorf("kind %v: degradation invisible: %+v", kind, res.Stats)
		}
		if kind == faultinject.SolverPanic && res.Stats.SolverPanics == 0 {
			t.Errorf("panic faults not counted: %+v", res.Stats)
		}
	}
}
