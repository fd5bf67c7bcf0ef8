package core

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"cpr/internal/cancel"
	"cpr/internal/smt"
	"cpr/internal/smt/cache"
)

// testWorkers returns the "many workers" count for determinism tests.
// CI overrides it via CPR_TEST_WORKERS to pin the -race matrix.
func testWorkers() int {
	if s := os.Getenv("CPR_TEST_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 8
}

// fingerprint renders everything the determinism contract promises to be
// scheduling-independent: the headline stats, the surviving pool
// (constraints included), and the ranked order with scores. Cache and
// query counters are deliberately excluded — which worker warms the cache
// first is scheduling-dependent; the verdicts are not.
func fingerprint(res *Result) string {
	var b strings.Builder
	st := res.Stats
	fmt.Fprintf(&b, "stats P %d->%d pool %d->%d phiE=%d phiS=%d gen=%d patchHits=%d bugHits=%d ref=%d rem=%d\n",
		st.PInit, st.PFinal, st.PoolInit, st.PoolFinal, st.PathsExplored, st.PathsSkipped,
		st.InputsGenerated, st.PatchLocHits, st.BugLocHits, st.Refinements, st.Removals)
	for _, p := range res.Pool.Patches {
		fmt.Fprintf(&b, "pool %d %s count=%d\n", p.ID, p, p.Constraint.Count())
	}
	for i, p := range res.Ranked {
		fmt.Fprintf(&b, "rank %d: id=%d score=%.6f\n", i+1, p.ID, p.Score)
	}
	return b.String()
}

// TestWorkersDeterminism is the tentpole's contract: the plausible-patch
// pool, the ranking, and the exploration stats are identical for every
// worker count (same seed, no wall-clock budget).
func TestWorkersDeterminism(t *testing.T) {
	job := divZeroJob()
	seq, err := Repair(job, Options{Workers: 1})
	if err != nil {
		t.Fatalf("Repair workers=1: %v", err)
	}
	if seq.Stats.Workers != 1 {
		t.Fatalf("Stats.Workers = %d, want 1", seq.Stats.Workers)
	}
	want := fingerprint(seq)

	n := testWorkers()
	for run := 0; run < 2; run++ { // twice: also run-to-run stability
		par, err := Repair(divZeroJob(), Options{Workers: n})
		if err != nil {
			t.Fatalf("Repair workers=%d: %v", n, err)
		}
		if par.Stats.Workers != n {
			t.Fatalf("Stats.Workers = %d, want %d", par.Stats.Workers, n)
		}
		if got := fingerprint(par); got != want {
			t.Fatalf("workers=%d run %d diverged from workers=1:\n--- want ---\n%s--- got ---\n%s",
				n, run, want, got)
		}
	}
}

// TestWorkersShareCache: on a subject with hundreds of queries the shared
// verdict cache must see real traffic and real hits at any worker count.
func TestWorkersShareCache(t *testing.T) {
	for _, n := range []int{1, testWorkers()} {
		res, err := Repair(divZeroJob(), Options{Workers: n})
		if err != nil {
			t.Fatalf("Repair workers=%d: %v", n, err)
		}
		st := res.Stats
		if st.SolverQueries < 50 {
			t.Fatalf("workers=%d: only %d solver queries; subject too small for the cache check", n, st.SolverQueries)
		}
		if st.CacheHits == 0 {
			t.Errorf("workers=%d: zero cache hits over %d queries", n, st.SolverQueries)
		}
		if st.CacheHits+st.CacheMisses != st.SolverQueries {
			t.Errorf("workers=%d: cache traffic %d+%d inconsistent with %d queries",
				n, st.CacheHits, st.CacheMisses, st.SolverQueries)
		}
	}
}

// TestWorkersSharedCacheInstance: an explicitly provided cache is shared
// by caller and engine — its counters account for the run's traffic.
func TestWorkersSharedCacheInstance(t *testing.T) {
	c := cache.New()
	opts := Options{Workers: testWorkers()}
	opts.SMT.Cache = c
	res, err := Repair(divZeroJob(), opts)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	cs := c.Stats()
	if cs.Hits != res.Stats.CacheHits || cs.Misses != res.Stats.CacheMisses {
		t.Fatalf("engine stats (%d/%d) disagree with the provided cache (%d/%d)",
			res.Stats.CacheHits, res.Stats.CacheMisses, cs.Hits, cs.Misses)
	}
	if c.Len() == 0 {
		t.Fatal("provided cache stayed empty")
	}
}

// TestWorkersCancelled: cancellation composes with the pool — a
// pre-cancelled token still returns the intact initial pool.
func TestWorkersCancelled(t *testing.T) {
	tok := cancel.New()
	tok.Cancel()
	res, err := Repair(divZeroJob(), Options{Workers: testWorkers(), Cancel: tok})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !res.Stats.TimedOut {
		t.Fatalf("Stats.TimedOut not set: %+v", res.Stats)
	}
	if res.Pool.Size() == 0 {
		t.Fatal("cancelled parallel run lost the pool")
	}
	if len(res.Ranked) != len(res.Pool.Patches) {
		t.Fatal("ranking inconsistent with pool")
	}
}

// TestFanOutPanicPropagates: a panic in one task surfaces on the caller
// (lowest index wins) after the batch drains, at any worker count.
func TestFanOutPanicPropagates(t *testing.T) {
	for _, n := range []int{1, 4} {
		e := &engine{opts: Options{SMT: smt.Options{}}}
		e.solver = smt.NewSolver(e.opts.SMT)
		e.workers = e.newWorkers(n)
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			e.fanOut(8, func(w *smt.Solver, i int) {
				if i == 2 || i == 5 {
					panic(fmt.Sprintf("task %d", i))
				}
			})
		}()
		if recovered != "task 2" {
			t.Fatalf("workers=%d: recovered %v, want \"task 2\"", n, recovered)
		}
	}
}

// TestNewWorkersFirstAliasesEngine: worker 0 must run on the engine's own
// solver so Workers=1 replays the sequential call sequence exactly.
func TestNewWorkersFirstAliasesEngine(t *testing.T) {
	e := &engine{opts: Options{SMT: smt.Options{}}}
	e.solver = smt.NewSolver(e.opts.SMT)
	ws := e.newWorkers(3)
	if len(ws) != 3 {
		t.Fatalf("len(workers) = %d, want 3", len(ws))
	}
	if ws[0] != e.solver {
		t.Fatal("workers[0] does not alias the engine's solver")
	}
	for i := 1; i < 3; i++ {
		if ws[i] == e.solver || ws[i] == nil {
			t.Fatalf("worker %d solver not fresh", i)
		}
	}
}
