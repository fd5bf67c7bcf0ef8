package smt

import (
	"errors"
	"fmt"
	"testing"

	"cpr/internal/cancel"
	"cpr/internal/expr"
	"cpr/internal/faultinject"
	"cpr/internal/interval"
	"cpr/internal/smt/cache"
)

// incrementalBattery is a query sequence shaped like the repair loop:
// shared path-constraint prefixes, per-patch suffixes, several bounds
// boxes, purification (div/ite), boolean structure, and repeats. The same
// formula deliberately recurs under different bounds boxes — the verdict
// flips with the box, which is exactly what the per-box lemma guards must
// get right.
func incrementalBattery() []struct {
	f      *expr.Term
	bounds map[string]interval.Interval
} {
	x := expr.IntVar("x")
	y := expr.IntVar("y")
	a := expr.IntVar("a")
	p := expr.BoolVar("p")
	prefix := []*expr.Term{
		expr.Ge(x, expr.Int(0)),
		expr.Le(x, expr.Int(80)),
		expr.Ne(y, expr.Int(0)),
	}
	mid := expr.Gt(expr.Add(x, y), expr.Int(5))
	narrow := map[string]interval.Interval{"x": interval.New(0, 3), "y": interval.New(-5, 5)}
	wide := map[string]interval.Interval{"x": interval.New(0, 100), "y": interval.New(-100, 100), "a": interval.New(-10, 10)}
	boxed := expr.And(expr.Gt(x, expr.Int(5)), expr.Lt(x, expr.Int(10)))

	var qs []struct {
		f      *expr.Term
		bounds map[string]interval.Interval
	}
	add := func(f *expr.Term, b map[string]interval.Interval) {
		qs = append(qs, struct {
			f      *expr.Term
			bounds map[string]interval.Interval
		}{f, b})
	}

	// Box-sensitivity first: unsat under the narrow box, sat under the
	// wide one. A leaked lemma would make the second query unsat too.
	add(boxed, narrow)
	add(boxed, wide)
	add(boxed, narrow)

	// Shared-prefix patch queries, sat and unsat mixes.
	for k := int64(0); k < 6; k++ {
		patch := expr.Ge(expr.Add(x, y), expr.Add(a, expr.Int(k)))
		add(expr.And(append(append([]*expr.Term{}, prefix...), mid, patch)...), wide)
		contra := expr.And(expr.Lt(x, expr.Int(-1-k))) // conflicts with prefix
		add(expr.And(append(append([]*expr.Term{}, prefix...), contra)...), wide)
	}
	// Repeats (encoding-cache hits, retained lemmas).
	add(expr.And(append([]*expr.Term{mid}, prefix...)...), wide)
	add(expr.And(append([]*expr.Term{mid}, prefix...)...), narrow)

	// Purification: div/rem and integer ite behind boolean structure.
	add(expr.And(
		expr.Eq(expr.Div(x, y), expr.Int(3)),
		expr.Gt(y, expr.Int(0)),
	), wide)
	add(expr.Or(
		expr.And(p, expr.Eq(expr.Ite(p, x, y), expr.Int(7))),
		expr.Lt(expr.Rem(x, expr.Int(5)), expr.Int(0)),
	), wide)

	// Trivia and degenerate shapes.
	add(expr.True(), wide)
	add(expr.And(expr.Eq(x, expr.Int(1)), expr.Eq(x, expr.Int(2))), wide)
	add(p, nil)
	return qs
}

// TestIncrementalDifferentialVerdicts: one persistent incremental solver
// across the whole battery must agree with a fresh scratch solve of every
// query, and so must the verdicts a verdict cache hands back for them.
func TestIncrementalDifferentialVerdicts(t *testing.T) {
	battery := incrementalBattery()
	want := make([]Status, len(battery))
	inc := NewSolver(Options{Incremental: true})
	for i, q := range battery {
		st, err := inc.Decide(q.f, q.bounds)
		if err != nil {
			t.Fatalf("query %d: incremental Decide: %v", i, err)
		}
		scratch := NewSolver(Options{})
		res, err := scratch.Check(q.f, q.bounds)
		if err != nil {
			t.Fatalf("query %d: scratch Check: %v", i, err)
		}
		if want[i] = res.Status; st != want[i] {
			t.Fatalf("query %d (%v): incremental=%v scratch=%v", i, q.f, st, want[i])
		}
	}
	if st := inc.Stats(); st.EncodeCacheHits == 0 {
		t.Errorf("no encoding-cache hits over a shared-prefix battery: %+v", st)
	}

	// Twice more through a solver with a verdict cache: the first pass
	// fills it, and every query of the repeat pass is a hit that agrees
	// with scratch Check.
	cached := NewSolver(Options{Incremental: true, Cache: cache.New()})
	for pass := 0; pass < 2; pass++ {
		before := cached.Stats().CacheHits
		for i, q := range battery {
			if st, err := cached.Decide(q.f, q.bounds); err != nil || st != want[i] {
				t.Fatalf("pass %d query %d: cached Decide=%v (%v), scratch=%v", pass, i, st, err, want[i])
			}
		}
		if hits := cached.Stats().CacheHits - before; pass == 1 && hits != uint64(len(battery)) {
			t.Fatalf("repeat pass: %d cache hits over %d queries", hits, len(battery))
		}
	}
}

// TestIncrementalModelsIdentical: Check must return bit-identical models
// with Incremental on and off — the property the repair-result
// differential test builds on — and, being a model query, must never
// build or consult the incremental context.
func TestIncrementalModelsIdentical(t *testing.T) {
	inc := NewSolver(Options{Incremental: true})
	scr := NewSolver(Options{})
	for i, q := range incrementalBattery() {
		got, err1 := inc.Check(q.f, q.bounds)
		want, err2 := scr.Check(q.f, q.bounds)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("query %d: error mismatch: %v vs %v", i, err1, err2)
		}
		if got.Status != want.Status {
			t.Fatalf("query %d: status %v vs %v", i, got.Status, want.Status)
		}
		if fmt.Sprint(got.Model) != fmt.Sprint(want.Model) {
			t.Fatalf("query %d: model diverged:\nincremental: %v\nscratch:     %v", i, got.Model, want.Model)
		}
	}
	if inc.ctx != nil {
		t.Error("Check built an incremental context")
	}
	if st := inc.Stats(); st.EncodeCacheHits+st.EncodeCacheMisses != 0 {
		t.Errorf("Check used the incremental encoding cache: %+v", st)
	}
}

// pigeonhole returns the propositionally-unsat PHP(holes+1, holes)
// principle: CDCL needs many conflicts to refute it, which makes it a
// reliable way to trip a conflict budget.
func pigeonhole(holes int) *expr.Term {
	pv := func(i, j int) *expr.Term { return expr.BoolVar(fmt.Sprintf("php_%d_%d", i, j)) }
	var cs []*expr.Term
	for i := 0; i <= holes; i++ {
		row := make([]*expr.Term, holes)
		for j := 0; j < holes; j++ {
			row[j] = pv(i, j)
		}
		cs = append(cs, expr.Or(row...))
	}
	for j := 0; j < holes; j++ {
		for i := 0; i <= holes; i++ {
			for k := i + 1; k <= holes; k++ {
				cs = append(cs, expr.Or(expr.Not(pv(i, j)), expr.Not(pv(k, j))))
			}
		}
	}
	return expr.And(cs...)
}

// TestIncrementalBudgetDoesNotPoison: a query aborted by a conflict budget
// must leave the retained clause database usable — later queries still get
// correct verdicts.
func TestIncrementalBudgetDoesNotPoison(t *testing.T) {
	s := NewSolver(Options{Incremental: true, MaxConflicts: 8})
	st, err := s.Decide(pigeonhole(5), nil)
	if st != Unknown || !errors.Is(err, ErrBudget) {
		t.Fatalf("pigeonhole under MaxConflicts=8: %v, %v; want unknown budget abort", st, err)
	}
	// The budget is per-query: the same solver must still answer easy
	// queries correctly afterwards.
	x := expr.IntVar("x")
	b := map[string]interval.Interval{"x": interval.New(0, 50)}
	easy := expr.Eq(x, expr.Int(7))
	if st, err := s.Decide(easy, b); err != nil || st != Sat {
		t.Fatalf("easy sat query after budget abort: %v, %v", st, err)
	}
	if st, err := s.Decide(expr.And(easy, expr.Eq(x, expr.Int(8))), b); err != nil || st != Unsat {
		t.Fatalf("easy unsat query after budget abort: %v, %v", st, err)
	}
}

// TestIncrementalCancellation: an expired token degrades incremental
// queries to Unknown with a budget error; a fresh solver with no token is
// unaffected.
func TestIncrementalCancellation(t *testing.T) {
	tok := cancel.New()
	tok.Cancel()
	s := NewSolver(Options{Incremental: true, Cancel: tok})
	x := expr.IntVar("x")
	f := expr.Gt(x, expr.Int(0))
	st, err := s.Decide(f, nil)
	if st != Unknown || !errors.Is(err, ErrBudget) {
		t.Fatalf("cancelled Decide = %v, %v; want unknown with budget error", st, err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Stage != "deadline" {
		t.Fatalf("error %v is not a deadline budget error", err)
	}
	if res, err := s.Check(f, nil); err == nil || res.Status != Unknown {
		t.Fatalf("cancelled Check = %v, %v", res.Status, err)
	}
}

// TestIncrementalFaultInjectionMidSequence: injected solver faults —
// including panics recovered at the query boundary — must not poison the
// retained clause database: every non-faulted query still answers
// correctly across the battery.
func TestIncrementalFaultInjectionMidSequence(t *testing.T) {
	for _, kind := range []faultinject.Fault{faultinject.SolverPanic, faultinject.SolverTimeout, faultinject.SolverFail} {
		// One plan per kind: its every-Nth counter must persist across the
		// deactivate/reactivate windows around the scratch reference solves.
		plan := &faultinject.Plan{SolverEvery: 3, SolverKind: kind}
		faultinject.Activate(plan)
		inc := NewSolver(Options{Incremental: true})
		faulted, answered := 0, 0
		for i, q := range incrementalBattery() {
			st, err := inc.Decide(q.f, q.bounds)
			if err != nil {
				faulted++
				if st == Sat || st == Unsat {
					t.Fatalf("kind %v query %d: decisive verdict alongside error %v", kind, i, err)
				}
				continue
			}
			answered++
			faultinject.Deactivate() // scratch reference must not fault
			want, werr := NewSolver(Options{}).Check(q.f, q.bounds)
			faultinject.Activate(plan)
			if werr != nil {
				t.Fatalf("kind %v query %d: scratch reference: %v", kind, i, werr)
			}
			if st != want.Status {
				t.Fatalf("kind %v query %d: verdict %v diverged from scratch %v after faults", kind, i, st, want.Status)
			}
		}
		faultinject.Deactivate()
		if faulted == 0 || answered == 0 {
			t.Fatalf("kind %v: battery too small to exercise faults (faulted=%d answered=%d)", kind, faulted, answered)
		}
		if kind == faultinject.SolverPanic && inc.Stats().Panics == 0 {
			t.Fatal("panic faults not recorded in stats")
		}
	}
}

// TestIncrementalCacheInteraction: verdict-only entries, model upgrades,
// and unsat verdicts answered from the cache.
func TestIncrementalCacheInteraction(t *testing.T) {
	c := cache.New()
	s := NewSolver(Options{Incremental: true, Cache: c})
	x := expr.IntVar("x")
	y := expr.IntVar("y")
	b := map[string]interval.Interval{"x": interval.New(0, 50), "y": interval.New(0, 50)}

	// Sat Decide stores a verdict-only entry; repeat Decide hits it.
	f := expr.Gt(expr.Add(x, y), expr.Int(10))
	if st, err := s.Decide(f, b); err != nil || st != Sat {
		t.Fatalf("Decide: %v, %v", st, err)
	}
	before := c.Stats()
	if st, err := s.Decide(f, b); err != nil || st != Sat {
		t.Fatalf("repeat Decide: %v, %v", st, err)
	}
	if after := c.Stats(); after.Hits != before.Hits+1 {
		t.Fatalf("repeat Decide missed the verdict cache: %+v -> %+v", before, after)
	}
	// Check on the same query upgrades the entry with a model.
	res, err := s.Check(f, b)
	if err != nil || res.Status != Sat || res.Model == nil {
		t.Fatalf("Check after verdict-only: %+v, %v", res, err)
	}
	res2, err := s.Check(f, b)
	if err != nil || res2.Model == nil {
		t.Fatalf("model entry not cached: %+v, %v", res2, err)
	}

	// An unsat Decide is stored and answers its repeat.
	p := expr.BoolVar("cp")
	q := expr.BoolVar("cq")
	clash := expr.And(p, expr.Implies(p, q), expr.Not(q), expr.Gt(y, expr.Int(1)))
	if st, err := s.Decide(clash, b); err != nil || st != Unsat {
		t.Fatalf("unsat query: %v, %v", st, err)
	}
	pre := c.Stats()
	if st, err := s.Decide(clash, b); err != nil || st != Unsat {
		t.Fatalf("repeat unsat query: %v, %v", st, err)
	}
	if post := c.Stats(); post.Hits != pre.Hits+1 {
		t.Fatalf("repeat unsat Decide missed the verdict cache: %+v -> %+v", pre, post)
	}
}

// TestIncrementalClauseRetentionStats: repeats of an unsat query must get
// cheaper (retained lemmas) and the counters must show retention.
func TestIncrementalClauseRetentionStats(t *testing.T) {
	s := NewSolver(Options{Incremental: true})
	x := expr.IntVar("x")
	y := expr.IntVar("y")
	b := map[string]interval.Interval{"x": interval.New(0, 30), "y": interval.New(0, 30)}
	// Propositionally rich unsat query (disjunctions force theory rounds).
	f := expr.And(
		expr.Or(expr.Eq(x, expr.Int(1)), expr.Eq(x, expr.Int(2)), expr.Eq(x, expr.Int(3))),
		expr.Or(expr.Eq(y, expr.Int(4)), expr.Eq(y, expr.Int(5))),
		expr.Gt(expr.Add(x, y), expr.Int(50)),
	)
	if st, err := s.Decide(f, b); err != nil || st != Unsat {
		t.Fatalf("first solve: %v, %v", st, err)
	}
	roundsAfterFirst := s.Stats().TheoryRounds
	if st, err := s.Decide(f, b); err != nil || st != Unsat {
		t.Fatalf("repeat solve: %v, %v", st, err)
	}
	st := s.Stats()
	repeatRounds := st.TheoryRounds - roundsAfterFirst
	if repeatRounds >= roundsAfterFirst {
		t.Errorf("repeat spent %d theory rounds, first spent %d: lemmas not retained", repeatRounds, roundsAfterFirst)
	}
	if st.EncodeCacheHits == 0 {
		t.Errorf("repeat query re-encoded: %+v", st)
	}
}
