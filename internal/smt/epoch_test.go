package smt

import (
	"errors"
	"testing"

	"cpr/internal/expr"
	"cpr/internal/faultinject"
	"cpr/internal/interval"
	"cpr/internal/smt/cache"
)

func epochBounds() map[string]interval.Interval {
	return map[string]interval.Interval{"x": interval.New(0, 10)}
}

func gtFormula(k int64) *expr.Term {
	return expr.Gt(expr.IntVar("x"), expr.Int(k))
}

// probeHit reports whether f is served from c by a fresh solver.
func probeHit(t *testing.T, c *cache.Cache, f *expr.Term) bool {
	t.Helper()
	s := NewSolver(Options{Cache: c})
	if _, err := s.Check(f, epochBounds()); err != nil {
		t.Fatalf("probe Check: %v", err)
	}
	return s.Stats().CacheHits == 1
}

// TestAbortEpochInvalidatesJournaledWrites is the regression test for the
// abort/cache interaction: a query that dies mid-iteration (panic or
// budget) must withdraw every cache entry its solver wrote during that
// iteration — a run that aborted between a store and its consumers must
// not leave half-written state for other workers to hit.
func TestAbortEpochInvalidatesJournaledWrites(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind faultinject.Fault
		want error
	}{
		{"panic abort", faultinject.SolverPanic, ErrSolverPanic},
		{"budget abort", faultinject.SolverTimeout, ErrBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cache.New()
			s := NewSolver(Options{Cache: c})

			s.BeginEpoch()
			if res, err := s.Check(gtFormula(3), epochBounds()); err != nil || res.Status != Sat {
				t.Fatalf("Check: %v %v", res.Status, err)
			}
			if !probeHit(t, c, gtFormula(3)) {
				t.Fatal("decisive verdict was not cached before the abort")
			}

			// Same epoch: the next query dies at entry. The abort must
			// invalidate the journaled write above.
			faultinject.Activate(&faultinject.Plan{SolverEvery: 1, SolverKind: tc.kind})
			_, err := s.Check(gtFormula(4), epochBounds())
			faultinject.Deactivate()
			if !errors.Is(err, tc.want) {
				t.Fatalf("aborting Check: got %v, want %v", err, tc.want)
			}

			if probeHit(t, c, gtFormula(3)) {
				t.Fatal("aborted epoch's cache write survived the abort")
			}
		})
	}
}

// TestAbortEpochScopedByBeginEpoch: only writes since the last BeginEpoch
// are withdrawn; earlier iterations' entries stay valid.
func TestAbortEpochScopedByBeginEpoch(t *testing.T) {
	c := cache.New()
	s := NewSolver(Options{Cache: c})

	s.BeginEpoch()
	if _, err := s.Check(gtFormula(3), epochBounds()); err != nil {
		t.Fatalf("Check f1: %v", err)
	}
	s.BeginEpoch() // new iteration: f1's write leaves the journal
	if _, err := s.Check(gtFormula(4), epochBounds()); err != nil {
		t.Fatalf("Check f2: %v", err)
	}

	faultinject.Activate(&faultinject.Plan{SolverEvery: 1, SolverKind: faultinject.SolverPanic})
	_, err := s.Check(gtFormula(5), epochBounds())
	faultinject.Deactivate()
	if !errors.Is(err, ErrSolverPanic) {
		t.Fatalf("aborting Check: got %v, want ErrSolverPanic", err)
	}

	if !probeHit(t, c, gtFormula(3)) {
		t.Fatal("previous epoch's write was wrongly invalidated")
	}
	if probeHit(t, c, gtFormula(4)) {
		t.Fatal("current epoch's write survived the abort")
	}
}
