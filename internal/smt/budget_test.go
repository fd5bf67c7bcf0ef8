package smt

import (
	"context"
	"errors"
	"testing"
	"time"

	"cpr/internal/expr"
	"cpr/internal/faultinject"
	"cpr/internal/interval"
	"cpr/internal/smt/lia"
)

// hardFormula returns a formula that survives simplification and reaches
// the DPLL(T) loop, so budget/deadline paths are actually exercised.
func hardFormula() (*expr.Term, map[string]interval.Interval) {
	x, y := expr.IntVar("x"), expr.IntVar("y")
	f := expr.And(
		expr.Eq(expr.Add(x, y), expr.Int(10)),
		expr.Gt(x, expr.Int(0)),
		expr.Lt(y, expr.Int(5)),
		expr.Ne(expr.Mul(x, y), expr.Int(21)),
	)
	return f, map[string]interval.Interval{
		"x": interval.New(-50, 50), "y": interval.New(-50, 50),
	}
}

// TestUnknownOnTheoryBudget: exhausting the LIA budget surfaces ErrBudget
// and an Unknown status rather than a wrong verdict.
func TestUnknownOnTheoryBudget(t *testing.T) {
	s := NewSolver(Options{LIA: lia.Options{MaxSteps: 1}})
	x, y := expr.IntVar("x"), expr.IntVar("y")
	f := expr.And(
		expr.Eq(expr.Add(x, y), expr.Int(10)),
		expr.Gt(x, expr.Int(0)),
		expr.Lt(y, expr.Int(5)),
	)
	res, err := s.Check(f, nil)
	if err == nil {
		// A single step may still suffice for tiny formulas; force more
		// work with a disequality split.
		f = expr.And(f, expr.Ne(expr.Mul(x, y), expr.Int(21)))
		res, err = s.Check(f, map[string]interval.Interval{
			"x": interval.New(-50, 50), "y": interval.New(-50, 50),
		})
	}
	if err == nil {
		t.Skip("budget not exhausted on this formula")
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if res.Status != Unknown {
		t.Fatalf("status %v, want unknown", res.Status)
	}
}

// TestMaxTheoryRounds: a tiny round cap yields Unknown, not a verdict.
func TestMaxTheoryRounds(t *testing.T) {
	s := NewSolver(Options{MaxTheoryRounds: 1})
	x := expr.IntVar("x")
	// Disjunction whose first skeleton model is theory-inconsistent:
	// x < 0 ∧ (x > 5 ∨ x = 1): at least two rounds may be needed.
	f := expr.And(
		expr.Lt(x, expr.Int(0)),
		expr.Or(expr.Gt(x, expr.Int(5)), expr.Eq(x, expr.Int(1))),
	)
	res, err := s.Check(f, nil)
	if err == nil && res.Status == Unsat {
		return // solved within one round: also acceptable
	}
	if err == nil {
		t.Fatalf("expected unsat or budget error, got %v", res.Status)
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

// TestBudgetErrorContext: budget exhaustion carries the originating
// query's context (stage, query number, work counters), not just the bare
// sentinel.
func TestBudgetErrorContext(t *testing.T) {
	s := NewSolver(Options{LIA: lia.Options{MaxSteps: 1}})
	f, bounds := hardFormula()
	_, err := s.Check(f, bounds)
	if err == nil {
		t.Skip("budget not exhausted on this formula")
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %T: %v", err, err)
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("BudgetError must wrap ErrBudget: %v", err)
	}
	if be.Stage != "lia" {
		t.Errorf("stage %q, want lia", be.Stage)
	}
	if be.Query == 0 {
		t.Error("query number missing")
	}
	if be.Clauses == 0 || be.Atoms == 0 {
		t.Errorf("encoded-problem shape missing: clauses=%d atoms=%d", be.Clauses, be.Atoms)
	}
	if be.Detail == nil || !errors.Is(be.Detail, lia.ErrBudget) {
		t.Errorf("detail should carry the lia cause: %v", be.Detail)
	}
}

// TestContextAbortsQuery: a run context that is already done — past its
// deadline or cancelled — aborts a query with Unknown and a deadline-stage
// *BudgetError carrying the context's error: never a verdict, never a
// panic.
func TestContextAbortsQuery(t *testing.T) {
	expired, stop := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer stop()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"deadline", expired, context.DeadlineExceeded},
		{"cancelled", cancelled, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSolver(Options{Context: tc.ctx})
			f, bounds := hardFormula()
			res, err := s.Check(f, bounds)
			if err == nil || !errors.Is(err, ErrBudget) {
				t.Fatalf("want budget error, got %v (status %v)", err, res.Status)
			}
			var be *BudgetError
			if !errors.As(err, &be) || be.Stage != "deadline" || !errors.Is(be.Detail, tc.want) {
				t.Fatalf("want deadline stage with detail %v, got %v", tc.want, err)
			}
			if res.Status != Unknown {
				t.Fatalf("status %v, want unknown", res.Status)
			}
			if s.Stats().Unknowns == 0 {
				t.Error("Unknowns counter not bumped")
			}
		})
	}
}

// TestSolverPanicRecovered: a panic below the Check boundary degrades to
// Unknown + ErrSolverPanic with the Panics counter bumped.
func TestSolverPanicRecovered(t *testing.T) {
	faultinject.Activate(&faultinject.Plan{SolverEvery: 1, SolverKind: faultinject.SolverPanic})
	defer faultinject.Deactivate()
	s := NewSolver(Options{})
	f, bounds := hardFormula()
	res, err := s.Check(f, bounds)
	if err == nil || !errors.Is(err, ErrSolverPanic) {
		t.Fatalf("want ErrSolverPanic, got %v", err)
	}
	if res.Status != Unknown {
		t.Fatalf("status %v, want unknown", res.Status)
	}
	st := s.Stats()
	if st.Panics != 1 || st.Unknowns != 1 {
		t.Fatalf("panic not counted: %+v", st)
	}
	// The solver must remain usable after a recovered panic.
	faultinject.Deactivate()
	res, err = s.Check(f, bounds)
	if err != nil || res.Status != Sat {
		t.Fatalf("solver unusable after recovered panic: %v %v", res.Status, err)
	}
}

// TestSortErrorOnNonBool: Check rejects integer-sorted "formulas".
func TestSortErrorOnNonBool(t *testing.T) {
	s := NewSolver(Options{})
	if _, err := s.Check(expr.IntVar("x"), nil); err == nil {
		t.Fatal("expected sort error")
	}
}

// TestSupportSetKeepsModelsValid: formulas whose skeleton has don't-care
// atoms still yield models satisfying the original formula.
func TestSupportSetKeepsModelsValid(t *testing.T) {
	s := NewSolver(Options{})
	x, y := expr.IntVar("x"), expr.IntVar("y")
	// The second disjunct is irrelevant once the first holds.
	f := expr.Or(
		expr.Eq(x, expr.Int(3)),
		expr.And(expr.Gt(y, expr.Int(100)), expr.Lt(y, expr.Int(90))), // unsat conjunct
	)
	res, err := s.Check(f, map[string]interval.Interval{
		"x": interval.New(-10, 10), "y": interval.New(-10, 10),
	})
	if err != nil || res.Status != Sat {
		t.Fatalf("got %v %v", res.Status, err)
	}
	ok, err := expr.EvalBool(f, res.Model)
	if err != nil || !ok {
		t.Fatalf("model %v does not satisfy formula", res.Model)
	}
}
