// Edge cases of the assumption interface: the degenerate inputs the smt
// layer can produce when selector sets collapse (empty), repeat a selector
// (duplicates), or are built from a stale variable map (unseen variables).
package sat

import "testing"

func TestSolveUnderEmptyAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(lit(a), lit(b))

	if s.SolveUnder() != Sat {
		t.Fatal("empty assumption set must behave like Solve")
	}
	if !s.VerifyModel() {
		t.Fatal("model from an assumption-free SolveUnder must replay")
	}
	// An empty slice (as opposed to no arguments) must behave the same.
	if s.SolveUnder([]Lit{}...) != Sat {
		t.Fatal("explicit empty slice must behave like Solve")
	}
}

func TestSolveUnderDuplicateAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(nlit(a), lit(b)) // a → b

	if s.SolveUnder(lit(a), lit(a), lit(a)) != Sat {
		t.Fatal("duplicated assumption must not change satisfiability")
	}
	if !s.Model()[a] || !s.Model()[b] {
		t.Fatal("model must satisfy the (duplicated) assumption and a→b")
	}

	// Duplicates on the unsat side.
	if s.SolveUnder(lit(a), lit(a), nlit(b)) != Unsat {
		t.Fatal("a ∧ a ∧ ¬b with a→b should be unsat")
	}
	// The solver must remain usable, exactly as after any assumption-unsat.
	if s.SolveUnder(lit(a)) != Sat {
		t.Fatal("solver unusable after duplicated-assumption unsat")
	}
}

func TestSolveUnderDuplicateContradiction(t *testing.T) {
	s := New()
	a := s.NewVar()
	if s.SolveUnder(lit(a), nlit(a), lit(a)) != Unsat {
		t.Fatal("a ∧ ¬a ∧ a should be unsat")
	}
	if s.SolveUnder(lit(a)) != Sat {
		t.Fatal("solver unusable after a contradictory-assumption unsat")
	}
}

// Assumptions over variables the solver has never seen are a caller bug
// (a stale selector map), not a satisfiability question; the contract is
// an immediate panic rather than a silent wrong verdict.
func TestSolveUnderUnseenVariablePanics(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(lit(a))

	defer func() {
		if recover() == nil {
			t.Fatal("SolveUnder accepted an assumption over an unseen variable")
		}
		// The panic must fire before any search state is touched: the
		// solver stays usable for well-formed queries.
		if s.Solve() != Sat {
			t.Fatal("solver unusable after rejecting an unseen-variable assumption")
		}
	}()
	s.SolveUnder(lit(a), MkLit(a+7, false))
}
