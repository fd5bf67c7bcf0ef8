package sat

import (
	"math/rand"
	"testing"
)

func TestSolveUnderBasic(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(nlit(a), lit(b)) // a → b

	if s.SolveUnder(lit(a)) != Sat {
		t.Fatal("a with a→b should be sat")
	}
	if !s.Model()[a] || !s.Model()[b] {
		t.Fatal("model must satisfy the assumption and its consequence")
	}
	if s.SolveUnder(lit(a), nlit(b)) != Unsat {
		t.Fatal("a ∧ ¬b with a→b should be unsat")
	}
	// Unsat-under-assumptions must not poison the clause set.
	if s.SolveUnder(lit(a)) != Sat {
		t.Fatal("solver unusable after an assumption-unsat answer")
	}
	if s.SolveUnder() != Sat {
		t.Fatal("assumption-free solve after assumption calls")
	}
}

func TestSolveUnderDirectlyFalsifiedAssumption(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(nlit(a)) // level-0 unit ¬a
	if s.SolveUnder(lit(a)) != Unsat {
		t.Fatal("assuming a falsified unit should be unsat")
	}
	if s.Solve() != Sat {
		t.Fatal("clause set itself is satisfiable")
	}
}

func TestSolveUnderContradictoryAssumptions(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.NewVar()
	if s.SolveUnder(lit(a), nlit(a)) != Unsat {
		t.Fatal("a ∧ ¬a assumptions should be unsat")
	}
	if s.SolveUnder(lit(a)) != Sat {
		t.Fatal("solver unusable after a contradictory-assumption unsat")
	}
}

func TestSolveUnderGloballyUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(lit(a))
	if s.AddClause(nlit(a)) {
		t.Fatal("contradiction not detected")
	}
	if s.SolveUnder(lit(a)) != Unsat {
		t.Fatal("globally unsat set must stay unsat under assumptions")
	}
}

// TestSelectorRetraction is the incremental-SMT usage pattern: formulas
// asserted behind selector literals are switched on and off purely through
// assumptions, without touching the clause database.
func TestSelectorRetraction(t *testing.T) {
	s := New()
	s1, s2 := s.NewVar(), s.NewVar()
	x, y := s.NewVar(), s.NewVar()
	// s1 guards (x ∧ y); s2 guards (¬x ∨ ¬y).
	s.AddClause(nlit(s1), lit(x))
	s.AddClause(nlit(s1), lit(y))
	s.AddClause(nlit(s2), nlit(x), nlit(y))

	for round := 0; round < 3; round++ { // stable across repetitions
		if s.SolveUnder(lit(s1)) != Sat {
			t.Fatalf("round %d: group 1 alone should be sat", round)
		}
		if s.SolveUnder(lit(s2)) != Sat {
			t.Fatalf("round %d: group 2 alone should be sat", round)
		}
		if s.SolveUnder(lit(s1), lit(s2)) != Unsat {
			t.Fatalf("round %d: both groups should conflict", round)
		}
	}
}

// TestLearnedClauseRetention: a solver that keeps its learnt clauses
// answers a repeated hard query without re-learning from scratch.
func TestLearnedClauseRetention(t *testing.T) {
	s := New()
	sel := s.NewVar()
	n := 5 // PHP(6,5) behind a selector
	vars := make([][]int, n+1)
	for p := 0; p <= n; p++ {
		vars[p] = make([]int, n)
		for h := 0; h < n; h++ {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		c := make([]Lit, 0, n+1)
		c = append(c, nlit(sel))
		for h := 0; h < n; h++ {
			c = append(c, lit(vars[p][h]))
		}
		s.AddClause(c...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(nlit(sel), nlit(vars[p1][h]), nlit(vars[p2][h]))
			}
		}
	}
	if s.SolveUnder(lit(sel)) != Unsat {
		t.Fatal("guarded PHP should be unsat under its selector")
	}
	firstConflicts := s.Statist.Conflicts
	if firstConflicts == 0 || s.Statist.Learned == 0 {
		t.Fatalf("hard instance solved with no conflicts/learning: %+v", s.Statist)
	}
	if s.NumLearnts() == 0 {
		t.Fatal("no learnt clauses retained")
	}
	// With the selector off the instance is trivially sat.
	if s.SolveUnder(nlit(sel)) != Sat {
		t.Fatal("retracted PHP should be sat")
	}
	// Re-asking the hard query must be much cheaper than the first time.
	if s.SolveUnder(lit(sel)) != Unsat {
		t.Fatal("repeat guarded PHP should still be unsat")
	}
	repeat := s.Statist.Conflicts - firstConflicts
	if repeat >= firstConflicts {
		t.Fatalf("repeat query spent %d conflicts, first spent %d: learnts not reused", repeat, firstConflicts)
	}
}

// TestSolveUnderDifferential cross-checks SolveUnder against re-solving
// from scratch with the assumptions added as unit clauses, on random
// 3-CNF instances.
func TestSolveUnderDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nVars, nClauses = 12, 50
	for trial := 0; trial < 60; trial++ {
		inc := New()
		for v := 0; v < nVars; v++ {
			inc.NewVar()
		}
		clauses := make([][]Lit, 0, nClauses)
		for i := 0; i < nClauses; i++ {
			c := make([]Lit, 3)
			for j := range c {
				c[j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
			}
			clauses = append(clauses, c)
			inc.AddClause(c...)
		}
		for q := 0; q < 8; q++ {
			assumps := make([]Lit, rng.Intn(4))
			for j := range assumps {
				assumps[j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
			}
			got := inc.SolveUnder(assumps...)

			ref := New()
			for v := 0; v < nVars; v++ {
				ref.NewVar()
			}
			refOK := true
			for _, c := range clauses {
				refOK = ref.AddClause(c...) && refOK
			}
			for _, a := range assumps {
				refOK = ref.AddClause(a) && refOK
			}
			want := Unsat
			if refOK {
				want = ref.Solve()
			}
			if got != want {
				t.Fatalf("trial %d query %d assumps %v: incremental=%v scratch=%v",
					trial, q, assumps, got, want)
			}
		}
	}
}

func BenchmarkSolveUnderSelectors(b *testing.B) {
	// Repeatedly toggle guarded formula groups on a shared clause
	// database: the incremental hot path of the SMT layer.
	s := New()
	const groups, width = 16, 8
	sels := make([]Lit, groups)
	for g := 0; g < groups; g++ {
		sels[g] = lit(s.NewVar())
	}
	vars := make([]int, width)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for g := 0; g < groups; g++ {
		for i := 0; i < width-1; i++ {
			if g%2 == 0 {
				s.AddClause(sels[g].Not(), lit(vars[i]), lit(vars[i+1]))
			} else {
				s.AddClause(sels[g].Not(), nlit(vars[i]), nlit(vars[i+1]))
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.SolveUnder(sels[i%groups], sels[(i+1)%groups]) == Unknown {
			b.Fatal("unexpected unknown")
		}
	}
}
