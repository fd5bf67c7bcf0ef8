package sat

import (
	"math/rand"
	"reflect"
	"testing"
)

// resetProblem is one entry of the Reset battery: a CNF, optional search
// limits, and the solve calls to make on it (a nil assumption list is a
// plain Solve).
type resetProblem struct {
	nVars        int
	cnf          [][]Lit
	maxConflicts uint64
	stopAfter    int // Stop returns true from its stopAfter-th call on (0 = no Stop)
	solves       [][]Lit
}

// resetBattery mixes random 3-CNF around the phase transition (sat and
// unsat), assumption solves with follow-up clauses, and pigeonhole
// instances cut off by MaxConflicts or by Stop.
func resetBattery(r *rand.Rand) []resetProblem {
	var ps []resetProblem
	for i := 0; i < 160; i++ {
		p := resetProblem{nVars: 3 + r.Intn(14)}
		n := 1 + r.Intn(5*p.nVars)
		for j := 0; j < n; j++ {
			cl := make([]Lit, 1+r.Intn(3))
			for k := range cl {
				cl[k] = MkLit(r.Intn(p.nVars), r.Intn(2) == 0)
			}
			p.cnf = append(p.cnf, cl)
		}
		for k := 1 + r.Intn(3); k > 0; k-- {
			var as []Lit
			if r.Intn(3) > 0 {
				for j := r.Intn(4); j >= 0; j-- {
					as = append(as, MkLit(r.Intn(p.nVars), r.Intn(2) == 0))
				}
			}
			p.solves = append(p.solves, as)
		}
		ps = append(ps, p)
		if i%16 == 5 {
			ps = append(ps, pigeonProblem(6, 4+uint64(r.Intn(20)), 0))
		}
		if i%16 == 11 {
			ps = append(ps, pigeonProblem(6, 0, 2+r.Intn(3)))
		}
	}
	return ps
}

// pigeonProblem is PHP(holes+1, holes) under a conflict budget or a Stop
// callback: both end the search Unknown.
func pigeonProblem(holes int, maxConflicts uint64, stopAfter int) resetProblem {
	p := resetProblem{nVars: (holes + 1) * holes, maxConflicts: maxConflicts, stopAfter: stopAfter}
	v := func(i, j int) int { return i*holes + j }
	for i := 0; i <= holes; i++ {
		row := make([]Lit, holes)
		for j := range row {
			row[j] = MkLit(v(i, j), false)
		}
		p.cnf = append(p.cnf, row)
	}
	for j := 0; j < holes; j++ {
		for i := 0; i <= holes; i++ {
			for k := i + 1; k <= holes; k++ {
				p.cnf = append(p.cnf, []Lit{MkLit(v(i, j), true), MkLit(v(k, j), true)})
			}
		}
	}
	p.solves = [][]Lit{nil, {MkLit(v(0, 0), false)}}
	return p
}

// resetOutcome is everything observable about one solve call.
type resetOutcome struct {
	Status  Status
	Model   []bool
	Core    []Lit
	Statist Stats
	Vars    int
	Clauses int
}

// runResetProblem loads p into s and records every solve call's outcome.
// Each problem's clauses are split around its solves, so clauses are also
// added between solves, as the SMT layer's blocking clauses are.
func runResetProblem(s *Solver, p resetProblem) []resetOutcome {
	if p.maxConflicts > 0 {
		s.MaxConflicts = p.maxConflicts
	}
	if p.stopAfter > 0 {
		calls := 0
		s.Stop = func() bool { calls++; return calls >= p.stopAfter }
	}
	for i := 0; i < p.nVars; i++ {
		s.NewVar()
	}
	var outs []resetOutcome
	per := len(p.cnf)/len(p.solves) + 1
	next := 0
	for _, as := range p.solves {
		for ; next < len(p.cnf) && next < per*(len(outs)+1); next++ {
			s.AddClause(p.cnf[next]...)
		}
		st := s.SolveUnder(as...)
		o := resetOutcome{Status: st, Core: append([]Lit(nil), s.Core()...), Statist: s.Statist, Vars: s.NumVars(), Clauses: s.NumClauses()}
		if st == Sat {
			o.Model = append([]bool(nil), s.Model()...)
		}
		outs = append(outs, o)
	}
	return outs
}

// TestResetMatchesNew: a solver Reset between problems must behave exactly
// like a New solver per problem — same status, model, core and search
// statistics on every solve call — across sat, unsat, assumption and
// budget-exhausted problems.
func TestResetMatchesNew(t *testing.T) {
	battery := resetBattery(rand.New(rand.NewSource(2718)))
	reused := New()
	var unknowns, unsats, cores int
	for i, p := range battery {
		want := runResetProblem(New(), p)
		reused.Reset()
		got := runResetProblem(reused, p)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("problem %d: reset solver diverged from New:\n got  %+v\n want %+v", i, got, want)
		}
		for _, o := range want {
			switch o.Status {
			case Unknown:
				unknowns++
			case Unsat:
				unsats++
				if len(o.Core) > 0 {
					cores++
				}
			}
		}
	}
	t.Logf("%d problems: %d unknown, %d unsat (%d with cores)", len(battery), unknowns, unsats, cores)
	if unknowns == 0 || unsats == 0 || cores == 0 {
		t.Fatalf("battery too easy: %d unknown, %d unsat, %d with cores", unknowns, unsats, cores)
	}
}
