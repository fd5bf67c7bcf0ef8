package lia

import (
	"math/rand"
	"reflect"
	"testing"

	"cpr/internal/interval"
)

// deepCopyCons copies constraints down to their variable names, so a later
// comparison sees any write through a shared Terms or Vars slice.
func deepCopyCons(cons []Constraint) []Constraint {
	out := make([]Constraint, len(cons))
	for i, c := range cons {
		ts := make([]Term, len(c.Terms))
		for j, t := range c.Terms {
			ts[j] = Term{Coef: t.Coef, Vars: append([]string(nil), t.Vars...)}
		}
		out[i] = Constraint{Terms: ts, K: c.K, Rel: c.Rel}
	}
	return out
}

// TestSolveLeavesInputUnchanged: Solve and Box.Solve share the caller's
// constraints instead of copying them, so they must never write into them.
// The battery reaches every layer that derives constraints: enumeration of
// nonlinear variables, branch-and-bound on fractional samples, and
// disequality splits.
func TestSolveLeavesInputUnchanged(t *testing.T) {
	bounds := map[string]interval.Interval{"x": iv(-6, 6), "y": iv(-6, 6), "z": iv(0, 5)}
	probs := [][]Constraint{
		// Enumeration: x·y = 6 is linear only once x or y is fixed.
		{{Terms: []Term{{Coef: 1, Vars: []string{"x", "y"}}}, K: 6, Rel: RelEq}, {Terms: []Term{lin(1, "x"), lin(-1, "y")}, K: -1, Rel: RelLe}},
		// Branch-and-bound: 2x − 2y = 1 has rational but no integer
		// solutions; 3x + 5y = 1 needs branching to reach an integer one.
		{{Terms: []Term{lin(2, "x"), lin(-2, "y")}, K: 1, Rel: RelEq}},
		{{Terms: []Term{lin(3, "x"), lin(5, "y")}, K: 1, Rel: RelEq}, {Terms: []Term{lin(2, "x"), lin(1, "z")}, K: 7, Rel: RelLe}},
		// Disequality splits: the preferred sample 0 is excluded, on both
		// sides of zero and (z ≥ 0) where only the upper split is sat.
		{{Terms: []Term{lin(1, "x")}, K: 0, Rel: RelNe}, {Terms: []Term{lin(1, "x"), lin(1, "y")}, K: 0, Rel: RelNe}, {Terms: []Term{lin(1, "y")}, K: 0, Rel: RelEq}},
		{{Terms: []Term{lin(1, "z")}, K: 0, Rel: RelNe}, {Terms: []Term{lin(1, "x"), lin(-1, "z")}, K: 0, Rel: RelLe}},
	}
	r := rand.New(rand.NewSource(5))
	names := []string{"x", "y", "z"}
	for i := 0; i < 300; i++ {
		var cons []Constraint
		for n := 1 + r.Intn(4); n > 0; n-- {
			var terms []Term
			for k := 1 + r.Intn(3); k > 0; k-- {
				vs := []string{names[r.Intn(3)]}
				if r.Intn(4) == 0 {
					vs = append(vs, names[r.Intn(3)])
					if vs[0] > vs[1] {
						vs[0], vs[1] = vs[1], vs[0]
					}
				}
				coef := int64(r.Intn(9) - 4)
				if coef == 0 {
					coef = 1
				}
				terms = append(terms, Term{Coef: coef, Vars: vs})
			}
			cons = append(cons, Constraint{Terms: terms, K: int64(r.Intn(21) - 10), Rel: Rel(r.Intn(3))})
		}
		probs = append(probs, cons)
	}
	box := NewBox(bounds)
	var sat, unsat int
	for i, cons := range probs {
		before := deepCopyCons(cons)
		res, err := Solve(Problem{Cons: cons, Bounds: bounds}, Options{})
		if err != nil {
			t.Fatalf("problem %d: Solve: %v", i, err)
		}
		if !reflect.DeepEqual(cons, before) {
			t.Fatalf("problem %d: Solve wrote into its input:\n got  %v\n want %v", i, cons, before)
		}
		bres, err := box.Solve(cons, Options{})
		if err != nil {
			t.Fatalf("problem %d: Box.Solve: %v", i, err)
		}
		if !reflect.DeepEqual(cons, before) {
			t.Fatalf("problem %d: Box.Solve wrote into its input:\n got  %v\n want %v", i, cons, before)
		}
		if res.Status != bres.Status {
			t.Fatalf("problem %d: Solve=%v Box.Solve=%v", i, res.Status, bres.Status)
		}
		if res.Status == Sat {
			sat++
		} else {
			unsat++
		}
	}
	if sat == 0 || unsat == 0 {
		t.Fatalf("battery one-sided: %d sat, %d unsat", sat, unsat)
	}
}
