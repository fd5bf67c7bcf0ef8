package smt

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"cpr/internal/expr"
	"cpr/internal/interval"
)

func TestSatisfies(t *testing.T) {
	x, y, p := expr.IntVar("x"), expr.IntVar("y"), expr.BoolVar("p")
	big := expr.Int(1 << 40)
	s := NewSolver(Options{})
	bounds := map[string]interval.Interval{"x": interval.New(-10, 10), "p": interval.New(1, 1)}
	for _, tc := range []struct {
		name string
		f    *expr.Term
		m    expr.Model
		want bool
	}{
		{"model", expr.And(expr.Gt(x, expr.Int(3)), p), expr.Model{"x": 4, "p": 1}, true},
		{"false", expr.Gt(x, expr.Int(3)), expr.Model{"x": 3}, false},
		{"unbound variable", expr.Gt(x, y), expr.Model{"x": 4}, false},
		{"outside explicit bound", expr.Gt(x, expr.Int(3)), expr.Model{"x": 11}, false},
		{"bool outside explicit bound", expr.Or(p, expr.Gt(x, expr.Int(3))), expr.Model{"x": 4, "p": 0}, false},
		{"outside default bound", expr.Gt(y, expr.Int(3)), expr.Model{"y": 1 << 31}, false},
		{"within default bound", expr.Gt(y, expr.Int(3)), expr.Model{"y": 1<<31 - 1}, true},
		{"exact sum beyond 32 bits", expr.Gt(expr.Add(y, big), big), expr.Model{"y": 1}, true},
		{"sum overflows int64", expr.Lt(expr.Add(y, expr.Int(math.MaxInt64)), expr.Int(0)), expr.Model{"y": 1}, false},
		{"difference overflows int64", expr.Gt(expr.Sub(y, expr.Int(math.MinInt64)), expr.Int(0)), expr.Model{"y": -1}, true},
		{"product overflows int64", expr.Lt(expr.Mul(big, expr.Mul(big, y)), expr.Int(1)), expr.Model{"y": 1}, false},
		{"zero divisor", expr.Eq(expr.Div(x, y), expr.Int(0)), expr.Model{"x": 1, "y": 0}, false},
		{"quotient", expr.Eq(expr.Div(x, y), expr.Int(-2)), expr.Model{"x": -7, "y": 3}, true},
		{"remainder", expr.Eq(expr.Rem(x, y), expr.Int(-1)), expr.Model{"x": -7, "y": 3}, true},
		{"quotient beyond default bound", expr.Gt(expr.Div(big, x), expr.Int(0)), expr.Model{"x": 1}, false},
		{"remainder beyond default bound", expr.Lt(expr.Rem(x, big), expr.Int(0)), expr.Model{"x": -1}, true},
		{"remainder at a divisor beyond default bound", expr.Gt(expr.Rem(big, expr.Add(big, x)), expr.Int(0)), expr.Model{"x": 1}, false},
		{"int ite beyond default bound", expr.Gt(expr.Ite(p, big, x), expr.Int(0)), expr.Model{"x": 1, "p": 1}, false},
		{"untaken ite branch beyond default bound", expr.Gt(expr.Ite(p, x, big), expr.Int(0)), expr.Model{"x": 1, "p": 1}, true},
		// Purification defines the quotient wherever it occurs, so a
		// disjunct that is already true does not excuse it.
		{"no short circuit", expr.Or(p, expr.Gt(expr.Div(big, x), expr.Int(0))), expr.Model{"x": 1, "p": 1}, false},
	} {
		if got := s.Satisfies(tc.f, bounds, tc.m); got != tc.want {
			t.Errorf("%s: Satisfies(%v, %v) = %v, want %v", tc.name, tc.f, tc.m, got, tc.want)
		}
	}
}

// randIntTerm builds a random integer term over x and y with div, rem and
// ite, linear apart from them; divisors are variables or constants, as
// purification needs to keep b·q linearizable.
func randIntTerm(r *rand.Rand, depth int) *expr.Term {
	x, y := expr.IntVar("x"), expr.IntVar("y")
	leaf := func() *expr.Term { return []*expr.Term{x, y, expr.Int(int64(r.Intn(21) - 10))}[r.Intn(3)] }
	if depth == 0 {
		return leaf()
	}
	a, b := randIntTerm(r, depth-1), randIntTerm(r, depth-1)
	switch r.Intn(6) {
	case 0:
		return expr.Add(a, b)
	case 1:
		return expr.Sub(a, b)
	case 2:
		return expr.Mul(expr.Int(int64(r.Intn(7)-3)), a)
	case 3:
		return expr.Div(a, leaf())
	case 4:
		return expr.Rem(a, leaf())
	default:
		return expr.Ite(expr.Or(expr.BoolVar("p"), expr.Le(a, b)), a, b)
	}
}

// TestSatisfiesAgreesWithSolver: whenever Satisfies accepts a model, the
// solver, with every variable pinned to the model's value, does not find f
// unsat. The default bound is narrower than the variables' explicit
// bounds, so purification's bounded auxiliaries (quotients, remainders,
// ite values) decide many of the cases. A query the solver gives up on
// checks nothing and is skipped.
func TestSatisfiesAgreesWithSolver(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	s := NewSolver(Options{DefaultBounds: interval.New(-6, 6), MaxTheoryRounds: 100})
	bounds := map[string]interval.Interval{"x": interval.New(-12, 12), "y": interval.New(-12, 12)}
	accepted, skipped := 0, 0
	for iter := 0; iter < 300; iter++ {
		f := expr.Le(randIntTerm(r, 2), randIntTerm(r, 2))
		if r.Intn(2) == 0 {
			f = expr.Or(f, expr.Eq(randIntTerm(r, 1), expr.Int(0)))
		}
		for k := 0; k < 8; k++ {
			m := expr.Model{"x": int64(r.Intn(25) - 12), "y": int64(r.Intn(25) - 12), "p": int64(r.Intn(2))}
			if !s.Satisfies(f, bounds, m) {
				continue
			}
			pinned := map[string]interval.Interval{}
			for name, v := range m {
				pinned[name] = interval.Point(v)
			}
			res, err := s.Check(f, pinned)
			if errors.Is(err, ErrBudget) {
				skipped++
				continue
			}
			if err != nil {
				t.Fatalf("iter %d: Check(%v): %v", iter, f, err)
			}
			accepted++
			if res.Status != Sat {
				t.Fatalf("iter %d: Satisfies accepted %v for %v, the solver answers %v", iter, m, f, res.Status)
			}
		}
	}
	t.Logf("%d accepted models checked, %d undecided", accepted, skipped)
	if accepted < 300 {
		t.Fatalf("only %d accepted models: the check is nearly vacuous", accepted)
	}
}
