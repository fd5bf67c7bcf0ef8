package smt

import (
	"math"
	"math/rand"
	"testing"

	"cpr/internal/expr"
	"cpr/internal/interval"
)

func newTestSolver() *Solver { return NewSolver(Options{}) }

func mustCheck(t *testing.T, s *Solver, f *expr.Term, bounds map[string]interval.Interval) Result {
	t.Helper()
	res, err := s.Check(f, bounds)
	if err != nil {
		t.Fatalf("Check(%v): %v", f, err)
	}
	return res
}

func TestBasicSatUnsat(t *testing.T) {
	s := newTestSolver()
	x, y := expr.IntVar("x"), expr.IntVar("y")
	f := expr.And(expr.Gt(x, expr.Int(3)), expr.Le(y, expr.Int(5)), expr.Eq(expr.Add(x, y), expr.Int(10)))
	res := mustCheck(t, s, f, nil)
	if res.Status != Sat {
		t.Fatalf("status %v", res.Status)
	}
	ok, err := expr.EvalBool(f, res.Model)
	if err != nil || !ok {
		t.Fatalf("model %v does not satisfy formula: %v %v", res.Model, ok, err)
	}
	g := expr.And(expr.Gt(x, expr.Int(3)), expr.Lt(x, expr.Int(2)))
	if res := mustCheck(t, s, g, nil); res.Status != Unsat {
		t.Fatalf("want unsat, got %v", res.Status)
	}
}

func TestBooleanStructure(t *testing.T) {
	s := newTestSolver()
	p, q := expr.BoolVar("p"), expr.BoolVar("q")
	x := expr.IntVar("x")
	f := expr.And(
		expr.Or(p, expr.Gt(x, expr.Int(0))),
		expr.Implies(p, q),
		expr.Not(q),
	)
	res := mustCheck(t, s, f, nil)
	if res.Status != Sat {
		t.Fatalf("status %v", res.Status)
	}
	if res.Model["p"] != 0 || res.Model["q"] != 0 || res.Model["x"] <= 0 {
		t.Fatalf("model %v", res.Model)
	}
	// p ⇔ ¬p is unsat.
	g := expr.Eq(p, expr.Not(p))
	if res := mustCheck(t, s, g, nil); res.Status != Unsat {
		t.Fatalf("want unsat, got %v", res.Status)
	}
}

func TestBoundsRespected(t *testing.T) {
	s := newTestSolver()
	a := expr.IntVar("a")
	bounds := map[string]interval.Interval{"a": interval.New(-10, 10)}
	f := expr.Gt(a, expr.Int(10))
	if res := mustCheck(t, s, f, bounds); res.Status != Unsat {
		t.Fatalf("a > 10 within [-10,10] should be unsat, got %v", res.Status)
	}
	f = expr.Gt(a, expr.Int(9))
	res := mustCheck(t, s, f, bounds)
	if res.Status != Sat || res.Model["a"] != 10 {
		t.Fatalf("got %v %v", res.Status, res.Model)
	}
}

// TestBoolBounds: a bound on a Bool variable restricts it as a bound on an
// Int variable does, on the scratch path (Check) and on the incremental
// context (Decide). The repair engine pins every input during validation
// phases, bool inputs included.
func TestBoolBounds(t *testing.T) {
	p, b := expr.BoolVar("p"), expr.BoolVar("b")
	f := expr.And(expr.Not(p), expr.Eq(p, b))
	one := map[string]interval.Interval{"b": interval.Point(1)}
	if res := mustCheck(t, newTestSolver(), f, one); res.Status != Unsat {
		t.Fatalf("Check with b in [1,1]: %v, want unsat", res.Status)
	}
	for _, inc := range []bool{false, true} {
		st, err := NewSolver(Options{Incremental: inc}).Decide(f, one)
		if err != nil || st != Unsat {
			t.Fatalf("Decide (incremental=%v) with b in [1,1]: %v (%v), want unsat", inc, st, err)
		}
	}
	zero := map[string]interval.Interval{"b": interval.Point(0)}
	res := mustCheck(t, newTestSolver(), f, zero)
	if res.Status != Sat || res.Model["b"] != 0 || res.Model["p"] != 0 {
		t.Fatalf("Check with b in [0,0]: %v %v, want sat with b = 0", res.Status, res.Model)
	}
	if res := mustCheck(t, newTestSolver(), p, map[string]interval.Interval{"p": interval.New(2, 5)}); res.Status != Unsat {
		t.Fatalf("Check with p in [2,5]: %v, want unsat", res.Status)
	}
}

func TestModelCoversBoundsVars(t *testing.T) {
	s := newTestSolver()
	x := expr.IntVar("x")
	bounds := map[string]interval.Interval{
		"x": interval.New(0, 5),
		"b": interval.New(3, 7), // not in the formula
	}
	res := mustCheck(t, s, expr.Ge(x, expr.Int(1)), bounds)
	if res.Status != Sat {
		t.Fatalf("status %v", res.Status)
	}
	if v, ok := res.Model["b"]; !ok || v < 3 || v > 7 {
		t.Fatalf("model must cover b within bounds, got %v", res.Model)
	}
}

func TestTrivialFormulas(t *testing.T) {
	s := newTestSolver()
	if res := mustCheck(t, s, expr.True(), nil); res.Status != Sat {
		t.Fatal("true should be sat")
	}
	if res := mustCheck(t, s, expr.False(), nil); res.Status != Unsat {
		t.Fatal("false should be unsat")
	}
	// Simplification alone discharges this.
	x := expr.IntVar("x")
	f := expr.Or(expr.Le(x, expr.Int(3)), expr.Gt(x, expr.Int(3)))
	if res := mustCheck(t, s, f, nil); res.Status != Sat {
		t.Fatal("tautology should be sat")
	}
}

func TestDivRemSemantics(t *testing.T) {
	s := newTestSolver()
	x := expr.IntVar("x")
	// x / 3 == 2 ∧ x % 3 == 2 → x = 8 (C semantics).
	f := expr.And(
		expr.Eq(expr.Div(x, expr.Int(3)), expr.Int(2)),
		expr.Eq(expr.Rem(x, expr.Int(3)), expr.Int(2)),
	)
	res := mustCheck(t, s, f, map[string]interval.Interval{"x": interval.New(-100, 100)})
	if res.Status != Sat || res.Model["x"] != 8 {
		t.Fatalf("got %v %v, want x=8", res.Status, res.Model)
	}
	// Negative dividend: -7 / 2 == -3 and -7 % 2 == -1 in C.
	f = expr.And(
		expr.Eq(x, expr.Int(-7)),
		expr.Eq(expr.Div(x, expr.Int(2)), expr.Int(-3)),
		expr.Eq(expr.Rem(x, expr.Int(2)), expr.Int(-1)),
	)
	if res := mustCheck(t, s, f, nil); res.Status != Sat {
		t.Fatalf("C division semantics violated: %v", res.Status)
	}
	f = expr.And(
		expr.Eq(x, expr.Int(-7)),
		expr.Eq(expr.Div(x, expr.Int(2)), expr.Int(-4)), // floor division: wrong for C
	)
	if res := mustCheck(t, s, f, nil); res.Status != Unsat {
		t.Fatalf("floor-division model admitted: %v", res.Status)
	}
}

func TestDivByZeroGuarded(t *testing.T) {
	s := newTestSolver()
	x, y := expr.IntVar("x"), expr.IntVar("y")
	// y = 0 ∨ x/y > 0: the y = 0 branch must remain satisfiable.
	f := expr.Or(expr.Eq(y, expr.Int(0)), expr.Gt(expr.Div(x, y), expr.Int(0)))
	bounds := map[string]interval.Interval{"x": interval.New(-50, 50), "y": interval.New(0, 0)}
	res := mustCheck(t, s, f, bounds)
	if res.Status != Sat {
		t.Fatalf("guarded division: got %v", res.Status)
	}
}

func TestIntegerIte(t *testing.T) {
	s := newTestSolver()
	x := expr.IntVar("x")
	p := expr.BoolVar("p")
	// ite(p, x, -x) == 5 ∧ x == -5 → p must be false.
	f := expr.And(
		expr.Eq(expr.Ite(p, x, expr.Neg(x)), expr.Int(5)),
		expr.Eq(x, expr.Int(-5)),
	)
	res := mustCheck(t, s, f, nil)
	if res.Status != Sat || res.Model["p"] != 0 {
		t.Fatalf("got %v %v", res.Status, res.Model)
	}
}

func TestNonlinearPatchShape(t *testing.T) {
	// The shape the synthesizer produces: x·a with a in a small box.
	s := newTestSolver()
	x, a := expr.IntVar("x"), expr.IntVar("a")
	f := expr.And(
		expr.Ge(expr.Mul(x, a), expr.Int(50)),
		expr.Le(x, expr.Int(10)),
		expr.Ge(x, expr.Int(0)),
	)
	bounds := map[string]interval.Interval{"a": interval.New(-10, 10)}
	res := mustCheck(t, s, f, bounds)
	if res.Status != Sat {
		t.Fatalf("status %v", res.Status)
	}
	if res.Model["x"]*res.Model["a"] < 50 {
		t.Fatalf("model violates constraint: %v", res.Model)
	}
}

func TestValid(t *testing.T) {
	s := newTestSolver()
	x := expr.IntVar("x")
	ok, err := s.Valid(expr.Or(expr.Le(x, expr.Int(0)), expr.Ge(x, expr.Int(0))), nil)
	if err != nil || !ok {
		t.Fatalf("tautology not valid: %v %v", ok, err)
	}
	ok, err = s.Valid(expr.Ge(x, expr.Int(0)), nil)
	if err != nil || ok {
		t.Fatalf("contingent formula reported valid")
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := newTestSolver()
	x := expr.IntVar("x")
	mustCheck(t, s, expr.Gt(x, expr.Int(0)), nil)
	mustCheck(t, s, expr.Lt(x, expr.Int(0)), nil)
	if s.Stats().SolverQueries != 2 || s.Stats().SatAnswers != 2 {
		t.Fatalf("stats %+v", s.Stats())
	}
}

// randFormula builds a random boolean formula over x, y (ints in small
// boxes) and p (bool), without div/rem so brute-force evaluation is total.
func randFormula(r *rand.Rand, depth int) *expr.Term {
	x, y := expr.IntVar("x"), expr.IntVar("y")
	if depth == 0 {
		c := expr.Int(int64(r.Intn(11) - 5))
		iv := []*expr.Term{x, y, expr.Add(x, y), expr.Sub(x, y), expr.Mul(x, y)}[r.Intn(5)]
		switch r.Intn(4) {
		case 0:
			return expr.Le(iv, c)
		case 1:
			return expr.Gt(iv, c)
		case 2:
			return expr.Eq(iv, c)
		default:
			return expr.BoolVar("p")
		}
	}
	a := randFormula(r, depth-1)
	b := randFormula(r, depth-1)
	switch r.Intn(5) {
	case 0:
		return expr.And(a, b)
	case 1:
		return expr.Or(a, b)
	case 2:
		return expr.Not(a)
	case 3:
		return expr.Implies(a, b)
	default:
		return expr.Eq(a, b)
	}
}

// TestRandomDifferential compares the SMT solver against brute-force
// enumeration over a small box.
func TestRandomDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	bounds := map[string]interval.Interval{
		"x": interval.New(-3, 3),
		"y": interval.New(-3, 3),
	}
	for iter := 0; iter < 200; iter++ {
		f := randFormula(r, 3)
		s := newTestSolver()
		res, err := s.Check(f, bounds)
		if err != nil {
			t.Fatalf("iter %d: %v (formula %v)", iter, err, f)
		}
		want := false
		for x := int64(-3); x <= 3 && !want; x++ {
			for y := int64(-3); y <= 3 && !want; y++ {
				for _, p := range []int64{0, 1} {
					v, err := expr.EvalBool(f, expr.Model{"x": x, "y": y, "p": p})
					if err != nil {
						t.Fatalf("eval: %v", err)
					}
					if v {
						want = true
						break
					}
				}
			}
		}
		if (res.Status == Sat) != want {
			t.Fatalf("iter %d: solver=%v brute=%v formula=%v", iter, res.Status, want, f)
		}
		if res.Status == Sat {
			m := res.Model
			if _, ok := m["p"]; !ok {
				m["p"] = 0
			}
			ok, err := expr.EvalBool(f, m)
			if err != nil || !ok {
				t.Fatalf("iter %d: model %v does not satisfy %v (%v)", iter, m, f, err)
			}
		}
	}
}

// TestRandomDivRem checks div/rem purification against evaluation.
func TestRandomDivRem(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for iter := 0; iter < 100; iter++ {
		a := int64(r.Intn(41) - 20)
		b := int64(r.Intn(10)) + 1
		if r.Intn(2) == 0 {
			b = -b
		}
		x := expr.IntVar("x")
		f := expr.And(
			expr.Eq(x, expr.Int(a)),
			expr.Eq(expr.Div(x, expr.Int(b)), expr.Int(a/b)),
			expr.Eq(expr.Rem(x, expr.Int(b)), expr.Int(a%b)),
		)
		s := newTestSolver()
		res, err := s.Check(f, nil)
		if err != nil || res.Status != Sat {
			t.Fatalf("iter %d: %d/%d: got %v %v", iter, a, b, res.Status, err)
		}
		// And the wrong quotient must be rejected.
		g := expr.And(
			expr.Eq(x, expr.Int(a)),
			expr.Eq(expr.Div(x, expr.Int(b)), expr.Int(a/b+1)),
		)
		res, err = s.Check(g, nil)
		if err != nil || res.Status != Unsat {
			t.Fatalf("iter %d: wrong quotient admitted for %d/%d: %v %v", iter, a, b, res.Status, err)
		}
	}
}

func BenchmarkCheckConjunction(b *testing.B) {
	x, y, z := expr.IntVar("x"), expr.IntVar("y"), expr.IntVar("z")
	f := expr.And(
		expr.Gt(x, expr.Int(3)),
		expr.Le(y, expr.Int(5)),
		expr.Eq(expr.Add(x, y, z), expr.Int(10)),
		expr.Or(expr.Lt(z, expr.Int(0)), expr.Gt(z, expr.Int(2))),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSolver(Options{})
		res, err := s.Check(f, nil)
		if err != nil || res.Status != Sat {
			b.Fatalf("got %v %v", res.Status, err)
		}
	}
}

// TestMinInt64LowerBound: a lower bound of −2^63 must not turn into
// x ≥ 2^63 in the LIA tier: x + y ≤ 0 ∧ x − y ≤ 0 is sat (x = y = 0), on
// every entry point, with the incremental context on and off.
func TestMinInt64LowerBound(t *testing.T) {
	x, y := expr.IntVar("x"), expr.IntVar("y")
	f := expr.And(expr.Le(expr.Add(x, y), expr.Int(0)), expr.Le(expr.Sub(x, y), expr.Int(0)))
	bounds := map[string]interval.Interval{"x": interval.New(math.MinInt64, 0), "y": interval.New(0, 10)}
	for _, incremental := range []bool{false, true} {
		s := NewSolver(Options{Incremental: incremental})
		res := mustCheck(t, s, f, bounds)
		if res.Status != Sat {
			t.Fatalf("incremental=%v: Check: status %v, want sat", incremental, res.Status)
		}
		if ok, err := expr.EvalBool(f, res.Model); err != nil || !ok {
			t.Fatalf("incremental=%v: model %v does not satisfy the formula: %v %v", incremental, res.Model, ok, err)
		}
		if st, err := s.Decide(f, bounds); err != nil || st != Sat {
			t.Fatalf("incremental=%v: Decide: %v %v, want sat", incremental, st, err)
		}
	}
}
