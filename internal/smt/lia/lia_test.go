package lia

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"cpr/internal/interval"
)

func iv(lo, hi int64) interval.Interval { return interval.New(lo, hi) }

func lin(coef int64, v string) Term { return Term{Coef: coef, Vars: []string{v}} }

func solve(t *testing.T, p Problem) Result {
	t.Helper()
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func TestSimpleSat(t *testing.T) {
	// x + y ≤ 5, x ≥ 3 → sat
	p := Problem{
		Cons: []Constraint{
			{Terms: []Term{lin(1, "x"), lin(1, "y")}, K: 5, Rel: RelLe},
			{Terms: []Term{lin(-1, "x")}, K: -3, Rel: RelLe},
		},
		Bounds: map[string]interval.Interval{"x": iv(-100, 100), "y": iv(-100, 100)},
	}
	res := solve(t, p)
	if res.Status != Sat {
		t.Fatalf("status %v", res.Status)
	}
	if res.Model["x"] < 3 || res.Model["x"]+res.Model["y"] > 5 {
		t.Fatalf("bad model %v", res.Model)
	}
}

func TestSimpleUnsat(t *testing.T) {
	// x + y ≤ 0 ∧ x + y ≥ 1: needs FM, not just propagation.
	p := Problem{
		Cons: []Constraint{
			{Terms: []Term{lin(1, "x"), lin(1, "y")}, K: 0, Rel: RelLe},
			{Terms: []Term{lin(-1, "x"), lin(-1, "y")}, K: -1, Rel: RelLe},
		},
		Bounds: map[string]interval.Interval{"x": iv(-2147483648, 2147483647), "y": iv(-2147483648, 2147483647)},
	}
	if res := solve(t, p); res.Status != Unsat {
		t.Fatalf("status %v, want unsat", res.Status)
	}
}

func TestIntegrality(t *testing.T) {
	// 2x = 1 is rationally feasible but has no integer solution.
	p := Problem{
		Cons:   []Constraint{{Terms: []Term{lin(2, "x")}, K: 1, Rel: RelEq}},
		Bounds: map[string]interval.Interval{"x": iv(-1000, 1000)},
	}
	if res := solve(t, p); res.Status != Unsat {
		t.Fatalf("2x=1 should be unsat over Z, got %v", res.Status)
	}
	// 2x = 1 mixed with y: 2x - 2y = 1.
	p = Problem{
		Cons:   []Constraint{{Terms: []Term{lin(2, "x"), lin(-2, "y")}, K: 1, Rel: RelEq}},
		Bounds: map[string]interval.Interval{"x": iv(-50, 50), "y": iv(-50, 50)},
	}
	if res := solve(t, p); res.Status != Unsat {
		t.Fatalf("2x-2y=1 should be unsat over Z, got %v", res.Status)
	}
}

func TestDisequality(t *testing.T) {
	// x = 3 ∧ x ≠ 3 → unsat; x∈[3,4] ∧ x ≠ 3 → x=4.
	p := Problem{
		Cons: []Constraint{
			{Terms: []Term{lin(1, "x")}, K: 3, Rel: RelEq},
			{Terms: []Term{lin(1, "x")}, K: 3, Rel: RelNe},
		},
		Bounds: map[string]interval.Interval{"x": iv(-10, 10)},
	}
	if res := solve(t, p); res.Status != Unsat {
		t.Fatalf("want unsat, got %v", res.Status)
	}
	p = Problem{
		Cons: []Constraint{
			{Terms: []Term{lin(1, "x")}, K: 3, Rel: RelNe},
		},
		Bounds: map[string]interval.Interval{"x": iv(3, 4)},
	}
	res := solve(t, p)
	if res.Status != Sat || res.Model["x"] != 4 {
		t.Fatalf("want x=4, got %v %v", res.Status, res.Model)
	}
}

func TestNonlinearEnumeration(t *testing.T) {
	// x·a ≥ 50 with a ∈ [-10,10], x ∈ [0, 1000]: sat (e.g. a=1, x=50).
	p := Problem{
		Cons: []Constraint{
			{Terms: []Term{{Coef: -1, Vars: []string{"a", "x"}}}, K: -50, Rel: RelLe},
		},
		Bounds: map[string]interval.Interval{"x": iv(0, 1000), "a": iv(-10, 10)},
	}
	res := solve(t, p)
	if res.Status != Sat {
		t.Fatalf("status %v", res.Status)
	}
	if res.Model["a"]*res.Model["x"] < 50 {
		t.Fatalf("model violates constraint: %v", res.Model)
	}
	// x·a ≥ 50, x ∈ [0,4], a ∈ [0,4]: max product 16 → unsat.
	p.Bounds = map[string]interval.Interval{"x": iv(0, 4), "a": iv(0, 4)}
	if res := solve(t, p); res.Status != Unsat {
		t.Fatalf("want unsat, got %v", res.Status)
	}
}

func TestSquare(t *testing.T) {
	// a² = 49, a ∈ [-10,10]: sat with a = ±7.
	p := Problem{
		Cons:   []Constraint{{Terms: []Term{{Coef: 1, Vars: []string{"a", "a"}}}, K: 49, Rel: RelEq}},
		Bounds: map[string]interval.Interval{"a": iv(-10, 10)},
	}
	res := solve(t, p)
	if res.Status != Sat || res.Model["a"]*res.Model["a"] != 49 {
		t.Fatalf("got %v %v", res.Status, res.Model)
	}
	// a² = 50: unsat.
	p.Cons[0].K = 50
	if res := solve(t, p); res.Status != Unsat {
		t.Fatalf("a²=50 should be unsat, got %v", res.Status)
	}
}

func TestUnboundedVarRejected(t *testing.T) {
	p := Problem{
		Cons:   []Constraint{{Terms: []Term{lin(1, "x")}, K: 0, Rel: RelLe}},
		Bounds: map[string]interval.Interval{},
	}
	if _, err := Solve(p, Options{}); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("want ErrUnbounded, got %v", err)
	}
}

func TestEnumLimit(t *testing.T) {
	p := Problem{
		Cons: []Constraint{
			{Terms: []Term{{Coef: 1, Vars: []string{"x", "y"}}}, K: 0, Rel: RelLe},
		},
		Bounds: map[string]interval.Interval{
			"x": iv(-2147483648, 2147483647),
			"y": iv(-2147483648, 2147483647),
		},
	}
	if _, err := Solve(p, Options{EnumLimit: 64}); !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

func TestEmptyBoundsUnsat(t *testing.T) {
	p := Problem{Bounds: map[string]interval.Interval{"x": interval.Empty()}}
	res := solve(t, p)
	if res.Status != Unsat {
		t.Fatalf("empty domain should be unsat, got %v", res.Status)
	}
}

func TestUnconstrainedVarsGetValues(t *testing.T) {
	p := Problem{Bounds: map[string]interval.Interval{"x": iv(5, 9)}}
	res := solve(t, p)
	if res.Status != Sat || res.Model["x"] < 5 || res.Model["x"] > 9 {
		t.Fatalf("got %v %v", res.Status, res.Model)
	}
}

// bruteSat decides the problem by enumerating all points of the bounds box.
func bruteSat(p Problem, names []string) bool {
	pt := make(map[string]int64, len(names))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(names) {
			for _, c := range p.Cons {
				var sum int64
				for _, t := range c.Terms {
					v := t.Coef
					for _, n := range t.Vars {
						v *= pt[n]
					}
					sum += v
				}
				ok := false
				switch c.Rel {
				case RelLe:
					ok = sum <= c.K
				case RelEq:
					ok = sum == c.K
				case RelNe:
					ok = sum != c.K
				}
				if !ok {
					return false
				}
			}
			return true
		}
		b := p.Bounds[names[i]]
		for v := b.Lo; v <= b.Hi; v++ {
			pt[names[i]] = v
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

func checkModel(t *testing.T, p Problem, m map[string]int64) {
	t.Helper()
	for n, b := range p.Bounds {
		v, ok := m[n]
		if !ok || !b.Contains(v) {
			t.Fatalf("model %v misses or violates bounds of %s", m, n)
		}
	}
	for _, c := range p.Cons {
		var sum int64
		for _, tm := range c.Terms {
			v := tm.Coef
			for _, n := range tm.Vars {
				v *= m[n]
			}
			sum += v
		}
		ok := false
		switch c.Rel {
		case RelLe:
			ok = sum <= c.K
		case RelEq:
			ok = sum == c.K
		case RelNe:
			ok = sum != c.K
		}
		if !ok {
			t.Fatalf("model %v violates %v (sum=%d)", m, c, sum)
		}
	}
}

// TestRandomDifferential compares the solver against brute force over
// small boxes, with linear and mildly nonlinear random systems.
func TestRandomDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	names := []string{"x", "y", "z"}
	for iter := 0; iter < 300; iter++ {
		p := Problem{Bounds: map[string]interval.Interval{}}
		for _, n := range names {
			lo := int64(r.Intn(9) - 4)
			p.Bounds[n] = iv(lo, lo+int64(r.Intn(6)))
		}
		nCons := 1 + r.Intn(4)
		for i := 0; i < nCons; i++ {
			var terms []Term
			nTerms := 1 + r.Intn(3)
			for j := 0; j < nTerms; j++ {
				coef := int64(r.Intn(9) - 4)
				if coef == 0 {
					coef = 1
				}
				vs := []string{names[r.Intn(3)]}
				if r.Intn(5) == 0 { // occasionally nonlinear
					vs = append(vs, names[r.Intn(3)])
					if vs[0] > vs[1] {
						vs[0], vs[1] = vs[1], vs[0]
					}
				}
				terms = append(terms, Term{Coef: coef, Vars: vs})
			}
			p.Cons = append(p.Cons, Constraint{
				Terms: terms,
				K:     int64(r.Intn(21) - 10),
				Rel:   Rel(r.Intn(3)),
			})
		}
		res, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("iter %d: %v (problem %+v)", iter, err, p)
		}
		want := bruteSat(p, names)
		if (res.Status == Sat) != want {
			t.Fatalf("iter %d: solver=%v brute=%v problem=%+v", iter, res.Status, want, p)
		}
		if res.Status == Sat {
			checkModel(t, p, res.Model)
		}
	}
}

// TestWideBoundsLinear exercises 32-bit-style bounds where enumeration is
// impossible and FM must carry the weight.
func TestWideBoundsLinear(t *testing.T) {
	const lo, hi = -2147483648, 2147483647
	// 3x + 5y = 1 has integer solutions (x=2, y=-1).
	p := Problem{
		Cons:   []Constraint{{Terms: []Term{lin(3, "x"), lin(5, "y")}, K: 1, Rel: RelEq}},
		Bounds: map[string]interval.Interval{"x": iv(lo, hi), "y": iv(lo, hi)},
	}
	res := solve(t, p)
	if res.Status != Sat {
		t.Fatalf("3x+5y=1 should be sat, got %v", res.Status)
	}
	if 3*res.Model["x"]+5*res.Model["y"] != 1 {
		t.Fatalf("bad model %v", res.Model)
	}
	// x > y ∧ y > x is unsat.
	p = Problem{
		Cons: []Constraint{
			{Terms: []Term{lin(-1, "x"), lin(1, "y")}, K: -1, Rel: RelLe}, // y - x ≤ -1: x > y
			{Terms: []Term{lin(1, "x"), lin(-1, "y")}, K: -1, Rel: RelLe}, // x - y ≤ -1: y > x
		},
		Bounds: map[string]interval.Interval{"x": iv(lo, hi), "y": iv(lo, hi)},
	}
	if res := solve(t, p); res.Status != Unsat {
		t.Fatalf("x>y ∧ y>x should be unsat, got %v", res.Status)
	}
}

func BenchmarkLinearChain(b *testing.B) {
	// x1 ≤ x2 ≤ ... ≤ x8, x8 ≤ x1 - 1 (unsat chain).
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	p := Problem{Bounds: map[string]interval.Interval{}}
	for _, n := range names {
		p.Bounds[n] = iv(-1000000, 1000000)
	}
	for i := 0; i+1 < len(names); i++ {
		p.Cons = append(p.Cons, Constraint{
			Terms: []Term{lin(1, names[i]), lin(-1, names[i+1])}, K: 0, Rel: RelLe,
		})
	}
	p.Cons = append(p.Cons, Constraint{
		Terms: []Term{lin(1, names[len(names)-1]), lin(-1, names[0])}, K: -1, Rel: RelLe,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Solve(p, Options{})
		if err != nil || res.Status != Unsat {
			b.Fatalf("got %v %v", res.Status, err)
		}
	}
}

// TestMinInt64LowerBound: the bound row x ≥ −2^63 is −x ≤ 2^63, which
// int64 cannot hold. Negating it in int64 wrapped it to −x ≤ −2^63, i.e.
// x ≥ 2^63, so x + y ≤ 0 ∧ x − y ≤ 0 came back unsat although x = y = 0
// satisfies it.
func TestMinInt64LowerBound(t *testing.T) {
	p := Problem{
		Cons: []Constraint{
			{Terms: []Term{lin(1, "x"), lin(1, "y")}, K: 0, Rel: RelLe},
			{Terms: []Term{lin(1, "x"), lin(-1, "y")}, K: 0, Rel: RelLe},
		},
		Bounds: map[string]interval.Interval{"x": iv(math.MinInt64, 0), "y": iv(0, 10)},
	}
	res := solve(t, p)
	if res.Status != Sat {
		t.Fatalf("Solve: status %v, want sat", res.Status)
	}
	checkModel(t, p, res.Model)
	bres, err := NewBox(p.Bounds).Solve(p.Cons, Options{})
	if err != nil || bres.Status != Sat {
		t.Fatalf("Box.Solve: %v %v, want sat", bres.Status, err)
	}
	checkModel(t, p, bres.Model)
}
