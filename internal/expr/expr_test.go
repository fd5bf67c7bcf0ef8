package expr

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestInterning(t *testing.T) {
	a := Add(IntVar("x"), Int(1))
	b := Add(IntVar("x"), Int(1))
	if a != b {
		t.Fatalf("structurally equal terms not interned: %p vs %p", a, b)
	}
	if a == Add(IntVar("x"), Int(2)) {
		t.Fatalf("distinct terms interned together")
	}
}

func TestConstructorFolding(t *testing.T) {
	x := IntVar("x")
	cases := []struct {
		got  *Term
		want *Term
	}{
		{Add(Int(2), Int(3)), Int(5)},
		{Add(x, Int(0)), x},
		{Add(), Int(0)},
		{Sub(Int(7), Int(3)), Int(4)},
		{Sub(x, Int(0)), x},
		{Sub(x, x), Int(0)},
		{Mul(Int(2), Int(3)), Int(6)},
		{Mul(x, Int(0)), Int(0)},
		{Mul(x, Int(1)), x},
		{Mul(x, Int(-1)), Neg(x)},
		{Div(Int(7), Int(2)), Int(3)},
		{Div(Int(-7), Int(2)), Int(-3)}, // C truncation
		{Div(x, Int(1)), x},
		{Rem(Int(-7), Int(2)), Int(-1)}, // C remainder
		{Rem(x, Int(1)), Int(0)},
		{Neg(Neg(x)), x},
		{Eq(Int(1), Int(1)), True()},
		{Ne(Int(1), Int(1)), False()},
		{Lt(Int(1), Int(2)), True()},
		{Le(x, x), True()},
		{Lt(x, x), False()},
		{And(), True()},
		{And(True(), True()), True()},
		{And(BoolVar("p"), False()), False()},
		{And(BoolVar("p"), True()), BoolVar("p")},
		{Or(), False()},
		{Or(BoolVar("p"), True()), True()},
		{Or(BoolVar("p"), False()), BoolVar("p")},
		{Not(Not(BoolVar("p"))), BoolVar("p")},
		{Not(True()), False()},
		{Not(Lt(x, Int(3))), Ge(x, Int(3))},
		{Implies(False(), BoolVar("p")), True()},
		{Implies(True(), BoolVar("p")), BoolVar("p")},
		{Ite(True(), Int(1), Int(2)), Int(1)},
		{Ite(False(), Int(1), Int(2)), Int(2)},
		{Ite(BoolVar("p"), x, x), x},
		{Ite(BoolVar("p"), True(), False()), BoolVar("p")},
	}
	for i, c := range cases {
		if c.got != c.want {
			t.Errorf("case %d: got %v, want %v", i, c.got, c.want)
		}
	}
}

func TestAndOrFlattenDedup(t *testing.T) {
	p, q := BoolVar("p"), BoolVar("q")
	got := And(p, And(q, p))
	want := And(p, q)
	if got != want {
		t.Fatalf("And flatten/dedup: got %v, want %v", got, want)
	}
	got = Or(p, Or(p, q), q)
	want = Or(p, q)
	if got != want {
		t.Fatalf("Or flatten/dedup: got %v, want %v", got, want)
	}
}

func TestEval(t *testing.T) {
	x, y := IntVar("x"), IntVar("y")
	m := Model{"x": 7, "y": 0}
	f := And(Gt(x, Int(3)), Le(y, Int(5)))
	v, err := Eval(f, m)
	if err != nil || v != 1 {
		t.Fatalf("Eval(%v) = %d, %v; want 1, nil", f, v, err)
	}
	if _, err := Eval(Div(x, y), m); err == nil {
		t.Fatal("expected division-by-zero error")
	}
	if _, err := Eval(IntVar("zzz"), m); err == nil {
		t.Fatal("expected unbound-variable error")
	}
	// Short-circuit: And with false guard must not evaluate the division.
	v, err = Eval(And(False(), Eq(Div(x, y), Int(0))), Model{"x": 1, "y": 0})
	if err != nil || v != 0 {
		t.Fatalf("short-circuit And: got %d, %v", v, err)
	}
}

func TestSubst(t *testing.T) {
	x, y := IntVar("x"), IntVar("y")
	f := Add(x, Mul(Int(2), y))
	g := Subst(f, map[string]*Term{"x": Int(3), "y": Int(4)})
	if g != Int(11) {
		t.Fatalf("Subst folded to %v, want 11", g)
	}
	h := Subst(f, map[string]*Term{"x": y})
	if !ContainsVar(h, "y") || ContainsVar(h, "x") {
		t.Fatalf("Subst rename failed: %v", h)
	}
}

func TestVars(t *testing.T) {
	f := And(Gt(IntVar("b"), Int(0)), Eq(IntVar("a"), IntVar("c")))
	names := VarNames(f)
	want := []string{"a", "b", "c"}
	if len(names) != 3 {
		t.Fatalf("VarNames = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("VarNames = %v, want %v", names, want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	vars := map[string]Sort{"x": SortInt, "y": SortInt, "p": SortBool}
	cases := []string{
		"(and (> x 3) (<= y 5))",
		"(or (= x y) (distinct x 0))",
		"(+ x (* 2 y) (- 7))",
		"(ite p x (- x))",
		"(=> p (< x 10))",
		"(div x 3)",
		"(rem x 3)",
	}
	for _, src := range cases {
		tm, err := Parse(src, vars)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		back, err := Parse(tm.String(), vars)
		if err != nil {
			t.Fatalf("re-Parse(%q from %q): %v", tm.String(), src, err)
		}
		if back != tm {
			t.Errorf("round trip %q -> %v -> %v", src, tm, back)
		}
	}
}

func TestParseErrors(t *testing.T) {
	vars := map[string]Sort{"x": SortInt}
	for _, src := range []string{"", "(", "(and", "(+ x q)", "(foo 1 2)", "x y", "(not x)"} {
		if _, err := Parse(src, vars); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		}
	}
}

func TestCString(t *testing.T) {
	x, y, a, b := IntVar("x"), IntVar("y"), IntVar("a"), IntVar("b")
	cases := []struct {
		t    *Term
		want string
	}{
		{Or(Eq(x, a), Eq(y, b)), "a == x || b == y"}, // Eq canonicalizes operand order
		{Ge(x, a), "x >= a"},
		{And(Gt(x, Int(3)), Le(y, Int(5))), "x > 3 && y <= 5"},
		{Mul(Add(x, Int(1)), y), "y * (x + 1)"}, // Mul canonicalizes operand order
		{Sub(x, Sub(y, Int(1))), "x - (y - 1)"},
		{Not(Gt(x, Int(0))), "x <= 0"}, // Not flips the comparison
		{Not(BoolVar("p")), "!p"},
	}
	for _, c := range cases {
		if got := CString(c.t); got != c.want {
			t.Errorf("CString(%v) = %q, want %q", c.t, got, c.want)
		}
	}
}

func TestSimplifyNormalizesEquivalentAtoms(t *testing.T) {
	x, y := IntVar("x"), IntVar("y")
	a := Simplify(Gt(Add(x, Int(1)), y)) // x+1 > y  ⇔  y - x ≤ 0
	b := Simplify(Ge(x, y))              // x ≥ y    ⇔  y - x ≤ 0
	if a != b {
		t.Fatalf("equivalent atoms differ after Simplify: %v vs %v", a, b)
	}
	c := Simplify(Lt(Mul(Int(2), x), Int(7))) // 2x < 7 ⇔ 2x ≤ 6 ⇔ x ≤ 3
	d := Simplify(Le(x, Int(3)))
	if c != d {
		t.Fatalf("gcd tightening failed: %v vs %v", c, d)
	}
	if got := Simplify(Eq(Mul(Int(2), x), Int(5))); got != False() {
		t.Fatalf("2x = 5 should simplify to false, got %v", got)
	}
	if got := Simplify(Ne(Mul(Int(2), x), Int(5))); got != True() {
		t.Fatalf("2x ≠ 5 should simplify to true, got %v", got)
	}
}

// randTerm builds a random well-sorted term over x, y, p using only
// total operators (no div/rem), so evaluation cannot fail.
func randTerm(r *rand.Rand, depth int, sort Sort) *Term {
	if depth == 0 {
		if sort == SortInt {
			switch r.Intn(3) {
			case 0:
				return IntVar("x")
			case 1:
				return IntVar("y")
			default:
				return Int(int64(r.Intn(21) - 10))
			}
		}
		switch r.Intn(3) {
		case 0:
			return BoolVar("p")
		case 1:
			return True()
		default:
			return False()
		}
	}
	if sort == SortInt {
		switch r.Intn(5) {
		case 0:
			return Add(randTerm(r, depth-1, SortInt), randTerm(r, depth-1, SortInt))
		case 1:
			return Sub(randTerm(r, depth-1, SortInt), randTerm(r, depth-1, SortInt))
		case 2:
			return Mul(randTerm(r, depth-1, SortInt), randTerm(r, depth-1, SortInt))
		case 3:
			return Neg(randTerm(r, depth-1, SortInt))
		default:
			return Ite(randTerm(r, depth-1, SortBool), randTerm(r, depth-1, SortInt), randTerm(r, depth-1, SortInt))
		}
	}
	switch r.Intn(7) {
	case 0:
		return And(randTerm(r, depth-1, SortBool), randTerm(r, depth-1, SortBool))
	case 1:
		return Or(randTerm(r, depth-1, SortBool), randTerm(r, depth-1, SortBool))
	case 2:
		return Not(randTerm(r, depth-1, SortBool))
	case 3:
		return Lt(randTerm(r, depth-1, SortInt), randTerm(r, depth-1, SortInt))
	case 4:
		return Le(randTerm(r, depth-1, SortInt), randTerm(r, depth-1, SortInt))
	case 5:
		return Eq(randTerm(r, depth-1, SortInt), randTerm(r, depth-1, SortInt))
	default:
		return Implies(randTerm(r, depth-1, SortBool), randTerm(r, depth-1, SortBool))
	}
}

// TestSimplifyPreservesSemantics: Simplify(t) evaluates identically to t.
func TestSimplifyPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(x, y int8, p bool) bool {
		tm := randTerm(r, 3, SortBool)
		m := Model{"x": int64(x), "y": int64(y), "p": b2i(p)}
		v1, err1 := Eval(tm, m)
		v2, err2 := Eval(Simplify(tm), m)
		if err1 != nil || err2 != nil {
			return false
		}
		return v1 == v2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSubstThenEvalEqualsEvalExtended: substituting constants then
// evaluating equals evaluating with the bindings in the model.
func TestSubstThenEvalEqualsEvalExtended(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func(x, y int8, p bool) bool {
		tm := randTerm(r, 3, SortBool)
		m := Model{"x": int64(x), "y": int64(y), "p": b2i(p)}
		v1, err1 := Eval(tm, m)
		sub := map[string]*Term{"x": Int(int64(x)), "y": Int(int64(y)), "p": Bool(p)}
		v2, err2 := Eval(Subst(tm, sub), Model{})
		if err1 != nil || err2 != nil {
			return false
		}
		return v1 == v2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestParsePrintRandom: printing then parsing returns the same interned term.
func TestParsePrintRandom(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	vars := map[string]Sort{"x": SortInt, "y": SortInt, "p": SortBool}
	for i := 0; i < 300; i++ {
		tm := randTerm(r, 4, SortBool)
		back, err := Parse(tm.String(), vars)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tm.String(), err)
		}
		if back != tm {
			t.Fatalf("print/parse: %v != %v", tm, back)
		}
	}
}

func TestLinearize(t *testing.T) {
	x, y := IntVar("x"), IntVar("y")
	// 2x + 3(y - x) + 4  =  -x + 3y + 4... wait: 2x + 3y - 3x + 4 = -x + 3y + 4
	s := Linearize(Add(Mul(Int(2), x), Mul(Int(3), Sub(y, x)), Int(4)))
	if s.Const != 4 || s.Coeff[x] != -1 || s.Coeff[y] != 3 {
		t.Fatalf("Linearize: got coeffs %v const %d", s.Coeff, s.Const)
	}
	// Nonlinear product stays an atom.
	s = Linearize(Mul(x, y))
	if len(s.Coeff) != 1 {
		t.Fatalf("Linearize nonlinear: %v", s.Coeff)
	}
}

func TestTermSizeAndCompare(t *testing.T) {
	x := IntVar("x")
	f := And(Gt(x, Int(0)), Lt(x, Int(10)))
	if f.Size() < 5 {
		t.Fatalf("Size too small: %d", f.Size())
	}
	if x.Compare(x) != 0 {
		t.Fatal("Compare self != 0")
	}
	y := IntVar("y")
	if x.Compare(y)+y.Compare(x) != 0 {
		t.Fatal("Compare not antisymmetric")
	}
}

// TestInternHitPathAllocFree: rebuilding an existing term must not
// allocate — the candidate stays on the caller's stack and interning is
// by value. This is the hot path of every path-constraint rebuild.
func TestInternHitPathAllocFree(t *testing.T) {
	x := IntVar("x")
	Ge(x, Int(41)) // populate
	allocs := testing.AllocsPerRun(100, func() {
		Ge(x, Int(41))
	})
	if allocs != 0 {
		t.Errorf("intern hit path allocates %.1f times per term", allocs)
	}
}

// BenchmarkIntern measures term construction, the hottest shared
// operation in the system, on the hit path (b.N rebuilds of one formula)
// and the miss path (fresh constants each iteration).
func BenchmarkIntern(b *testing.B) {
	x, y := IntVar("x"), IntVar("y")
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			And(Ge(x, Int(0)), Lt(Add(x, y), Int(50)))
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Ge(x, Int(int64(i)+1000000))
		}
	})
}

// randSummaryTerm builds a random well-sorted term over x, y and the Bool
// variables p, q and patch!out!0, with div, rem and ite of both sorts
// among its operators.
func randSummaryTerm(r *rand.Rand, depth int, sort Sort) *Term {
	if depth == 0 || r.Intn(4) == 0 {
		if sort == SortInt {
			return []*Term{IntVar("x"), IntVar("y"), Int(int64(r.Intn(7) - 3))}[r.Intn(3)]
		}
		return []*Term{BoolVar("p"), BoolVar("q"), BoolVar("patch!out!0"), True()}[r.Intn(4)]
	}
	sub := func(s Sort) *Term { return randSummaryTerm(r, depth-1, s) }
	if sort == SortInt {
		switch r.Intn(6) {
		case 0:
			return Add(sub(SortInt), sub(SortInt))
		case 1:
			return Mul(sub(SortInt), sub(SortInt))
		case 2:
			return Div(sub(SortInt), sub(SortInt))
		case 3:
			return Rem(sub(SortInt), sub(SortInt))
		case 4:
			return Neg(sub(SortInt))
		default:
			return Ite(sub(SortBool), sub(SortInt), sub(SortInt))
		}
	}
	switch r.Intn(6) {
	case 0:
		return And(sub(SortBool), sub(SortBool))
	case 1:
		return Or(sub(SortBool), sub(SortBool))
	case 2:
		return Not(sub(SortBool))
	case 3:
		return Le(sub(SortInt), sub(SortInt))
	case 4:
		return Eq(sub(SortBool), sub(SortBool))
	default:
		return Ite(sub(SortBool), sub(SortBool), sub(SortBool))
	}
}

// TestTermSummaries: the summaries read from bits set at intern time agree
// with walks of the term. Pure is the absence of div, rem and ite (of
// either sort), and every Bool variable of a term answers MayHaveBoolVar:
// a false negative would let smt's pinBools skip a pin.
func TestTermSummaries(t *testing.T) {
	check := func(tm *Term) {
		t.Helper()
		walk := !ContainsOp(tm, OpDiv) && !ContainsOp(tm, OpRem) && !ContainsOp(tm, OpIte)
		if tm.Pure() != walk {
			t.Fatalf("%v: Pure() = %v, walk says %v", tm, tm.Pure(), walk)
		}
		for _, v := range Vars(tm) {
			if v.Sort == SortBool && !tm.MayHaveBoolVar(v.Name) {
				t.Fatalf("%v: MayHaveBoolVar(%q) = false, but it occurs", tm, v.Name)
			}
		}
	}
	r := rand.New(rand.NewSource(28))
	pure := 0
	for i := 0; i < 3000; i++ {
		for _, s := range []Sort{SortBool, SortInt} {
			tm := randSummaryTerm(r, 4, s)
			check(tm)
			if tm.Pure() {
				pure++
			}
		}
	}
	if pure == 0 || pure == 6000 {
		t.Fatalf("%d of 6000 random terms pure: the check is one-sided", pure)
	}
	parsed := 0
	for _, src := range specSeeds {
		if tm, err := Parse(src, specSeedVars()); err == nil {
			check(tm)
			parsed++
		}
	}
	if parsed < len(specSeeds)-1 {
		t.Fatalf("only %d of %d spec seeds parse", parsed, len(specSeeds))
	}
	// A term with no Bool variable answers false for every name.
	if tm := Le(Div(IntVar("x"), IntVar("y")), Int(3)); tm.MayHaveBoolVar("p") {
		t.Fatalf("%v has no Bool variable, yet MayHaveBoolVar(p)", tm)
	}
}

// TestTermSize: the summaries fit in padding, so a Term is as large as it
// would be without them.
func TestTermSize(t *testing.T) {
	type plain struct {
		Op         Op
		Sort       Sort
		Val        int64
		Name       string
		Args       []*Term
		hash       uint64
		simplified atomic.Pointer[Term]
	}
	if got, want := unsafe.Sizeof(Term{}), unsafe.Sizeof(plain{}); got != want {
		t.Fatalf("Term is %d bytes, %d without its summaries", got, want)
	}
}
