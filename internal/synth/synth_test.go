package synth

import (
	"context"
	"testing"
	"time"

	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/lang"
)

func figComponents() Components {
	return Components{
		Vars:       map[string]lang.Type{"x": lang.TypeInt, "y": lang.TypeInt},
		Params:     []string{"a", "b"},
		ParamRange: interval.New(-10, 10),
		Arith:      []expr.Op{expr.OpAdd, expr.OpSub},
		Cmp:        []expr.Op{expr.OpEq, expr.OpLt, expr.OpGe},
		Bool:       []expr.Op{expr.OpOr},
	}
}

func TestSynthesizeBoolContainsPaperTemplates(t *testing.T) {
	templates := Synthesize(figComponents(), lang.TypeBool)
	if len(templates) == 0 {
		t.Fatal("no templates")
	}
	want := []*expr.Term{
		expr.Simplify(expr.Ge(expr.IntVar("x"), expr.IntVar("a"))),
		expr.Simplify(expr.Lt(expr.IntVar("y"), expr.IntVar("b"))),
		expr.Simplify(expr.Or(
			expr.Eq(expr.IntVar("x"), expr.IntVar("a")),
			expr.Eq(expr.IntVar("y"), expr.IntVar("b")),
		)),
	}
	set := make(map[*expr.Term]bool, len(templates))
	for _, tpl := range templates {
		set[tpl] = true
	}
	for _, w := range want {
		if !set[w] {
			t.Errorf("missing paper template %v", w)
		}
	}
	// Deletion templates lead the pool.
	if templates[0] != expr.True() || templates[1] != expr.False() {
		t.Fatalf("deletion templates missing: %v %v", templates[0], templates[1])
	}
}

func TestSynthesizeDeterministicAndDeduped(t *testing.T) {
	a := Synthesize(figComponents(), lang.TypeBool)
	b := Synthesize(figComponents(), lang.TypeBool)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic sizes %d vs %d", len(a), len(b))
	}
	seen := make(map[*expr.Term]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %v vs %v", i, a[i], b[i])
		}
		if seen[a[i]] {
			t.Fatalf("duplicate template %v", a[i])
		}
		seen[a[i]] = true
	}
}

func TestSynthesizeCap(t *testing.T) {
	c := figComponents()
	c.MaxTemplates = 10
	templates := Synthesize(c, lang.TypeBool)
	if len(templates) > 10 {
		t.Fatalf("cap exceeded: %d", len(templates))
	}
}

func TestSynthesizeIntHole(t *testing.T) {
	c := Components{
		Vars:       map[string]lang.Type{"x": lang.TypeInt},
		Consts:     []int64{1},
		Params:     []string{"a"},
		ParamRange: interval.New(-10, 10),
		Arith:      []expr.Op{expr.OpAdd, expr.OpSub},
	}
	templates := Synthesize(c, lang.TypeInt)
	set := make(map[*expr.Term]bool)
	for _, tpl := range templates {
		if tpl.Sort != expr.SortInt {
			t.Fatalf("template %v has wrong sort", tpl)
		}
		set[tpl] = true
	}
	for _, w := range []*expr.Term{
		expr.IntVar("x"),
		expr.Simplify(expr.Add(expr.IntVar("x"), expr.IntVar("a"))),
		expr.Simplify(expr.Sub(expr.IntVar("x"), expr.Int(1))),
	} {
		if !set[w] {
			t.Errorf("missing int template %v", w)
		}
	}
	// Pure-parameter templates are excluded.
	if set[expr.IntVar("a")] {
		t.Error("param-only template leaked into pool")
	}
}

func TestBuildPool(t *testing.T) {
	c := figComponents()
	templates := Synthesize(c, lang.TypeBool)
	pool := BuildPool(templates, c)
	if pool.Size() != len(templates) {
		t.Fatalf("pool size %d != %d", pool.Size(), len(templates))
	}
	// x >= a must cover 21 concrete patches.
	for _, p := range pool.Patches {
		if p.Expr == expr.Simplify(expr.Ge(expr.IntVar("x"), expr.IntVar("a"))) {
			if p.CountConcrete() != 21 {
				t.Fatalf("x>=a count %d, want 21", p.CountConcrete())
			}
			return
		}
	}
	t.Fatal("x >= a not found in pool")
}

func TestComponentCounts(t *testing.T) {
	c := figComponents()
	if c.GeneralCount() != 5 { // arith + cmp + bool groups + 2 params
		t.Fatalf("GeneralCount: %d", c.GeneralCount())
	}
	if c.CustomCount() != 2 { // x, y
		t.Fatalf("CustomCount: %d", c.CustomCount())
	}
}

func TestSuppressDeletion(t *testing.T) {
	c := figComponents()
	c.SuppressDeletion = true
	templates := Synthesize(c, lang.TypeBool)
	for _, tpl := range templates {
		if tpl.IsConst() {
			t.Fatalf("deletion template %v present despite suppression", tpl)
		}
	}
}

func TestBoolVarComponents(t *testing.T) {
	c := Components{
		Vars:   map[string]lang.Type{"flag": lang.TypeBool, "x": lang.TypeInt},
		Params: []string{"a"},
		Cmp:    []expr.Op{expr.OpGt},
		Bool:   []expr.Op{expr.OpNot},
	}
	templates := Synthesize(c, lang.TypeBool)
	set := make(map[*expr.Term]bool)
	for _, tpl := range templates {
		set[tpl] = true
	}
	if !set[expr.BoolVar("flag")] || !set[expr.Not(expr.BoolVar("flag"))] {
		t.Fatalf("bool var templates missing")
	}
}

func TestExtraTemplates(t *testing.T) {
	c := figComponents()
	c.ExtraTemplates = []string{
		"(or (= x a) (and (< y b) (> x 3)))", // custom boolean shape
		"(+ x (* 2 y))",                      // int-sorted: filtered for bool holes
	}
	templates := Synthesize(c, lang.TypeBool)
	want := expr.Simplify(expr.MustParse("(or (= x a) (and (< y b) (> x 3)))",
		map[string]expr.Sort{"x": expr.SortInt, "y": expr.SortInt, "a": expr.SortInt, "b": expr.SortInt}))
	found := false
	for _, tpl := range templates {
		if tpl == want {
			found = true
		}
		if tpl.Sort != expr.SortBool {
			t.Fatalf("int template leaked into bool pool: %v", tpl)
		}
	}
	if !found {
		t.Fatal("custom template missing from pool")
	}
	// The custom template leads the non-deletion part of the pool.
	if templates[2] != want {
		t.Fatalf("custom template not at front: %v", templates[2])
	}
}

func TestExtraTemplatesPanicOnBadSyntax(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad template")
		}
	}()
	c := figComponents()
	c.ExtraTemplates = []string{"(bogus x)"}
	Synthesize(c, lang.TypeBool)
}

// TestSynthesizeCancelledIsDeterministicPrefix: an expired context stops
// enumeration early, and whatever was collected is a prefix of the full
// deterministic enumeration — so a resumed run that re-synthesizes under a
// live context sees a superset in the same order, keeping index-based
// template references from checkpoints valid.
func TestSynthesizeCancelledIsDeterministicPrefix(t *testing.T) {
	full := Synthesize(figComponents(), lang.TypeBool)

	c := figComponents()
	expired, stop := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer stop()
	c.Context = expired
	partial := Synthesize(c, lang.TypeBool)
	if len(partial) > len(full) {
		t.Fatalf("cancelled enumeration produced %d templates, full run %d", len(partial), len(full))
	}
	for i := range partial {
		if partial[i] != full[i] {
			t.Fatalf("cancelled enumeration diverged at %d: %v vs %v", i, partial[i], full[i])
		}
	}
	again := Synthesize(c, lang.TypeBool)
	if len(again) != len(partial) {
		t.Fatalf("cancelled enumeration nondeterministic: %d vs %d templates", len(again), len(partial))
	}

	// A live context changes nothing.
	live, stopLive := context.WithTimeout(context.Background(), time.Hour)
	defer stopLive()
	c.Context = live
	got := Synthesize(c, lang.TypeBool)
	if len(got) != len(full) {
		t.Fatalf("live context truncated enumeration: %d vs %d", len(got), len(full))
	}
	for i := range got {
		if got[i] != full[i] {
			t.Fatalf("live-context enumeration diverged at %d", i)
		}
	}
}
