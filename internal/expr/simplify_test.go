package expr

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// simplifyRuns numbers the runs of TestSimplifyConcurrent so that each run
// (including repeats under -count) builds terms no earlier run has
// simplified: the memo starts empty and the goroutines race to fill it.
var simplifyRuns atomic.Int64

// simplifyUncached is Simplify without the memo: the sequential reference
// the memoized answers are checked against.
func simplifyUncached(t *Term) *Term {
	switch t.Op {
	case OpIntConst, OpBoolConst, OpVar:
		return t
	}
	args := make([]*Term, len(t.Args))
	for i, a := range t.Args {
		args[i] = simplifyUncached(a)
	}
	r := Rebuild(t.Op, args)
	if isIntCmp(r) {
		r = normalizeCmp(r)
	}
	return r
}

// TestSimplifyConcurrent: goroutines simplifying the same fresh terms at
// once must each get the pointer a sequential, unmemoized Simplify returns.
// Run it under the race detector:
//
//	go test -race -count=10 -run TestSimplifyConcurrent ./internal/expr
func TestSimplifyConcurrent(t *testing.T) {
	run := simplifyRuns.Add(1)
	v := func(name string) *Term { return IntVar(fmt.Sprintf("simp%d_%s", run, name)) }
	x, y, z := v("x"), v("y"), v("z")
	p := BoolVar(fmt.Sprintf("simp%d_p", run))
	// Shared subterms across formulas, so the goroutines also race on the
	// memo of inner nodes, not only on the roots.
	shared := Gt(Add(x, Int(1)), y)
	var terms []*Term
	for k := int64(0); k < 24; k++ {
		terms = append(terms, And(
			shared,
			Le(Mul(Int(2), x), Add(y, z, Int(k))),
			Or(Eq(Sub(x, y), Int(k)), Ne(Neg(z), Int(3)), p),
			Lt(Ite(p, x, Add(y, Int(k))), Div(z, Int(2))),
			Not(Ge(Mul(Int(4), z), Int(2*k+1))),
		))
	}
	want := make([]*Term, len(terms))
	for i, f := range terms {
		if f.simplified.Load() != nil {
			t.Fatalf("term %d already memoized: the run's names are not fresh", i)
		}
		want[i] = simplifyUncached(f)
	}

	const workers = 8
	got := make([][]*Term, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]*Term, len(terms))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for j := range terms {
				i := (j + w*3) % len(terms) // different orders per worker
				got[w][i] = Simplify(terms[i])
			}
		}(w)
	}
	close(start)
	wg.Wait()

	for w := range got {
		for i, r := range got[w] {
			if r != want[i] {
				t.Fatalf("worker %d term %d: Simplify = %v, sequential = %v", w, i, r, want[i])
			}
		}
	}
	for i, f := range terms {
		if m := f.simplified.Load(); m != want[i] {
			t.Errorf("term %d: memo holds %v, want %v", i, m, want[i])
		}
	}
}
