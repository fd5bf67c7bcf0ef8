package lia

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cpr/internal/interval"
)

// genProblem draws a problem for the agreement battery. Four in five are
// lattice problems: linear systems over narrow domains whose coefficients
// of 2 to 7 make fractional samples common, so they reach branch-and-bound
// and the midpoint rule. The rest reach every other path: linear and product
// terms, Le/Eq/Ne, domains up to ±2^62 (and now and then the full int64
// range), coefficients up to 2^40 and K up to 2^61, so that some
// eliminations overflow int64 rows, plus a small step budget and now and
// then a small row budget, so that some problems end in ErrBudget. draw(n)
// returns a value in [0, n).
func genProblem(draw func(n int64) int64) (Problem, Options) {
	signed := func(mag int64) int64 { return draw(2*mag+1) - mag }
	if draw(5) != 0 {
		names := []string{"w", "x", "y", "z"}[:2+draw(3)]
		p := Problem{Bounds: make(map[string]interval.Interval, len(names))}
		for _, v := range names {
			lo := signed(20)
			p.Bounds[v] = iv(lo, lo+draw(30))
		}
		for n := 2 + draw(3); n > 0; n-- {
			var terms []Term
			for k := 2 + draw(2); k > 0; k-- {
				coef := 2 + draw(6)
				if draw(2) == 0 {
					coef = -coef
				}
				terms = append(terms, lin(coef, names[draw(int64(len(names)))]))
			}
			p.Cons = append(p.Cons, Constraint{Terms: terms, K: signed(30), Rel: Rel(draw(3))})
		}
		return p, Options{}
	}
	names := []string{"w", "x", "y", "z"}[:1+draw(4)]
	p := Problem{Bounds: make(map[string]interval.Interval, len(names))}
	for _, v := range names {
		var lo, hi int64
		switch draw(8) {
		case 0:
			lo, hi = math.MinInt64, math.MaxInt64
		case 1:
			lo, hi = math.MinInt64, draw(11)
		case 2, 3:
			lo = signed(1<<62 - 1)
			hi = lo + draw(1<<62)
		case 4:
			lo, hi = math.MinInt32, math.MaxInt32
		default:
			lo = signed(8)
			hi = lo + draw(12)
		}
		p.Bounds[v] = iv(lo, hi)
	}
	for n := 1 + draw(4); n > 0; n-- {
		var terms []Term
		for k := 1 + draw(3); k > 0; k-- {
			vs := []string{names[draw(int64(len(names)))]}
			if draw(5) == 0 {
				vs = append(vs, names[draw(int64(len(names)))])
				if vs[0] > vs[1] {
					vs[0], vs[1] = vs[1], vs[0]
				}
			}
			var coef int64
			switch draw(6) {
			case 0:
				coef = signed(1 << 40)
			case 1:
				coef = signed(1 << 20)
			default:
				coef = signed(5)
			}
			if coef == 0 { // Term.Coef is nonzero
				coef = 1
			}
			terms = append(terms, Term{Coef: coef, Vars: vs})
		}
		k := signed(12)
		if draw(4) == 0 {
			k = signed(1 << 61)
		}
		p.Cons = append(p.Cons, Constraint{Terms: terms, K: k, Rel: Rel(draw(3))})
	}
	opts := Options{MaxSteps: 50 + int(draw(3000))}
	if draw(3) == 0 {
		opts.MaxConstraints = 2 + int(draw(40))
	}
	return p, opts
}

// exactAnswer is what one elimination path reports for a problem, with the
// search steps it took: a fallback must cost no extra steps.
type exactAnswer struct {
	Status Status
	Model  map[string]int64
	Err    string
	Steps  int
}

// solveBoth solves p on int64 rows (falling back as production does) and
// on big.Rat rows only, and reports whether any int64 elimination fell
// back.
func solveBoth(p Problem, opts Options) (fast, exact exactAnswer, fellBack bool) {
	answer := func(s *solver) exactAnswer {
		res, err := s.solveProblem(p, make(map[string]interval.Interval))
		a := exactAnswer{Status: res.Status, Model: res.Model, Steps: s.steps}
		if err != nil {
			a.Err = err.Error()
		}
		return a
	}
	s := &solver{opts: opts.withDefaults()}
	fast = answer(s)
	exact = answer(&solver{opts: opts.withDefaults(), exact: true})
	return fast, exact, s.fallbacks > 0
}

// TestInt64MatchesExact: the int64 elimination must give, problem for
// problem, the verdict, the model, the error text and the step count of the
// big.Rat elimination it replaces, both where its rows fit and where it
// falls back.
func TestInt64MatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	var answered, fellBack, sat, budget int
	for i := 0; i < 25000; i++ {
		p, opts := genProblem(r.Int63n)
		fast, exact, fb := solveBoth(p, opts)
		if !reflect.DeepEqual(fast, exact) {
			t.Fatalf("problem %d (%+v, MaxSteps %d):\n int64 %+v\n exact %+v", i, p, opts.MaxSteps, fast, exact)
		}
		if fb {
			fellBack++
		} else {
			answered++
		}
		switch {
		case fast.Status == Sat:
			sat++
		case fast.Err != "":
			budget++
		}
	}
	t.Logf("int64 answered %d, fell back %d; %d sat, %d errors", answered, fellBack, sat, budget)
	if answered == 0 || fellBack == 0 || sat == 0 || budget == 0 {
		t.Fatalf("battery one-sided: int64 answered %d, fell back %d; %d sat, %d errors", answered, fellBack, sat, budget)
	}
}

// FuzzSolveMatchesExact decodes a problem from the fuzz input (little-endian
// words, zero once it runs out) and checks the two eliminations agree.
func FuzzSolveMatchesExact(f *testing.F) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 8*(8+r.Intn(64)))
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		draw := func(n int64) int64 {
			var w [8]byte
			data = data[copy(w[:], data):]
			return int64(binary.LittleEndian.Uint64(w[:]) % uint64(n))
		}
		p, opts := genProblem(draw)
		if fast, exact, _ := solveBoth(p, opts); !reflect.DeepEqual(fast, exact) {
			t.Fatalf("%+v, MaxSteps %d:\n int64 %+v\n exact %+v", p, opts.MaxSteps, fast, exact)
		}
	})
}
