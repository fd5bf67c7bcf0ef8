package smt

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/smt/cache"
)

// reuseQuery is one query of the scratch-reuse battery.
type reuseQuery struct {
	f      *expr.Term
	bounds map[string]interval.Interval
}

// reuseBattery is the randFormula battery under boxes of several widths
// (wide boxes make the theory loop take many rounds), followed by the
// incremental battery's purification, bounds-box and trivial queries.
func reuseBattery() []reuseQuery {
	r := rand.New(rand.NewSource(31))
	boxes := []map[string]interval.Interval{
		{"x": interval.New(-3, 3), "y": interval.New(-3, 3)},
		{"x": interval.New(-40, 40), "y": interval.New(0, 9)},
		{"x": interval.New(-200, 200), "y": interval.New(-5, 5), "a": interval.New(-10, 10)},
	}
	var qs []reuseQuery
	for i := 0; i < 150; i++ {
		qs = append(qs, reuseQuery{randFormula(r, 2+r.Intn(3)), boxes[i%len(boxes)]})
	}
	for _, q := range incrementalBattery() {
		qs = append(qs, reuseQuery{q.f, q.bounds})
	}
	return qs
}

// reuseAnswer is everything a scratch query reports: verdict, model, error
// text (a budget error's solver-lifetime query number left out), and the
// theory rounds it spent.
type reuseAnswer struct {
	Status Status
	Model  expr.Model
	Err    string
	Rounds uint64
}

func checkAnswer(s *Solver, q reuseQuery) reuseAnswer {
	before := s.Stats().TheoryRounds
	res, err := s.Check(q.f, q.bounds)
	a := reuseAnswer{Status: res.Status, Model: res.Model, Rounds: s.Stats().TheoryRounds - before}
	var be *BudgetError
	if errors.As(err, &be) {
		be2 := *be
		be2.Query = 0
		err = &be2
	}
	if err != nil {
		a.Err = err.Error()
	}
	return a
}

// TestScratchReuseMatchesFresh: one Solver answering the whole battery on
// its reused scratch encoder must give, query for query, the verdict, the
// model and the theory-round count of a fresh Solver per query — also when
// a small round budget ends some queries Unknown mid-solve, leaving the
// encoder in whatever state the aborted query reached.
func TestScratchReuseMatchesFresh(t *testing.T) {
	for _, maxRounds := range []int{0, 3} {
		opts := Options{MaxTheoryRounds: maxRounds}
		reused := NewSolver(opts)
		var unknowns, multiRound int
		for i, q := range reuseBattery() {
			want := checkAnswer(NewSolver(opts), q)
			got := checkAnswer(reused, q)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("MaxTheoryRounds=%d query %d (%v): reused solver diverged:\n got  %+v\n want %+v", maxRounds, i, q.f, got, want)
			}
			if want.Status == Unknown {
				unknowns++
			}
			if want.Rounds > 1 {
				multiRound++
			}
		}
		if multiRound == 0 {
			t.Fatalf("MaxTheoryRounds=%d: no query needed a second theory round", maxRounds)
		}
		if maxRounds > 0 && unknowns == 0 {
			t.Fatalf("MaxTheoryRounds=%d: no query ran out of rounds", maxRounds)
		}
	}
}

// TestScratchReuseConcurrentSolvers: several goroutines, each owning one
// reused Solver, share one verdict cache. Every answer must equal the
// single-threaded reference. Run under -race -count=10: the encoders are
// per-solver state, and only the cache is shared.
func TestScratchReuseConcurrentSolvers(t *testing.T) {
	qs := reuseBattery()
	ref := NewSolver(Options{})
	want := make([]reuseAnswer, len(qs))
	for i, q := range qs {
		want[i] = checkAnswer(ref, q)
		want[i].Rounds = 0 // cache hits spend no rounds
	}
	c := cache.New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := NewSolver(Options{Cache: c})
			for k := range qs {
				i := (k + w*len(qs)/4) % len(qs) // each worker starts elsewhere
				got := checkAnswer(s, qs[i])
				got.Rounds = 0
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d query %d: got %+v, want %+v", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
