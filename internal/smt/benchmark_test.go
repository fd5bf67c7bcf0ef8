package smt

import (
	"testing"

	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/smt/cache"
)

// benchFormula is a repair-shaped query: a path constraint conjoined with
// a parametric patch guard.
func benchFormula(k int64) *expr.Term {
	x := expr.IntVar("x")
	y := expr.IntVar("y")
	a := expr.IntVar("a")
	return expr.And(
		expr.Ge(x, expr.Int(0)),
		expr.Lt(x, expr.Int(50+k)),
		expr.Ne(y, expr.Int(0)),
		expr.Ge(expr.Add(x, y), a),
		expr.Le(a, expr.Int(10)),
		expr.Ge(a, expr.Int(-10)),
	)
}

var benchBounds = map[string]interval.Interval{
	"x": interval.New(-100, 100),
	"y": interval.New(-100, 100),
	"a": interval.New(-10, 10),
}

// BenchmarkSolverCheck measures a raw solve: a fresh query every
// iteration, no cache in front.
func BenchmarkSolverCheck(b *testing.B) {
	s := NewSolver(Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := s.Check(benchFormula(int64(i%8)), benchBounds)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != Sat {
			b.Fatalf("status %v", res.Status)
		}
	}
}

// BenchmarkSolverCheckCached measures the same query stream with the
// verdict cache in front: after the first 8 queries every check is a hit,
// so this is the cache's hot-path cost (canonical bounds key + one map
// probe) rather than a solve.
func BenchmarkSolverCheckCached(b *testing.B) {
	s := NewSolver(Options{Cache: cache.New(cache.Options{})})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := s.Check(benchFormula(int64(i%8)), benchBounds)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != Sat {
			b.Fatalf("status %v", res.Status)
		}
	}
}

// sharedPrefixQueries builds the query stream the incremental context is
// designed for: one path-constraint prefix shared by every query, 12 patch
// guards × 5 parameter regions (60 queries), mixing sat and unsat. This is
// the shape of a repair loop reducing one partition's pool.
func sharedPrefixQueries() []struct {
	f      *expr.Term
	bounds map[string]interval.Interval
} {
	x := expr.IntVar("x")
	y := expr.IntVar("y")
	a := expr.IntVar("a")
	prefix := []*expr.Term{
		expr.Ge(x, expr.Int(0)),
		expr.Lt(x, expr.Int(50)),
		expr.Ne(y, expr.Int(0)),
		// Disjunctive structure: the skeleton has real choices, so the
		// DPLL(T) loop learns blocking lemmas worth retaining.
		expr.Or(expr.Eq(y, expr.Int(1)), expr.Eq(y, expr.Int(2)), expr.Eq(y, expr.Int(3))),
		expr.Or(expr.Lt(expr.Add(x, y), expr.Int(40)), expr.Gt(x, expr.Int(45))),
	}
	var qs []struct {
		f      *expr.Term
		bounds map[string]interval.Interval
	}
	for region := int64(0); region < 5; region++ {
		bounds := map[string]interval.Interval{
			"x": interval.New(-100, 100),
			"y": interval.New(-100, 100),
			"a": interval.New(-10+region, 10-region),
		}
		for j := int64(0); j < 12; j++ {
			var patch *expr.Term
			if j%3 == 2 { // every third patch contradicts the prefix: unsat
				patch = expr.Lt(x, expr.Int(-1-j))
			} else {
				patch = expr.Ge(expr.Add(x, y), expr.Add(a, expr.Int(j)))
			}
			qs = append(qs, struct {
				f      *expr.Term
				bounds map[string]interval.Interval
			}{expr.And(append(append([]*expr.Term{}, prefix...), patch)...), bounds})
		}
	}
	return qs
}

// BenchmarkSharedPrefixScratch solves the 60-query shared-prefix sequence
// from scratch every query (fresh solver per iteration, no verdict cache
// in front — this measures solving, not memoization).
func BenchmarkSharedPrefixScratch(b *testing.B) {
	qs := sharedPrefixQueries()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSolver(Options{})
		for _, q := range qs {
			if _, err := s.IsSat(q.f, q.bounds); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSharedPrefixIncremental runs the identical sequence on one
// incremental context per iteration: the prefix is encoded once, patches
// switch on and off via selector assumptions, and learned clauses carry
// across queries. CI fails when it is less than 1.3x faster than scratch.
func BenchmarkSharedPrefixIncremental(b *testing.B) {
	qs := sharedPrefixQueries()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSolver(Options{Incremental: true})
		for _, q := range qs {
			if _, err := s.IsSat(q.f, q.bounds); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTermHash measures hash-consed term construction: every
// constructor call hashes the candidate node and probes the interner, so
// building a formula tree is the hashing hot path the cache key relies on.
func BenchmarkTermHash(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := benchFormula(int64(i % 16))
		if f.Op != expr.OpAnd {
			b.Fatal("unexpected shape")
		}
	}
}
