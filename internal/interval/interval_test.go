package interval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cpr/internal/expr"
)

func TestIntervalBasics(t *testing.T) {
	iv := New(-3, 4)
	if iv.IsEmpty() || iv.Count() != 8 {
		t.Fatalf("Count([-3,4]) = %d, want 8", iv.Count())
	}
	if !iv.Contains(-3) || !iv.Contains(4) || iv.Contains(5) {
		t.Fatal("Contains wrong at endpoints")
	}
	if !Empty().IsEmpty() || Empty().Count() != 0 {
		t.Fatal("Empty() not empty")
	}
	if Point(7).Count() != 1 {
		t.Fatal("Point count != 1")
	}
}

func TestIntervalCountSaturates(t *testing.T) {
	for _, c := range []struct {
		iv   Interval
		want int64
	}{
		{New(math.MinInt64, math.MaxInt64), math.MaxInt64},
		{New(0, math.MaxInt64), math.MaxInt64},  // 2^63 points
		{New(1, math.MaxInt64), math.MaxInt64},  // exactly MaxInt64 points
		{New(math.MinInt64, -1), math.MaxInt64}, // 2^63 points
		{New(math.MinInt64, -2), math.MaxInt64}, // exactly MaxInt64 points
		{New(math.MinInt64+1, math.MaxInt64-1), math.MaxInt64},
		{New(-1, math.MaxInt64-2), math.MaxInt64}, // exactly MaxInt64 points
		{New(0, math.MaxInt64-1), math.MaxInt64},  // exactly MaxInt64 points
		{New(0, math.MaxInt64-2), math.MaxInt64 - 1},
		{New(math.MaxInt64, math.MaxInt64), 1},
	} {
		if got := c.iv.Count(); got != c.want {
			t.Errorf("Count(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestIntersectHullAdjacent(t *testing.T) {
	a, b := New(0, 10), New(5, 20)
	if got := a.Intersect(b); got != New(5, 10) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := a.Hull(b); got != New(0, 20) {
		t.Fatalf("Hull = %v", got)
	}
	if New(0, 4).Intersect(New(6, 9)).IsEmpty() != true {
		t.Fatal("disjoint intersect should be empty")
	}
	if !New(0, 4).Adjacent(New(5, 9)) {
		t.Fatal("touching intervals should be adjacent")
	}
	if New(0, 4).Adjacent(New(6, 9)) {
		t.Fatal("gapped intervals should not be adjacent")
	}
	if !New(0, 4).Adjacent(New(2, 9)) {
		t.Fatal("overlapping intervals should be adjacent")
	}
}

func TestBoxBasics(t *testing.T) {
	b := NewBox(New(-10, 10), New(1, 10))
	if b.Count() != 21*10 {
		t.Fatalf("Box count = %d, want 210", b.Count())
	}
	if !b.Contains([]int64{0, 5}) || b.Contains([]int64{0, 0}) {
		t.Fatal("Box.Contains wrong")
	}
	if UniformBox(3, -1, 1).Count() != 27 {
		t.Fatal("UniformBox count wrong")
	}
	if len((Box{}).Clone()) != 0 || (Box{}).Count() != 1 {
		t.Fatal("0-dim box should contain exactly the empty point")
	}
}

func TestSubtractPointGridCountAndDisjoint(t *testing.T) {
	b := UniformBox(2, -2, 2)
	pt := []int64{0, 1}
	pieces := b.SubtractPointGrid(pt)
	if len(pieces) != 8 { // 3^2 - 1
		t.Fatalf("grid split produced %d boxes, want 8", len(pieces))
	}
	checkSplit(t, b, pt, pieces)
}

func TestSubtractPointAtCorner(t *testing.T) {
	b := UniformBox(2, 0, 3)
	pt := []int64{0, 0}
	checkSplit(t, b, pt, b.SubtractPointGrid(pt))
	// 1-dimensional and single-point boxes.
	one := NewBox(Point(5))
	if got := one.SubtractPointGrid([]int64{5}); len(got) != 0 {
		t.Fatalf("removing the only point should empty the box, got %v", got)
	}
	outside := NewBox(New(0, 3))
	if got := outside.SubtractPointGrid([]int64{9}); len(got) != 1 || got[0].Count() != 4 {
		t.Fatalf("subtracting an outside point must be a no-op, got %v", got)
	}
}

// checkSplit verifies count, disjointness, exclusion of pt, coverage.
func checkSplit(t *testing.T, b Box, pt []int64, pieces []Box) {
	t.Helper()
	var total int64
	for _, p := range pieces {
		total += p.Count()
		if p.Contains(pt) {
			t.Fatalf("piece %v still contains %v", p, pt)
		}
	}
	if total != b.Count()-1 {
		t.Fatalf("split count = %d, want %d", total, b.Count()-1)
	}
	for i := range pieces {
		for j := i + 1; j < len(pieces); j++ {
			if x := pieces[i].Intersect(pieces[j]); x != nil {
				t.Fatalf("pieces %v and %v overlap in %v", pieces[i], pieces[j], x)
			}
		}
	}
}

func TestRegionSubtractAndCount(t *testing.T) {
	r := FromBox(UniformBox(2, -10, 10)) // 441 points
	if r.Count() != 441 {
		t.Fatalf("initial count %d", r.Count())
	}
	r = r.SubtractPoint([]int64{3, 4})
	if r.Count() != 440 || r.Contains([]int64{3, 4}) {
		t.Fatalf("after subtract: count=%d contains=%v", r.Count(), r.Contains([]int64{3, 4}))
	}
	r = r.SubtractPoint([]int64{3, 4}) // idempotent
	if r.Count() != 440 {
		t.Fatalf("second subtract changed count: %d", r.Count())
	}
	r = r.SubtractPoint([]int64{-10, -10})
	if r.Count() != 439 {
		t.Fatalf("corner subtract: count=%d", r.Count())
	}
}

func TestRegionMerge(t *testing.T) {
	// Remove and re-merge: merging [l,p-1] and [p+1,u] pieces around a
	// removed point in dimension 0 at a fixed dim-1 point must coalesce
	// rows that the grid split fragmented.
	r := FromBox(UniformBox(2, 0, 4))
	r = r.SubtractPoint([]int64{2, 2})
	if len(r.Boxes) != 8 {
		t.Fatalf("expected 8 boxes before merge, got %d", len(r.Boxes))
	}
	m := r.Merge()
	if m.Count() != r.Count() {
		t.Fatalf("merge changed count: %d -> %d", r.Count(), m.Count())
	}
	if len(m.Boxes) >= len(r.Boxes) {
		t.Fatalf("merge did not reduce boxes: %d -> %d", len(r.Boxes), len(m.Boxes))
	}
	// Set equality via enumeration.
	want := map[[2]int64]bool{}
	r.Points(func(pt []int64) bool { want[[2]int64{pt[0], pt[1]}] = true; return true })
	got := map[[2]int64]bool{}
	m.Points(func(pt []int64) bool { got[[2]int64{pt[0], pt[1]}] = true; return true })
	if len(want) != len(got) {
		t.Fatalf("point sets differ in size: %d vs %d", len(want), len(got))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("point %v lost by merge", k)
		}
	}
}

func TestRegionIntersect(t *testing.T) {
	a := FromBox(NewBox(New(0, 10), New(0, 10)))
	b := FromBox(NewBox(New(5, 15), New(-5, 5)))
	x := a.Intersect(b)
	if x.Count() != 6*6 {
		t.Fatalf("intersect count = %d, want 36", x.Count())
	}
}

func TestRegionToTerm(t *testing.T) {
	r := FromBox(NewBox(New(-10, 7), Point(0)))
	f := r.ToTerm([]string{"a", "b"})
	m := expr.Model{"a": 3, "b": 0}
	ok, err := expr.EvalBool(f, m)
	if err != nil || !ok {
		t.Fatalf("point in region evaluates false: %v %v", ok, err)
	}
	m["b"] = 1
	ok, err = expr.EvalBool(f, m)
	if err != nil || ok {
		t.Fatalf("point outside region evaluates true")
	}
	if !EmptyRegion(2).ToTerm([]string{"a", "b"}).IsFalse() {
		t.Fatal("empty region should be false")
	}
}

// Property: repeated subtraction of random points matches a reference set
// implementation, and Merge preserves the set.
func TestRegionSubtractPointProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		reg := FromBox(UniformBox(2, 0, 5))
		ref := map[[2]int64]bool{}
		for x := int64(0); x <= 5; x++ {
			for y := int64(0); y <= 5; y++ {
				ref[[2]int64{x, y}] = true
			}
		}
		for i := 0; i < 10; i++ {
			pt := []int64{int64(rr.Intn(7) - 1), int64(rr.Intn(7) - 1)} // sometimes outside
			reg = reg.SubtractPoint(pt)
			delete(ref, [2]int64{pt[0], pt[1]})
			if i%3 == 0 {
				reg = reg.Merge()
			}
		}
		if reg.Count() != int64(len(ref)) {
			return false
		}
		ok := true
		reg.Points(func(pt []int64) bool {
			if !ref[[2]int64{pt[0], pt[1]}] {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	cfg := &quick.Config{MaxCount: 60, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPointsEarlyStop(t *testing.T) {
	reg := FromBox(UniformBox(1, 0, 100))
	n := 0
	reg.Points(func(pt []int64) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d points", n)
	}
}
