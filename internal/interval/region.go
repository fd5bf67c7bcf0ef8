package interval

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"cpr/internal/expr"
)

// Region is a finite union of pairwise-disjoint boxes of a common
// dimension. The zero value is the empty region of dimension 0.
type Region struct {
	Dim   int
	Boxes []Box
}

// FromBox returns the region consisting of the single box b.
func FromBox(b Box) Region {
	if b == nil || b.IsEmpty() {
		return Region{Dim: len(b)}
	}
	return Region{Dim: len(b), Boxes: []Box{b.Clone()}}
}

// EmptyRegion returns the empty region of dimension dim.
func EmptyRegion(dim int) Region { return Region{Dim: dim} }

// Clone returns a deep copy of the region.
func (r Region) Clone() Region {
	boxes := make([]Box, len(r.Boxes))
	for i, b := range r.Boxes {
		boxes[i] = b.Clone()
	}
	return Region{Dim: r.Dim, Boxes: boxes}
}

// IsEmpty reports whether the region contains no points.
func (r Region) IsEmpty() bool { return len(r.Boxes) == 0 }

// Contains reports whether the point lies in the region.
func (r Region) Contains(pt []int64) bool {
	for _, b := range r.Boxes {
		if b.Contains(pt) {
			return true
		}
	}
	return false
}

// Count returns the number of integer points in the region, saturating at
// math.MaxInt64. Boxes are disjoint by construction, so the count is exact.
func (r Region) Count() int64 {
	var n int64
	for _, b := range r.Boxes {
		c := b.Count()
		if n > math.MaxInt64-c {
			return math.MaxInt64
		}
		n += c
	}
	return n
}

// SubtractPoint removes a single point from the region, splitting the box
// containing it with the paper's grid split (SubtractPointGrid). It is a
// no-op when the point lies outside the region.
func (r Region) SubtractPoint(pt []int64) Region {
	if len(pt) != r.Dim {
		panic(fmt.Sprintf("interval: Region.SubtractPoint: dimension mismatch %d vs %d", len(pt), r.Dim))
	}
	out := Region{Dim: r.Dim}
	for _, b := range r.Boxes {
		if !b.Contains(pt) {
			out.Boxes = append(out.Boxes, b)
			continue
		}
		out.Boxes = append(out.Boxes, b.SubtractPointGrid(pt)...)
	}
	return out
}

// Intersect returns the intersection of two regions of equal dimension.
func (r Region) Intersect(o Region) Region {
	if r.Dim != o.Dim {
		panic("interval: Region.Intersect: dimension mismatch")
	}
	out := Region{Dim: r.Dim}
	for _, a := range r.Boxes {
		for _, b := range o.Boxes {
			if c := a.Intersect(b); c != nil {
				out.Boxes = append(out.Boxes, c)
			}
		}
	}
	return out
}

// Merge coalesces boxes that differ in exactly one dimension with
// adjacent intervals there, repeating to a fixed point (the paper's Merge
// step after refinement). The result covers the same set of points.
func (r Region) Merge() Region {
	boxes := make([]Box, len(r.Boxes))
	for i, b := range r.Boxes {
		boxes[i] = b.Clone()
	}
	for {
		merged := false
	outer:
		for i := 0; i < len(boxes); i++ {
			for j := i + 1; j < len(boxes); j++ {
				if m, ok := tryMerge(boxes[i], boxes[j]); ok {
					boxes[i] = m
					boxes = append(boxes[:j], boxes[j+1:]...)
					merged = true
					break outer
				}
			}
		}
		if !merged {
			break
		}
	}
	sortBoxes(boxes)
	return Region{Dim: r.Dim, Boxes: boxes}
}

// tryMerge merges two boxes if they agree on all dimensions but one, where
// their intervals are adjacent.
func tryMerge(a, b Box) (Box, bool) {
	diff := -1
	for i := range a {
		if a[i] != b[i] {
			if diff >= 0 {
				return nil, false
			}
			diff = i
		}
	}
	if diff < 0 {
		return a, true // identical boxes
	}
	if !a[diff].Adjacent(b[diff]) {
		return nil, false
	}
	m := a.Clone()
	m[diff] = a[diff].Hull(b[diff])
	return m, true
}

func sortBoxes(boxes []Box) {
	sort.Slice(boxes, func(i, j int) bool {
		a, b := boxes[i], boxes[j]
		for d := range a {
			if a[d].Lo != b[d].Lo {
				return a[d].Lo < b[d].Lo
			}
			if a[d].Hi != b[d].Hi {
				return a[d].Hi < b[d].Hi
			}
		}
		return false
	})
}

// Points enumerates every integer point of the region in deterministic
// order, calling f for each; enumeration stops early if f returns false.
// Intended for small regions (tests, model counting cross-checks).
func (r Region) Points(f func(pt []int64) bool) {
	boxes := make([]Box, len(r.Boxes))
	copy(boxes, r.Boxes)
	sortBoxes(boxes)
	pt := make([]int64, r.Dim)
	for _, b := range boxes {
		if !enumBox(b, pt, 0, f) {
			return
		}
	}
}

func enumBox(b Box, pt []int64, dim int, f func([]int64) bool) bool {
	if dim == len(b) {
		return f(pt)
	}
	for v := b[dim].Lo; ; v++ {
		pt[dim] = v
		if !enumBox(b, pt, dim+1, f) {
			return false
		}
		if v == b[dim].Hi { // avoid overflow at MaxInt64
			break
		}
	}
	return true
}

// ToTerm renders the region as a formula over the named variables: a
// disjunction over boxes of per-dimension bound conjunctions. The empty
// region is false; a region covering everything still enumerates bounds.
func (r Region) ToTerm(names []string) *expr.Term {
	if len(names) != r.Dim {
		panic("interval: Region.ToTerm: name count mismatch")
	}
	boxes := make([]Box, len(r.Boxes))
	copy(boxes, r.Boxes)
	sortBoxes(boxes)
	disj := make([]*expr.Term, 0, len(boxes))
	for _, b := range boxes {
		conj := make([]*expr.Term, 0, 2*len(b))
		for i, iv := range b {
			v := expr.IntVar(names[i])
			if iv.Lo == iv.Hi {
				conj = append(conj, expr.Eq(v, expr.Int(iv.Lo)))
				continue
			}
			conj = append(conj, expr.Ge(v, expr.Int(iv.Lo)), expr.Le(v, expr.Int(iv.Hi)))
		}
		disj = append(disj, expr.And(conj...))
	}
	return expr.Or(disj...)
}

// String renders the region as a union of boxes.
func (r Region) String() string {
	if r.IsEmpty() {
		return "∅"
	}
	boxes := make([]Box, len(r.Boxes))
	copy(boxes, r.Boxes)
	sortBoxes(boxes)
	parts := make([]string, len(boxes))
	for i, b := range boxes {
		parts[i] = b.String()
	}
	return strings.Join(parts, " ∪ ")
}
