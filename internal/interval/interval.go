// Package interval implements closed integer intervals, k-dimensional
// boxes, and regions (disjoint unions of boxes).
//
// Regions are the representation of abstract-patch parameter constraints
// Tρ(A) in the repair system (paper §4): refinement removes counterexample
// points from a region, splitting the containing box into at most 3ⁿ−1
// pieces (a one-parameter region may lose many points per counterexample,
// see patch.Refiner.Refine), and Merge re-coalesces adjacent boxes. In one
// dimension Merge returns the sorted maximal intervals, a function of the
// point set alone; in more, it coalesces pair by pair, so its boxes depend
// on the order points were removed in. Because boxes are disjoint, exact
// model counting (the number of concrete patches an abstract patch
// covers) is a sum of box volumes.
package interval

import (
	"fmt"
	"math"
	"strings"
)

// Interval is the closed integer interval [Lo, Hi]. It is empty when
// Lo > Hi; the canonical empty interval is Empty().
type Interval struct {
	Lo, Hi int64
}

// New returns the interval [lo, hi].
func New(lo, hi int64) Interval { return Interval{lo, hi} }

// Point returns the singleton interval [v, v].
func Point(v int64) Interval { return Interval{v, v} }

// Empty returns the canonical empty interval.
func Empty() Interval { return Interval{1, 0} }

// IsEmpty reports whether the interval contains no integers.
func (iv Interval) IsEmpty() bool { return iv.Lo > iv.Hi }

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v int64) bool { return iv.Lo <= v && v <= iv.Hi }

// Count returns the number of integers in the interval, saturating at
// math.MaxInt64.
func (iv Interval) Count() int64 {
	if iv.IsEmpty() {
		return 0
	}
	// Hi - Lo is exact in uint64 (Hi >= Lo); Hi - Lo + 1 overflows int64
	// exactly when Hi - Lo >= MaxInt64.
	d := uint64(iv.Hi) - uint64(iv.Lo)
	if d >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(d) + 1
}

// Intersect returns the intersection of two intervals.
func (iv Interval) Intersect(o Interval) Interval {
	lo, hi := iv.Lo, iv.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	if lo > hi {
		return Empty()
	}
	return Interval{lo, hi}
}

// Hull returns the smallest interval containing both operands.
func (iv Interval) Hull(o Interval) Interval {
	if iv.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return iv
	}
	lo, hi := iv.Lo, iv.Hi
	if o.Lo < lo {
		lo = o.Lo
	}
	if o.Hi > hi {
		hi = o.Hi
	}
	return Interval{lo, hi}
}

// Adjacent reports whether the union of the two intervals is itself an
// interval (they overlap or touch).
func (iv Interval) Adjacent(o Interval) bool {
	if iv.IsEmpty() || o.IsEmpty() {
		return true
	}
	a, b := iv, o
	if a.Lo > b.Lo {
		a, b = b, a
	}
	return b.Lo <= a.Hi || (a.Hi != math.MaxInt64 && b.Lo == a.Hi+1)
}

// String renders the interval as [lo,hi] or ∅.
func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "∅"
	}
	if iv.Lo == iv.Hi {
		return fmt.Sprintf("[%d]", iv.Lo)
	}
	return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi)
}

// Box is a k-dimensional product of intervals. A box with any empty
// dimension is empty.
type Box []Interval

// NewBox returns a box with the given per-dimension intervals.
func NewBox(ivs ...Interval) Box { return Box(ivs) }

// UniformBox returns an n-dimensional box with every dimension [lo, hi].
func UniformBox(n int, lo, hi int64) Box {
	b := make(Box, n)
	for i := range b {
		b[i] = Interval{lo, hi}
	}
	return b
}

// Clone returns a copy of the box.
func (b Box) Clone() Box {
	c := make(Box, len(b))
	copy(c, b)
	return c
}

// IsEmpty reports whether the box contains no points.
func (b Box) IsEmpty() bool {
	for _, iv := range b {
		if iv.IsEmpty() {
			return true
		}
	}
	return false
}

// Contains reports whether the point lies in the box. The point must have
// the box's dimension.
func (b Box) Contains(pt []int64) bool {
	if len(pt) != len(b) {
		panic(fmt.Sprintf("interval: Box.Contains: dimension mismatch %d vs %d", len(pt), len(b)))
	}
	for i, iv := range b {
		if !iv.Contains(pt[i]) {
			return false
		}
	}
	return true
}

// Count returns the number of integer points in the box, saturating at
// math.MaxInt64. The zero-dimensional box contains exactly one point.
func (b Box) Count() int64 {
	n := int64(1)
	for _, iv := range b {
		c := iv.Count()
		if c == 0 {
			return 0
		}
		if n > math.MaxInt64/c {
			return math.MaxInt64
		}
		n *= c
	}
	return n
}

// Intersect returns the intersection of two boxes of equal dimension.
func (b Box) Intersect(o Box) Box {
	if len(b) != len(o) {
		panic("interval: Box.Intersect: dimension mismatch")
	}
	out := make(Box, len(b))
	for i := range b {
		out[i] = b[i].Intersect(o[i])
		if out[i].IsEmpty() {
			return nil // canonical empty box of any dimension
		}
	}
	return out
}

// SubtractPointGrid removes pt from the box, partitioning the remainder
// into at most 3ⁿ−1 disjoint boxes: the Cartesian product of
// {below, at, above} per dimension, excluding the all-at cell. This is the
// Split of the paper (§4, “Region representation”).
func (b Box) SubtractPointGrid(pt []int64) []Box {
	if !b.Contains(pt) {
		return []Box{b.Clone()}
	}
	n := len(b)
	parts := make([][]Interval, n) // candidate intervals per dimension
	for i := range b {
		var cand []Interval
		if below := (Interval{b[i].Lo, pt[i] - 1}); !below.IsEmpty() && pt[i] != math.MinInt64 {
			cand = append(cand, below)
		}
		cand = append(cand, Point(pt[i]))
		if above := (Interval{pt[i] + 1, b[i].Hi}); !above.IsEmpty() && pt[i] != math.MaxInt64 {
			cand = append(cand, above)
		}
		parts[i] = cand
	}
	var out []Box
	cur := make(Box, n)
	var rec func(dim int, allAt bool)
	rec = func(dim int, allAt bool) {
		if dim == n {
			if !allAt {
				out = append(out, cur.Clone())
			}
			return
		}
		for _, iv := range parts[dim] {
			cur[dim] = iv
			rec(dim+1, allAt && iv.Lo == pt[dim] && iv.Hi == pt[dim])
		}
	}
	rec(0, true)
	return out
}

// String renders the box as a product of intervals.
func (b Box) String() string {
	if len(b) == 0 {
		return "[]"
	}
	parts := make([]string, len(b))
	for i, iv := range b {
		parts[i] = iv.String()
	}
	return strings.Join(parts, "×")
}
