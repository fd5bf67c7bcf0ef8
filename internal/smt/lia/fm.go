package lia

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"cpr/internal/interval"
)

// point is one coordinate of the elimination's sample: its floor and
// whether it is integral. Both eliminations hand back one per variable,
// so branch-and-bound, the model and the disequality split are one path.
type point struct {
	floor    int64
	integral bool
}

// solveLinear decides a conjunction of linear constraints (degree ≤ 1
// monomials) with the FM relaxation plus branch-and-bound. Nonlinear
// monomials must have been eliminated by enumeration beforehand.
func (s *solver) solveLinear(cons []Constraint, bounds map[string]interval.Interval) (Result, error) {
	if err := s.step(); err != nil {
		return Result{}, err
	}
	// Collect occurring variables; col numbers them in sorted order.
	col := make(map[string]int)
	for _, c := range cons {
		for _, t := range c.Terms {
			col[t.Vars[0]] = 0
		}
	}
	vars := make([]string, 0, len(col))
	for v := range col {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for i, v := range vars {
		col[v] = i
	}

	// Decide the rational relaxation on int64 rows. A call that overflows
	// them is redone on exact big.Rat rows from the same step count, so
	// step budgets and Stop polling see one elimination either way.
	steps := s.steps
	sample, feasible, err := s.sample64(cons, vars, col, bounds)
	if err == errOverflow {
		s.steps = steps
		s.fallbacks++
		sample, feasible, err = s.sampleExact(cons, vars, bounds)
	}
	if err != nil {
		return Result{}, err
	}
	if !feasible {
		return Result{Status: Unsat}, nil
	}

	// Branch on a fractional component, if any.
	for i, v := range vars {
		if sample[i].integral {
			continue
		}
		fl := sample[i].floor
		left := copyBounds(bounds)
		iv := left[v]
		if fl < iv.Hi {
			iv.Hi = fl
		}
		left[v] = iv
		if !iv.IsEmpty() {
			res, err := s.solve(cons, left)
			if err != nil || res.Status == Sat {
				return res, err
			}
		}
		right := copyBounds(bounds)
		iv = right[v]
		if fl+1 > iv.Lo {
			iv.Lo = fl + 1
		}
		right[v] = iv
		if iv.IsEmpty() {
			return Result{Status: Unsat}, nil
		}
		return s.solve(cons, right)
	}

	// Integral sample: build the model and check disequalities. Variables
	// whose constraints were discharged by propagation take any value from
	// their (tightened) bounds — crucially the bounds in scope here, which
	// already reflect dropped constraints.
	model := make(map[string]int64, len(bounds))
	for i, v := range vars {
		model[v] = sample[i].floor
	}
	for v, bIv := range bounds {
		if _, ok := model[v]; !ok {
			model[v] = clampToward(0, bIv)
		}
	}
	for _, ne := range cons {
		if ne.Rel != RelNe {
			continue
		}
		val := evalTerms(ne.Terms, model)
		if val.Cmp(big.NewInt(ne.K)) != 0 {
			continue
		}
		// Violated: branch Σ ≤ K−1 ∨ Σ ≥ K+1 (i.e. −Σ ≤ −K−1).
		leftC := Constraint{Terms: ne.Terms, K: ne.K - 1, Rel: RelLe}
		res, err := s.solve(append(cons[:len(cons):len(cons)], leftC), copyBounds(bounds))
		if err != nil || res.Status == Sat {
			return res, err
		}
		neg := make([]Term, len(ne.Terms))
		for i, t := range ne.Terms {
			neg[i] = Term{Coef: -t.Coef, Vars: t.Vars}
		}
		rightC := Constraint{Terms: neg, K: -ne.K - 1, Rel: RelLe}
		return s.solve(append(cons[:len(cons):len(cons)], rightC), copyBounds(bounds))
	}
	return Result{Status: Sat, Model: model}, nil
}

// ---- elimination on int64 rows ------------------------------------------

// errOverflow reports that an int64 row or sample value left ±MaxInt64.
var errOverflow = errors.New("lia: int64 overflow")

// fm64 is the int64 elimination's scratch. A solver reuses it across its
// solveLinear calls: a call's rows are dead once it has its sample.
type fm64 struct {
	w     int            // row width: a coefficient per variable, then K
	arena []int64        // rows, bump-allocated and named by their offset
	idx   []int          // each level's row offsets, stacked
	seen  map[uint64]int // row hash (probed linearly) → offset
	val   []frac         // the sample being back-substituted, by column
	ovf   bool           // sticky: an add or mul left ±MaxInt64
}

// frac is an exact fraction in lowest terms with den > 0.
type frac struct{ num, den int64 }

// sample64 is fmSample on dense int64 rows over the sorted vars, built in
// sampleExact's order. FM multiplies integer rows by their coefficients,
// so an int64 row holds exactly the big.Rat map's values, and rows are
// equal exactly when their keys are. Same order, same tie-breaks: same
// elimination and sample. Rows are not divided by their gcd, which would
// merge positive multiples the key keeps apart. Every add, multiply and
// negation is checked; errOverflow (also returned under s.exact) sends the
// call to sampleExact.
func (s *solver) sample64(cons []Constraint, vars []string, col map[string]int, bounds map[string]interval.Interval) ([]point, bool, error) {
	if s.exact {
		return nil, false, errOverflow
	}
	f := &s.fm
	f.w, f.arena, f.idx, f.ovf = len(vars)+1, f.arena[:0], f.idx[:0], false
	f.val = slices.Grow(f.val[:0], len(vars))[:len(vars)]
	for _, c := range cons {
		signs := []int64{1, -1}
		switch c.Rel {
		case RelNe:
			continue
		case RelLe:
			signs = signs[:1]
		}
		for _, sign := range signs {
			r := f.newRow()
			r[f.w-1] = f.mul(sign, c.K)
			for _, t := range c.Terms {
				j := col[t.Vars[0]]
				r[j] = f.add(r[j], f.mul(sign, t.Coef))
			}
		}
	}
	cols := make([]int, len(vars))
	for j, v := range vars {
		cols[j] = j
		r := f.newRow()
		r[j], r[f.w-1] = 1, f.mul(1, bounds[v].Hi)
		r = f.newRow()
		r[j], r[f.w-1] = -1, f.mul(-1, bounds[v].Lo)
	}
	if f.ovf {
		return nil, false, errOverflow
	}
	if feasible, err := s.eliminate64(0, cols); err != nil || !feasible {
		return nil, feasible, err
	}
	pts := make([]point, len(vars))
	for j, x := range f.val {
		pts[j] = point{floor: floorDiv(x.num, x.den), integral: x.den == 1}
	}
	return pts, true, nil
}

// eliminate64 is one level of fmSample over the rows f.idx[start:],
// eliminating the columns in cols. It consumes cols: no caller reads them
// after the call.
func (s *solver) eliminate64(start int, cols []int) (bool, error) {
	if err := s.step(); err != nil {
		return false, err
	}
	f := &s.fm
	end := len(f.idx)
	if len(cols) == 0 {
		for _, off := range f.idx[start:end] {
			if f.arena[off+f.w-1] < 0 { // 0 ≤ k fails
				return false, nil
			}
		}
		return true, nil
	}
	// Pick the first column minimizing the FM blowup (#lower × #upper).
	best, bestCost := 0, -1
	for i, j := range cols {
		var nl, nu int
		for _, off := range f.idx[start:end] {
			if c := f.arena[off+j]; c > 0 {
				nu++
			} else if c < 0 {
				nl++
			}
		}
		if cost := nl * nu; bestCost < 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	v := cols[best]
	rest := append(cols[:best], cols[best+1:]...)

	// Stack the lowers, the uppers and the others, each in row order; the
	// others open the next level's rows.
	var from [3]int
	for k, sign := range [3]int{-1, 1, 0} {
		from[k] = len(f.idx)
		for i := start; i < end; i++ {
			if cmp.Compare(f.arena[f.idx[i]+v], 0) == sign {
				f.idx = append(f.idx, f.idx[i])
			}
		}
	}
	lowers, uppers, next := from[0], from[1], from[2]
	// Combine lower × upper pairs, dropping rows equal to an other or to
	// an earlier combination.
	if f.seen == nil {
		f.seen = make(map[uint64]int)
	}
	clear(f.seen)
	for _, off := range f.idx[next:] {
		f.insert(off)
	}
	for li := lowers; li < uppers; li++ {
		for ui := uppers; ui < next; ui++ {
			off, zero := f.combine(f.idx[li], f.idx[ui], v)
			switch {
			case f.ovf:
				return false, errOverflow
			case zero && f.arena[off+f.w-1] < 0:
				return false, nil // immediate contradiction
			case zero || !f.insert(off):
				f.arena = f.arena[:off]
			default:
				f.idx = append(f.idx, off)
				if len(f.idx)-next > s.opts.MaxConstraints {
					return false, ErrBudget
				}
			}
		}
	}
	if feasible, err := s.eliminate64(next, rest); err != nil || !feasible {
		return feasible, err
	}
	// Back-substitute: v ∈ [max lowers, min uppers] under the sample.
	var lo, hi frac
	for i := lowers; i < uppers; i++ {
		if b := f.boundAt(f.idx[i], v); i == lowers || f.less(lo, b) {
			lo = b
		}
	}
	for i := uppers; i < next; i++ {
		if b := f.boundAt(f.idx[i], v); i == uppers || f.less(b, hi) {
			hi = b
		}
	}
	f.val[v] = f.pick(lo, hi)
	if f.ovf {
		return false, errOverflow
	}
	return true, nil
}

// newRow appends a zero row to the arena, lists it and returns it.
func (f *fm64) newRow() []int64 {
	off := len(f.arena)
	f.arena = append(f.arena, make([]int64, f.w)...)
	f.idx = append(f.idx, off)
	return f.arena[off:]
}

// combine appends cu·lo + (−cl)·up, where cl < 0 and cu > 0 are the rows'
// coefficients of column v, and reports whether every coefficient of the
// new row is zero. It does not list the new row.
func (f *fm64) combine(lo, up, v int) (off int, zero bool) {
	off = len(f.arena)
	f.arena = append(f.arena, make([]int64, f.w)...)
	out, l, u := f.arena[off:], f.arena[lo:lo+f.w], f.arena[up:up+f.w]
	ml, mu := u[v], -l[v]
	zero = true
	for i := range out {
		if i != v && (l[i] != 0 || u[i] != 0) {
			out[i] = f.add(f.mul(ml, l[i]), f.mul(mu, u[i]))
			zero = zero && (out[i] == 0 || i == f.w-1)
		}
	}
	return off, zero
}

// insert adds the row at off to f.seen unless an equal row is there, and
// reports whether it added it.
func (f *fm64) insert(off int) bool {
	r := f.arena[off : off+f.w]
	h := uint64(14695981039346656037) // FNV-1a over the row's words
	for _, x := range r {
		h = (h ^ uint64(x)) * 1099511628211
	}
	for ; ; h++ {
		o, ok := f.seen[h]
		if !ok {
			f.seen[h] = off
			return true
		}
		if slices.Equal(f.arena[o:o+f.w], r) {
			return false
		}
	}
}

// boundAt is the bound on v that the row at off induces under the sample:
// (K − Σ_{x≠v} coef·x)/coef[v].
func (f *fm64) boundAt(off, v int) frac {
	r := f.arena[off : off+f.w]
	b := frac{r[f.w-1], 1}
	for i, c := range r[:f.w-1] {
		if c != 0 && i != v {
			b = f.sub(b, c, f.val[i])
		}
	}
	c := r[v]
	if c < 0 {
		b.num, c = -b.num, -c
	}
	return f.reduce(b.num, f.mul(b.den, c))
}

// pick is pickRat on fractions: the integer nearest 0 in [⌈lo⌉, ⌊hi⌋],
// otherwise the midpoint. Both bounds exist: a column's two bound rows
// stay among the others until its own level.
func (f *fm64) pick(lo, hi frac) frac {
	if cl, fh := ceilDiv(lo.num, lo.den), floorDiv(hi.num, hi.den); cl <= fh {
		return frac{min(max(0, cl), fh), 1}
	}
	sum := f.sub(lo, -1, hi)
	return f.reduce(sum.num, f.mul(sum.den, 2))
}

// sub returns a − c·b.
func (f *fm64) sub(a frac, c int64, b frac) frac {
	g := gcd(a.den, b.den)
	num := f.add(f.mul(a.num, b.den/g), -f.mul(f.mul(c, b.num), a.den/g))
	return f.reduce(num, f.mul(a.den, b.den/g))
}

// less reports a < b.
func (f *fm64) less(a, b frac) bool { return f.mul(a.num, b.den) < f.mul(b.num, a.den) }

// reduce returns num/den in lowest terms; den > 0 unless f.ovf is set.
func (f *fm64) reduce(num, den int64) frac {
	if f.ovf {
		return frac{0, 1}
	}
	g := gcd(num, den)
	return frac{num / g, den / g}
}

// add returns a + b, setting f.ovf when the sum leaves ±MaxInt64.
func (f *fm64) add(a, b int64) int64 {
	c := a + b
	f.ovf = f.ovf || (c > a) != (b > 0) || c == math.MinInt64
	return c
}

// mul returns a · b, setting f.ovf when the product leaves ±MaxInt64.
func (f *fm64) mul(a, b int64) int64 {
	hi, lo := bits.Mul64(abs64(a), abs64(b))
	f.ovf = f.ovf || hi != 0 || lo > math.MaxInt64
	if (a < 0) != (b < 0) {
		return -int64(lo)
	}
	return int64(lo)
}

func abs64(a int64) uint64 {
	if a < 0 {
		return uint64(-a) // −MinInt64 wraps, and uint64 reads it as 2^63
	}
	return uint64(a)
}

// gcd returns the greatest common divisor of |a| and b > 0.
func gcd(a, b int64) int64 {
	x, y := abs64(a), uint64(b)
	for x != 0 {
		x, y = y%x, x
	}
	return int64(y)
}

// ---- exact elimination on big.Rat rows ------------------------------------

// ratCon is a rational constraint Σ Coef[v]·v ≤ K.
type ratCon struct {
	coef map[string]*big.Rat
	k    *big.Rat
}

func (c ratCon) key() string {
	vars := make([]string, 0, len(c.coef))
	for v := range c.coef {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var b strings.Builder
	for _, v := range vars {
		fmt.Fprintf(&b, "%s:%s;", v, c.coef[v].RatString())
	}
	fmt.Fprintf(&b, "<=%s", c.k.RatString())
	return b.String()
}

// sampleExact builds the system — the Le rows, each Eq as two rows, then
// each variable's upper and lower bound — as big.Rat rows and eliminates it.
// It is the reference the int64 rows are tested against, and the path for
// the calls that overflow them.
func (s *solver) sampleExact(cons []Constraint, vars []string, bounds map[string]interval.Interval) ([]point, bool, error) {
	var rats []ratCon
	for _, c := range cons {
		switch c.Rel {
		case RelLe:
			rats = append(rats, toRat(c, 1))
		case RelEq:
			rats = append(rats, toRat(c, 1), toRat(c, -1))
		}
	}
	for _, v := range vars {
		iv := bounds[v]
		up := ratCon{coef: map[string]*big.Rat{v: big.NewRat(1, 1)}, k: new(big.Rat).SetInt64(iv.Hi)}
		lo := ratCon{coef: map[string]*big.Rat{v: big.NewRat(-1, 1)}, k: signedRat(-1, iv.Lo)}
		rats = append(rats, up, lo)
	}
	sample, feasible, err := s.fmSample(rats, vars)
	if err != nil || !feasible {
		return nil, feasible, err
	}
	pts := make([]point, len(vars))
	for i, v := range vars {
		pts[i] = point{floor: ratFloor(sample[v]), integral: sample[v].IsInt()}
	}
	return pts, true, nil
}

// signedRat returns sign·x exactly: negating in int64 would wrap −2^63 to
// itself.
func signedRat(sign, x int64) *big.Rat {
	r := new(big.Rat).SetInt64(x)
	if sign < 0 {
		r.Neg(r)
	}
	return r
}

func toRat(c Constraint, sign int64) ratCon {
	rc := ratCon{coef: make(map[string]*big.Rat, len(c.Terms)), k: signedRat(sign, c.K)}
	for _, t := range c.Terms {
		v := t.Vars[0]
		cur, ok := rc.coef[v]
		if !ok {
			cur = new(big.Rat)
			rc.coef[v] = cur
		}
		cur.Add(cur, signedRat(sign, t.Coef))
	}
	for v, r := range rc.coef {
		if r.Sign() == 0 {
			delete(rc.coef, v)
		}
	}
	return rc
}

// fmSample eliminates vars one by one, then back-substitutes a rational
// sample point. It reports infeasibility of the rational relaxation.
func (s *solver) fmSample(cons []ratCon, vars []string) (map[string]*big.Rat, bool, error) {
	if err := s.step(); err != nil {
		return nil, false, err
	}
	if len(vars) == 0 {
		for _, c := range cons {
			if len(c.coef) != 0 {
				panic("lia: fmSample: leftover variable")
			}
			if c.k.Sign() < 0 { // 0 ≤ k fails
				return nil, false, nil
			}
		}
		return map[string]*big.Rat{}, true, nil
	}
	// Pick the variable minimizing the FM blowup (#lower × #upper).
	bestIdx, bestCost := 0, -1
	for i, v := range vars {
		var nl, nu int
		for _, c := range cons {
			if r, ok := c.coef[v]; ok {
				if r.Sign() > 0 {
					nu++
				} else {
					nl++
				}
			}
		}
		cost := nl * nu
		if bestCost < 0 || cost < bestCost {
			bestIdx, bestCost = i, cost
		}
	}
	v := vars[bestIdx]
	rest := slices.Delete(slices.Clone(vars), bestIdx, bestIdx+1)

	var lowers, uppers, others []ratCon
	for _, c := range cons {
		r, ok := c.coef[v]
		switch {
		case !ok:
			others = append(others, c)
		case r.Sign() > 0:
			uppers = append(uppers, c)
		default:
			lowers = append(lowers, c)
		}
	}
	// Combine lower × upper pairs.
	seen := make(map[string]bool, len(others))
	combined := others
	for _, c := range combined {
		seen[c.key()] = true
	}
	for _, lo := range lowers {
		for _, up := range uppers {
			nc := combineFM(lo, up, v)
			if len(nc.coef) == 0 {
				if nc.k.Sign() < 0 {
					return nil, false, nil // immediate contradiction
				}
				continue
			}
			k := nc.key()
			if !seen[k] {
				seen[k] = true
				combined = append(combined, nc)
				if len(combined) > s.opts.MaxConstraints {
					return nil, false, ErrBudget
				}
			}
		}
	}
	sample, feasible, err := s.fmSample(combined, rest)
	if err != nil || !feasible {
		return nil, feasible, err
	}
	// Back-substitute: v ∈ [max lowers, min uppers] under sample.
	var lo, hi *big.Rat
	for _, c := range lowers {
		b := boundAt(c, v, sample)
		if lo == nil || b.Cmp(lo) > 0 {
			lo = b
		}
	}
	for _, c := range uppers {
		b := boundAt(c, v, sample)
		if hi == nil || b.Cmp(hi) < 0 {
			hi = b
		}
	}
	sample[v] = pickRat(lo, hi)
	return sample, true, nil
}

// combineFM eliminates v from lower (coef<0) and upper (coef>0).
func combineFM(lo, up ratCon, v string) ratCon {
	cl := lo.coef[v]           // negative
	cu := up.coef[v]           // positive
	ml := new(big.Rat).Set(cu) // multiplier for lo
	mu := new(big.Rat).Neg(cl) // multiplier for up (positive)
	out := ratCon{coef: make(map[string]*big.Rat), k: new(big.Rat)}
	add := func(c ratCon, m *big.Rat) {
		for name, r := range c.coef {
			if name == v {
				continue
			}
			cur, ok := out.coef[name]
			if !ok {
				cur = new(big.Rat)
				out.coef[name] = cur
			}
			cur.Add(cur, new(big.Rat).Mul(m, r))
		}
		out.k.Add(out.k, new(big.Rat).Mul(m, c.k))
	}
	add(lo, ml)
	add(up, mu)
	for name, r := range out.coef {
		if r.Sign() == 0 {
			delete(out.coef, name)
		}
	}
	return out
}

// boundAt computes the bound on v induced by c under the sample: for
// Σ coef·x ≤ k, isolate v: v ⋚ (k − Σ_{x≠v} coef·x)/coef[v].
func boundAt(c ratCon, v string, sample map[string]*big.Rat) *big.Rat {
	num := new(big.Rat).Set(c.k)
	for name, r := range c.coef {
		if name == v {
			continue
		}
		num.Sub(num, new(big.Rat).Mul(r, sample[name]))
	}
	return num.Quo(num, c.coef[v])
}

// pickRat chooses a value in [lo, hi] (either may be nil for ±∞),
// preferring an integer near zero.
func pickRat(lo, hi *big.Rat) *big.Rat {
	switch {
	case lo == nil && hi == nil:
		return new(big.Rat)
	case lo == nil:
		return new(big.Rat).SetInt64(min(ratFloor(hi), 0))
	case hi == nil:
		return new(big.Rat).SetInt64(max(ratCeil(lo), 0))
	}
	if cl, fh := ratCeil(lo), ratFloor(hi); cl <= fh {
		return new(big.Rat).SetInt64(min(max(0, cl), fh))
	}
	mid := new(big.Rat).Add(lo, hi)
	return mid.Quo(mid, big.NewRat(2, 1))
}

func ratFloor(r *big.Rat) int64 {
	return new(big.Int).Div(r.Num(), r.Denom()).Int64() // Euclidean: rounds down for Denom > 0
}

func ratCeil(r *big.Rat) int64 {
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if r.Sign() > 0 && !r.IsInt() {
		q.Add(q, big.NewInt(1))
	}
	return q.Int64()
}

// evalTerms evaluates Σ Coef·Π vars under an integer model, exactly.
func evalTerms(terms []Term, model map[string]int64) *big.Int {
	sum := new(big.Int)
	for _, t := range terms {
		p := big.NewInt(t.Coef)
		for _, v := range t.Vars {
			p.Mul(p, big.NewInt(model[v]))
		}
		sum.Add(sum, p)
	}
	return sum
}
