package lia

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"cpr/internal/interval"
)

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

// solveLinear decides a conjunction of linear constraints (degree ≤ 1
// monomials) with the FM relaxation plus branch-and-bound. Nonlinear
// monomials must have been eliminated by enumeration beforehand.
func (s *solver) solveLinear(cons []Constraint, bounds map[string]interval.Interval) (Result, error) {
	if err := s.step(); err != nil {
		return Result{}, err
	}
	// Collect occurring variables.
	varSet := make(map[string]bool)
	for _, c := range cons {
		for _, t := range c.Terms {
			varSet[t.Vars[0]] = true
		}
	}
	vars := make([]string, 0, len(varSet))
	for v := range varSet {
		vars = append(vars, v)
	}
	sort.Strings(vars)

	// Build the rational system: Le/Eq constraints plus variable bounds.
	var rats []ratCon
	var nes []Constraint
	for _, c := range cons {
		switch c.Rel {
		case RelLe:
			rats = append(rats, toRat(c, 1))
		case RelEq:
			rats = append(rats, toRat(c, 1), toRat(c, -1))
		case RelNe:
			nes = append(nes, c)
		}
	}
	for _, v := range vars {
		iv := bounds[v]
		up := ratCon{coef: map[string]*big.Rat{v: big.NewRat(1, 1)}, k: new(big.Rat).SetInt64(iv.Hi)}
		lo := ratCon{coef: map[string]*big.Rat{v: big.NewRat(-1, 1)}, k: new(big.Rat).SetInt64(-iv.Lo)}
		rats = append(rats, up, lo)
	}

	sample, feasible, err := s.fmSample(rats, vars)
	if err != nil {
		return Result{}, err
	}
	if !feasible {
		return Result{Status: Unsat}, nil
	}

	// Branch on a fractional component, if any.
	for _, v := range vars {
		r := sample[v]
		if r.IsInt() {
			continue
		}
		fl := ratFloor(r)
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
	for _, v := range vars {
		model[v] = ratInt(sample[v])
	}
	for v, bIv := range bounds {
		if _, ok := model[v]; !ok {
			model[v] = clampToward(0, bIv)
		}
	}
	for _, ne := range nes {
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

func toRat(c Constraint, sign int64) ratCon {
	rc := ratCon{coef: make(map[string]*big.Rat, len(c.Terms)), k: new(big.Rat).SetInt64(sign * c.K)}
	for _, t := range c.Terms {
		v := t.Vars[0]
		cur, ok := rc.coef[v]
		if !ok {
			cur = new(big.Rat)
			rc.coef[v] = cur
		}
		cur.Add(cur, new(big.Rat).SetInt64(sign*t.Coef))
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
	rest := make([]string, 0, len(vars)-1)
	rest = append(rest, vars[:bestIdx]...)
	rest = append(rest, vars[bestIdx+1:]...)

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
		f := ratFloor(hi)
		if f > 0 {
			f = 0
		}
		return new(big.Rat).SetInt64(f)
	case hi == nil:
		cl := ratCeil(lo)
		if cl < 0 {
			cl = 0
		}
		return new(big.Rat).SetInt64(cl)
	}
	cl, fh := ratCeil(lo), ratFloor(hi)
	if cl <= fh {
		pref := int64(0)
		if pref < cl {
			pref = cl
		}
		if pref > fh {
			pref = fh
		}
		return new(big.Rat).SetInt64(pref)
	}
	mid := new(big.Rat).Add(lo, hi)
	return mid.Quo(mid, big.NewRat(2, 1))
}

func ratFloor(r *big.Rat) int64 {
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if r.Sign() < 0 && !r.IsInt() {
		q.Sub(q, big.NewInt(1))
	}
	return q.Int64()
}

func ratCeil(r *big.Rat) int64 {
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if r.Sign() > 0 && !r.IsInt() {
		q.Add(q, big.NewInt(1))
	}
	return q.Int64()
}

func ratInt(r *big.Rat) int64 {
	if !r.IsInt() {
		panic("lia: ratInt: not an integer")
	}
	return r.Num().Int64()
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
