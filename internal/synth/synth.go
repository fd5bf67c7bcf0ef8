// Package synth implements the component-based synthesizer of the paper's
// §3.3: it enumerates typed expression trees over the provided language
// components — program variables, integer constants, template parameters,
// and operator sets — producing the abstract patch templates that seed the
// repair pool.
//
// Templates are canonicalized through expr.Simplify and deduplicated, so
// syntactically different but semantically identical candidates (x+1 > y
// vs x >= y) occupy one pool slot. Enumeration is deterministic and
// ordered by tree size, so pools are reproducible.
package synth

import (
	"context"
	"sort"

	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/lang"
	"cpr/internal/patch"
)

// Components is the synthesis language for one repair job.
type Components struct {
	// Vars are the program variables visible at the patch location.
	Vars map[string]lang.Type
	// Consts are integer constant components.
	Consts []int64
	// Params are the template parameter names (the paper uses a, b, c…).
	Params []string
	// ParamRange bounds every parameter (the paper's default is [-10,10]).
	ParamRange interval.Interval
	// Arith, Cmp, Bool select the operators available to the synthesizer.
	// Empty slices mean the full default sets.
	Arith []expr.Op
	Cmp   []expr.Op
	Bool  []expr.Op
	// MaxTemplates caps the pool (default 1100, about the largest pool in
	// the paper's tables).
	MaxTemplates int
	// IncludeDeletion adds the constant true/false (or 0) templates that
	// represent functionality deletion; the paper keeps them in the pool
	// and lets ranking deprioritize them (§3.5.3). Default true — set
	// SuppressDeletion to drop them.
	SuppressDeletion bool
	// ExtraTemplates are custom patch templates in SMT-LIB prefix syntax
	// over the variable and parameter names (the paper's "components …
	// provided in the SMT-LIB format"). They are placed at the front of
	// the pool, after the deletion templates. Parse errors panic — the
	// templates are part of the job's configuration.
	ExtraTemplates []string
	// Context stops enumeration early once it is done, bounding checkpoint
	// and shutdown latency on large component grammars. A stopped
	// enumeration returns the templates collected so far — always a prefix
	// of the full deterministic enumeration, so a resumed run that
	// re-synthesizes under a live context produces a superset in the same
	// order. Nil means context.Background().
	Context context.Context
}

// DefaultArith, DefaultCmp and DefaultBool are the paper's §3.3 component
// sets.
var (
	DefaultArith = []expr.Op{expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv, expr.OpRem}
	DefaultCmp   = []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
	DefaultBool  = []expr.Op{expr.OpAnd, expr.OpOr, expr.OpNot}
)

func (c Components) withDefaults() Components {
	if c.Arith == nil {
		c.Arith = DefaultArith
	}
	if c.Cmp == nil {
		c.Cmp = DefaultCmp
	}
	if c.Bool == nil {
		c.Bool = DefaultBool
	}
	if c.MaxTemplates == 0 {
		c.MaxTemplates = 1100
	}
	if c.ParamRange == (interval.Interval{}) {
		c.ParamRange = interval.New(-10, 10)
	}
	if c.Context == nil {
		c.Context = context.Background()
	}
	return c
}

// GeneralCount reports the number of general language components in use
// (operator groups plus the parameter slots), matching the granularity of
// the paper's Components/General column.
func (c Components) GeneralCount() int {
	c = c.withDefaults()
	n := 0
	if len(c.Arith) > 0 {
		n++
	}
	if len(c.Cmp) > 0 {
		n++
	}
	if len(c.Bool) > 0 {
		n++
	}
	n += len(c.Params)
	return n
}

// CustomCount reports subject-specific components: program variables and
// constants.
func (c Components) CustomCount() int {
	return len(c.Vars) + len(c.Consts)
}

// ParamBounds returns the bounds map for the parameters.
func (c Components) ParamBounds() map[string]interval.Interval {
	c = c.withDefaults()
	m := make(map[string]interval.Interval, len(c.Params))
	for _, p := range c.Params {
		m[p] = c.ParamRange
	}
	return m
}

// Synthesize enumerates patch templates for the given hole type, smallest
// trees first, canonicalized and deduplicated, capped at MaxTemplates.
func Synthesize(c Components, holeType lang.Type) []*expr.Term {
	c = c.withDefaults()
	if holeType == lang.TypeBool {
		return synthBool(c)
	}
	return synthInt(c)
}

// BuildPool wraps templates into an abstract-patch pool with the
// component parameter bounds as the initial Tρ.
func BuildPool(templates []*expr.Term, c Components) *patch.Pool {
	bounds := c.ParamBounds()
	pool := &patch.Pool{}
	for i, t := range templates {
		pool.Patches = append(pool.Patches, patch.New(i+1, t, bounds))
	}
	return pool
}

// parseExtra parses the custom SMT-LIB templates matching the hole sort.
func parseExtra(c Components, sort expr.Sort) []*expr.Term {
	if len(c.ExtraTemplates) == 0 {
		return nil
	}
	vars := make(map[string]expr.Sort, len(c.Vars)+len(c.Params))
	for name, t := range c.Vars {
		if t == lang.TypeBool {
			vars[name] = expr.SortBool
		} else {
			vars[name] = expr.SortInt
		}
	}
	for _, p := range c.Params {
		vars[p] = expr.SortInt
	}
	var out []*expr.Term
	for _, src := range c.ExtraTemplates {
		t, err := expr.Parse(src, vars)
		if err != nil {
			panic("synth: ExtraTemplates: " + err.Error())
		}
		if t.Sort == sort {
			out = append(out, t)
		}
	}
	return out
}

// intLeaves returns the depth-1 integer terms: variables, parameters,
// constants — in deterministic order.
func intLeaves(c Components) []*expr.Term {
	var names []string
	for n, t := range c.Vars {
		if t == lang.TypeInt {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var out []*expr.Term
	for _, n := range names {
		out = append(out, expr.IntVar(n))
	}
	for _, p := range c.Params {
		out = append(out, expr.IntVar(p))
	}
	for _, k := range c.Consts {
		out = append(out, expr.Int(k))
	}
	return out
}

func boolVars(c Components) []*expr.Term {
	var names []string
	for n, t := range c.Vars {
		if t == lang.TypeBool {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var out []*expr.Term
	for _, n := range names {
		out = append(out, expr.BoolVar(n))
	}
	return out
}

func isParamName(c Components, name string) bool {
	for _, p := range c.Params {
		if p == name {
			return true
		}
	}
	return false
}

// usable reports whether a canonical template is worth keeping: it must
// mention at least one program variable (param-only and constant templates
// collapse into the explicit deletion patches) and at most one occurrence
// context per parameter is guaranteed by construction.
func usable(c Components, t *expr.Term) bool {
	if t.IsConst() {
		return false
	}
	for _, v := range expr.Vars(t) {
		if !isParamName(c, v.Name) {
			return true
		}
	}
	return false
}

// dedupAdd canonicalizes t and appends it if new and usable.
type collector struct {
	c    Components
	done <-chan struct{} // c.Context.Done(), fetched once per enumeration
	seen map[*expr.Term]bool
	out  []*expr.Term
	max  int
	n    int
}

// cancelStride bounds how many enumeration steps run between cancellation
// checks: large grammars reject millions of duplicate candidates between
// accepted templates, and the stride keeps the poll off that hot path.
const cancelStride = 256

func (col *collector) add(t *expr.Term) bool {
	if len(col.out) >= col.max {
		return false
	}
	col.n++
	if col.n%cancelStride == 0 {
		select {
		case <-col.done:
			return false
		default:
		}
	}
	s := expr.Simplify(t)
	if col.seen[s] {
		return true
	}
	col.seen[s] = true
	if !usable(col.c, s) {
		return true
	}
	col.out = append(col.out, s)
	return true
}

func synthBool(c Components) []*expr.Term {
	col := &collector{c: c, done: c.Context.Done(), seen: make(map[*expr.Term]bool), max: c.MaxTemplates}
	// Functionality-deletion templates first (the paper keeps them in the
	// pool; ranking handles them).
	if !c.SuppressDeletion {
		col.out = append(col.out, expr.True(), expr.False())
	}
	for _, t := range parseExtra(c, expr.SortBool) {
		col.add(t)
	}
	leaves := intLeaves(c)
	bvs := boolVars(c)
	for _, b := range bvs {
		col.add(b)
		col.add(expr.Not(b))
	}
	// Depth-1 atoms: cmp(leaf, leaf).
	var atoms []*expr.Term
	addAtom := func(t *expr.Term) bool {
		before := len(col.out)
		if !col.add(t) {
			return false
		}
		if len(col.out) > before {
			atoms = append(atoms, col.out[len(col.out)-1])
		}
		return true
	}
	for _, op := range c.Cmp {
		for _, l := range leaves {
			for _, r := range leaves {
				if l == r {
					continue
				}
				if !addAtom(expr.Rebuild(op, []*expr.Term{l, r})) {
					return col.out
				}
			}
		}
	}
	// Depth-2 atoms: cmp(arith(leaf, leaf), leaf).
	ints2 := arithCombos(c, leaves)
	for _, op := range c.Cmp {
		for _, l := range ints2 {
			for _, r := range leaves {
				if !addAtom(expr.Rebuild(op, []*expr.Term{l, r})) {
					return col.out
				}
			}
		}
	}
	// Boolean combinations of two depth-1 atoms.
	hasAnd, hasOr, hasNot := false, false, false
	for _, op := range c.Bool {
		switch op {
		case expr.OpAnd:
			hasAnd = true
		case expr.OpOr:
			hasOr = true
		case expr.OpNot:
			hasNot = true
		}
	}
	// Enumerate pairs diagonally (by i+j) so that capped pools still
	// contain combinations of diverse atoms rather than every pair
	// involving the first atom.
	n := len(atoms)
	for sum := 1; sum <= 2*n-3; sum++ {
		for i := 0; i < n; i++ {
			j := sum - i
			if j <= i || j >= n {
				continue
			}
			if hasAnd {
				if !col.add(expr.And(atoms[i], atoms[j])) {
					return col.out
				}
			}
			if hasOr {
				if !col.add(expr.Or(atoms[i], atoms[j])) {
					return col.out
				}
			}
		}
	}
	if hasNot {
		for i := 0; i < n; i++ {
			if !col.add(expr.Not(atoms[i])) {
				return col.out
			}
		}
	}
	return col.out
}

// arithCombos builds depth-2 integer terms arith(leaf, leaf).
func arithCombos(c Components, leaves []*expr.Term) []*expr.Term {
	seen := make(map[*expr.Term]bool)
	var out []*expr.Term
	for _, op := range c.Arith {
		for _, l := range leaves {
			for _, r := range leaves {
				if l == r && (op == expr.OpSub || op == expr.OpDiv || op == expr.OpRem) {
					continue // x−x, x/x, x%x are degenerate
				}
				// Division/remainder by a literal zero is useless.
				if (op == expr.OpDiv || op == expr.OpRem) && r.Op == expr.OpIntConst && r.Val == 0 {
					continue
				}
				t := expr.Simplify(expr.Rebuild(op, []*expr.Term{l, r}))
				if t.IsConst() || seen[t] {
					continue
				}
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}

func synthInt(c Components) []*expr.Term {
	col := &collector{c: c, done: c.Context.Done(), seen: make(map[*expr.Term]bool), max: c.MaxTemplates}
	for _, t := range parseExtra(c, expr.SortInt) {
		col.add(t)
	}
	leaves := intLeaves(c)
	for _, l := range leaves {
		if !col.add(l) {
			return col.out
		}
	}
	for _, t := range arithCombos(c, leaves) {
		if !col.add(t) {
			return col.out
		}
	}
	// Depth-3: arith(depth-2, leaf), bounded by the template cap.
	ints2 := arithCombos(c, leaves)
	for _, op := range c.Arith {
		for _, l := range ints2 {
			for _, r := range leaves {
				if (op == expr.OpDiv || op == expr.OpRem) && r.Op == expr.OpIntConst && r.Val == 0 {
					continue
				}
				if !col.add(expr.Rebuild(op, []*expr.Term{l, r})) {
					return col.out
				}
			}
		}
	}
	return col.out
}
