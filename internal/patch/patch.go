// Package patch implements abstract patches — the 3-tuples (θρ, Tρ, ψρ)
// of the paper's §3.1 — and the counterexample-guided parameter-constraint
// refinement of §4 (Algorithm 3).
//
// An abstract patch is a template expression θρ over program variables and
// parameters, together with a parameter constraint Tρ represented as a
// union of integer boxes (package interval). The patch formula ψρ is
// derived on demand by instantiating θρ over a symbolic snapshot of the
// program state at the patch location and equating it with the fresh
// patch-output symbol the concolic executor introduced.
package patch

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"cpr/internal/expr"
	"cpr/internal/interval"
)

// Patch is an abstract patch (θρ, Tρ, ψρ). Concrete patches are the
// special case of an empty parameter list (or singleton boxes).
type Patch struct {
	// ID is a stable identifier within a pool.
	ID int
	// Expr is the template θρ over program variables and parameters.
	Expr *expr.Term
	// Params lists the parameter names occurring in Expr, sorted; the
	// dimensions of Constraint correspond to this order.
	Params []string
	// Constraint is Tρ: the region of admissible parameter vectors.
	Constraint interval.Region

	// Score is the accumulated ranking evidence (§3.5.3): incremented
	// when the patch is consistent with an explored path, more when that
	// path exercised the bug location, and decremented when the patch
	// behaves as functionality deletion on the path.
	Score float64
	// Deletions counts paths on which the patch forced the guard to a
	// constant (functionality-deletion evidence).
	Deletions int
}

// New builds an abstract patch from a template and the parameter box.
// Parameters are the template's free variables that appear in paramBounds;
// everything else is treated as a program variable.
func New(id int, template *expr.Term, paramBounds map[string]interval.Interval) *Patch {
	var params []string
	for _, v := range expr.Vars(template) {
		if _, ok := paramBounds[v.Name]; ok {
			params = append(params, v.Name)
		}
	}
	sort.Strings(params)
	box := make(interval.Box, len(params))
	for i, p := range params {
		box[i] = paramBounds[p]
	}
	return &Patch{ID: id, Expr: template, Params: params, Constraint: interval.FromBox(box)}
}

// Clone returns a deep copy (constraint region included).
func (p *Patch) Clone() *Patch {
	c := *p
	c.Constraint = p.Constraint.Clone()
	return &c
}

// CountConcrete returns the number of concrete patches this abstract patch
// covers: the volume of Tρ, or 1 for parameterless templates.
func (p *Patch) CountConcrete() int64 {
	if len(p.Params) == 0 {
		return 1
	}
	return p.Constraint.Count()
}

// ConstraintTerm renders Tρ(A) as a formula over the parameter names.
func (p *Patch) ConstraintTerm() *expr.Term {
	if len(p.Params) == 0 {
		return expr.True()
	}
	return p.Constraint.ToTerm(p.Params)
}

// Hole is a patch instantiated at one patch-location hit: the patch-output
// symbol the executor introduced there and its definition θρ[vars ↦
// snapshot]. A later hit's definition may mention an earlier hit's output.
type Hole struct {
	Out, Def *expr.Term
}

// Instantiate builds the hole for one hit. Program variables missing from
// the snapshot are left free (they then range over their bounds, a sound
// over-approximation); parameters are never substituted.
func (p *Patch) Instantiate(out *expr.Term, snapshot map[string]*expr.Term) Hole {
	sub := make(map[string]*expr.Term, len(snapshot))
	for name, val := range snapshot {
		if !p.IsParam(name) {
			sub[name] = val
		}
	}
	return Hole{Out: out, Def: expr.Subst(p.Expr, sub)}
}

// Formula is the hole's conjunct of ψρ: out ⇔ Def for boolean holes,
// out = Def for integer holes.
func (h Hole) Formula() *expr.Term { return expr.Eq(h.Out, h.Def) }

// Psi conjoins the holes' formulas in hit order: ψρ for one path.
func Psi(holes []Hole) *expr.Term {
	parts := make([]*expr.Term, len(holes))
	for i, h := range holes {
		parts[i] = h.Formula()
	}
	return expr.And(parts...)
}

// Formula builds ψρ for one patch-location hit (see Instantiate).
func (p *Patch) Formula(out *expr.Term, snapshot map[string]*expr.Term) *expr.Term {
	return p.Instantiate(out, snapshot).Formula()
}

// IsParam reports whether name is one of the patch's template parameters.
func (p *Patch) IsParam(name string) bool {
	for _, q := range p.Params {
		if q == name {
			return true
		}
	}
	return false
}

// ParamBounds returns per-parameter bounds covering the constraint region
// (the hull), for solver bounds maps.
func (p *Patch) ParamBounds() map[string]interval.Interval {
	m := make(map[string]interval.Interval, len(p.Params))
	for i, name := range p.Params {
		hull := interval.Empty()
		for _, b := range p.Constraint.Boxes {
			hull = hull.Hull(b[i])
		}
		m[name] = hull
	}
	return m
}

// ParamPoint extracts this patch's parameter vector from a model.
func (p *Patch) ParamPoint(m expr.Model) []int64 {
	pt := make([]int64, len(p.Params))
	for i, name := range p.Params {
		pt[i] = m[name]
	}
	return pt
}

// AnyParams returns one admissible parameter assignment, or ok=false when
// the constraint region is empty.
func (p *Patch) AnyParams() (expr.Model, bool) {
	if len(p.Params) == 0 {
		return expr.Model{}, true
	}
	var out expr.Model
	p.Constraint.Points(func(pt []int64) bool {
		out = expr.Model{}
		for i, name := range p.Params {
			out[name] = pt[i]
		}
		return false // first point suffices
	})
	if out == nil {
		return nil, false
	}
	return out, true
}

// String renders the patch as its C expression plus parameter constraint.
func (p *Patch) String() string {
	var b strings.Builder
	b.WriteString(expr.CString(p.Expr))
	if len(p.Params) > 0 {
		fmt.Fprintf(&b, "  with %s ∈ %s", strings.Join(p.Params, ","), p.Constraint)
	}
	return b.String()
}

// Pool is an ordered collection of abstract patches.
type Pool struct {
	Patches []*Patch
}

// Clone deep-copies the pool.
func (pl *Pool) Clone() *Pool {
	out := &Pool{Patches: make([]*Patch, len(pl.Patches))}
	for i, p := range pl.Patches {
		out.Patches[i] = p.Clone()
	}
	return out
}

// Size returns the number of abstract patches.
func (pl *Pool) Size() int { return len(pl.Patches) }

// CountConcrete returns the total number of concrete patches in the pool
// (the |P| columns of the paper's tables), saturating at math.MaxInt64.
func (pl *Pool) CountConcrete() int64 {
	var n int64
	for _, p := range pl.Patches {
		c := p.CountConcrete()
		if n > math.MaxInt64-c {
			return math.MaxInt64
		}
		n += c
	}
	return n
}

// Remove deletes the patch with the given ID.
func (pl *Pool) Remove(id int) {
	kept := pl.Patches[:0]
	for _, p := range pl.Patches {
		if p.ID != id {
			kept = append(kept, p)
		}
	}
	pl.Patches = kept
}

// Ranked returns the patches sorted by descending score; ties break by
// fewer deletion marks, then by smaller concrete count (more specific
// patches first), then by ID for determinism.
func (pl *Pool) Ranked() []*Patch {
	out := append([]*Patch(nil), pl.Patches...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Deletions != b.Deletions {
			return a.Deletions < b.Deletions
		}
		ca, cb := a.CountConcrete(), b.CountConcrete()
		if ca != cb {
			return ca < cb
		}
		return a.ID < b.ID
	})
	return out
}
