package bench

import (
	"fmt"
	"strings"

	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/patch"
	"cpr/internal/smt"
)

// Figure1Step is one row of the paper's Figure 1: the patch pool after
// exploring one input partition.
type Figure1Step struct {
	// Label is the step name (I..V) and Partition the path constraint.
	Label, Partition string
	// Patches renders each surviving template with its parameter
	// constraint and concrete count.
	Patches []string
	// Total is the number of concrete patches in the pool.
	Total int64
	// Skipped marks partitions pruned by path reduction (step V).
	Skipped bool
}

// Figure1 reproduces the illustrative concolic exploration of the paper's
// Figure 1 exactly: the three abstract patches of the example (x ≥ a,
// y < b, x == a ∨ y == b) are refined against the partitions P1..P3 of the
// input space of CVE-2016-3623, and partition P4 is skipped because no
// remaining patch can exercise it. The concrete counts per step are the
// paper's 69 → 46 → 12 → 1 → 1.
func Figure1() ([]Figure1Step, error) {
	solver := smt.NewSolver(smt.Options{})
	x, y := expr.IntVar("x"), expr.IntVar("y")
	a, b := expr.IntVar("a"), expr.IntVar("b")
	out := expr.BoolVar("patch!out!0")
	bounds := map[string]interval.Interval{
		"x": interval.New(-100, 100),
		"y": interval.New(-100, 100),
	}
	sigma := expr.And(expr.Ne(x, expr.Int(0)), expr.Ne(y, expr.Int(0)))
	refiner := &patch.Refiner{Solver: solver, InputBounds: bounds}

	// The pool after the initial test x=7, y=0 (step I of the figure; the
	// constraints are "already modified by the synthesizer to pass the
	// initial test case").
	p1 := patch.New(1, expr.Ge(x, a), map[string]interval.Interval{"a": interval.New(-10, 7)})
	p2 := patch.New(2, expr.Lt(y, b), map[string]interval.Interval{"b": interval.New(1, 10)})
	p3 := patch.New(3, expr.Or(expr.Eq(x, a), expr.Eq(y, b)), nil)
	p3.Params = []string{"a", "b"}
	p3.Constraint = interval.Region{Dim: 2, Boxes: []interval.Box{
		{interval.Point(7), interval.New(-10, 10)},
		{interval.New(-10, 6), interval.Point(0)},
		{interval.New(8, 10), interval.Point(0)},
	}}
	pool := &patch.Pool{Patches: []*patch.Patch{p1, p2, p3}}

	snapshot := map[string]*expr.Term{"x": x, "y": y}
	step := func(label, partName string, phi *expr.Term) (Figure1Step, error) {
		if phi != nil {
			kept := pool.Patches[:0]
			for _, p := range pool.Patches {
				holes := []patch.Hole{p.Instantiate(out, snapshot)}
				psi := patch.Psi(holes)
				pi := expr.And(phi, psi, p.ConstraintTerm())
				pb := boundsPlus(bounds, p)
				sat, err := solver.IsSat(pi, pb)
				if err != nil {
					return Figure1Step{}, err
				}
				if !sat {
					kept = append(kept, p) // cannot reason: keep as-is
					continue
				}
				refiner.InputBounds = bounds
				refined, err := refiner.Refine(phi, psi, sigma, p, p.Constraint, holes)
				if err != nil {
					return Figure1Step{}, err
				}
				if refined.IsEmpty() {
					continue // patch removed
				}
				p.Constraint = refined
				kept = append(kept, p)
			}
			pool.Patches = kept
		}
		st := Figure1Step{Label: label, Partition: partName, Total: pool.CountConcrete()}
		for _, p := range pool.Patches {
			st.Patches = append(st.Patches, fmt.Sprintf("%s (%d concrete)", p, p.CountConcrete()))
		}
		return st, nil
	}

	var steps []Figure1Step
	st, err := step("I", "initial test x=7, y=0", nil)
	if err != nil {
		return nil, err
	}
	steps = append(steps, st)

	partitions := []struct {
		label, name string
		phi         *expr.Term
	}{
		{"II", "P1: x > 3 ∧ y ≤ 5 ∧ ¬C", expr.And(expr.Gt(x, expr.Int(3)), expr.Le(y, expr.Int(5)), expr.Eq(out, expr.False()))},
		{"III", "P2: x ≤ 3 ∧ y > 5 ∧ ¬C", expr.And(expr.Le(x, expr.Int(3)), expr.Gt(y, expr.Int(5)), expr.Eq(out, expr.False()))},
		{"IV", "P3: x ≤ 3 ∧ y ≤ 5 ∧ ¬C", expr.And(expr.Le(x, expr.Int(3)), expr.Le(y, expr.Int(5)), expr.Eq(out, expr.False()))},
	}
	for _, part := range partitions {
		st, err := step(part.label, part.name, part.phi)
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
	}

	// Step V: P4 (x > 3 ∧ y > 5 ∧ C) is satisfiable on its own but no
	// remaining patch can exercise it — path reduction skips it.
	p4 := expr.And(expr.Gt(x, expr.Int(3)), expr.Gt(y, expr.Int(5)), expr.Eq(out, expr.True()))
	feasible := false
	for _, p := range pool.Patches {
		psi := p.Formula(out, snapshot)
		sat, err := solver.IsSat(expr.And(p4, psi, p.ConstraintTerm()), boundsPlus(bounds, p))
		if err != nil {
			return nil, err
		}
		if sat {
			feasible = true
			break
		}
	}
	stV := Figure1Step{
		Label:     "V",
		Partition: "P4: x > 3 ∧ y > 5 ∧ C",
		Total:     pool.CountConcrete(),
		Skipped:   !feasible,
	}
	for _, p := range pool.Patches {
		stV.Patches = append(stV.Patches, fmt.Sprintf("%s (%d concrete)", p, p.CountConcrete()))
	}
	steps = append(steps, stV)
	return steps, nil
}

func boundsPlus(bounds map[string]interval.Interval, p *patch.Patch) map[string]interval.Interval {
	out := make(map[string]interval.Interval, len(bounds)+len(p.Params))
	for k, v := range bounds {
		out[k] = v
	}
	for k, v := range p.ParamBounds() {
		out[k] = v
	}
	return out
}

// FormatFigure1 renders the step table.
func FormatFigure1(steps []Figure1Step) string {
	var b strings.Builder
	b.WriteString("Figure 1: simultaneous exploration of input space and patch space (paper counts: 69, 46, 12, 1, 1)\n")
	for _, st := range steps {
		fmt.Fprintf(&b, "step %-3s %-28s total %d concrete patches", st.Label, st.Partition, st.Total)
		if st.Skipped {
			b.WriteString("  [partition skipped: no patch can exercise it]")
		}
		b.WriteByte('\n')
		for _, p := range st.Patches {
			fmt.Fprintf(&b, "        %s\n", p)
		}
	}
	return b.String()
}
