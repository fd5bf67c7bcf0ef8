// Package cegis implements the paper's custom CEGIS baseline (§5): a
// counterexample-guided inductive synthesis repair loop that shares CPR's
// concolic engine and synthesizer so the comparison isolates the
// conceptual difference — CEGIS explores the patch space and input space
// one patch / one input at a time, while CPR explores partitions of both.
//
// The budget is split between an initial path-exploration phase (building
// the verification constraint from witnessed program paths) and a
// refinement phase (propose a concrete patch, search the collected paths
// for a counterexample, block it, repeat).
package cegis

import (
	"errors"

	"cpr/internal/cancel"
	"cpr/internal/concolic"
	"cpr/internal/core"
	"cpr/internal/expr"
	"cpr/internal/faultinject"
	"cpr/internal/interval"
	"cpr/internal/lang"
	"cpr/internal/lang/interp"
	"cpr/internal/patch"
	"cpr/internal/smt"
	"cpr/internal/smt/cache"
	"cpr/internal/synth"
)

// maxStepsPerRun bounds one concolic execution.
const maxStepsPerRun = 1 << 18

// Options tunes the baseline.
type Options struct {
	// SMT configures the shared solver.
	SMT smt.Options
	// ExplorationIterations bounds phase 1 (default: half of the job's
	// MaxIterations, mirroring the paper's 30min/30min split).
	ExplorationIterations int
	// RefinementIterations bounds phase 2 candidate/verify rounds
	// (default: the other half).
	RefinementIterations int
	// Cancel, when non-nil, winds the baseline down cooperatively; it is
	// combined with the job's MaxDuration/Deadline like core.Repair.
	Cancel *cancel.Token
}

// Stats mirrors the CEGIS columns of Table 1.
type Stats struct {
	// PInit and PFinal are concrete patch-space sizes; PFinal counts the
	// parameter vectors still feasible under the accumulated synthesis
	// constraints.
	PInit  int64 `json:"p_init"`
	PFinal int64 `json:"p_final"`
	// PathsExplored is φE: paths witnessed during phase 1.
	PathsExplored int `json:"paths_explored"`
	// Candidates counts proposed concrete patches; Counterexamples counts
	// verification failures.
	Candidates      int `json:"candidates"`
	Counterexamples int `json:"counterexamples"`
	// TimedOut reports a wall-clock/cancellation wind-down; the Result is
	// then the best-so-far state, not an error.
	TimedOut bool `json:"timed_out,omitempty"`
	// SolverUnknowns counts degraded solver answers (budget, deadline,
	// panic); ExecPanics counts recovered subject-execution panics.
	SolverUnknowns int `json:"solver_unknowns,omitempty"`
	ExecPanics     int `json:"exec_panics,omitempty"`
	// The baseline solver's counters.
	smt.Stats
}

// ReductionRatio is 1 − PFinal/PInit.
func (s Stats) ReductionRatio() float64 {
	if s.PInit == 0 {
		return 0
	}
	return 1 - float64(s.PFinal)/float64(s.PInit)
}

// Result is the baseline's outcome: at most one concrete patch.
type Result struct {
	// Patch is the verified template (nil when none verified in budget).
	Patch *patch.Patch
	// Params is the concrete parameter assignment of the returned patch.
	Params expr.Model
	// Stats are the run's measurements.
	Stats Stats
}

// ConcreteExpr returns the parameter-instantiated patch expression, or
// nil when no patch was produced.
func (r *Result) ConcreteExpr() *expr.Term {
	if r.Patch == nil {
		return nil
	}
	sub := make(map[string]*expr.Term, len(r.Params))
	for k, v := range r.Params {
		sub[k] = expr.Int(v)
	}
	return expr.Subst(r.Patch.Expr, sub)
}

// ErrUnsupportedHole is returned for integer holes whose patch dimension
// the baseline cannot flip.
var ErrUnsupportedHole = errors.New("cegis: only boolean patch locations are supported")

// pathObs is one witnessed program path: the verification constraint
// fragment CEGIS accumulates during exploration.
type pathObs struct {
	phi      *expr.Term
	holeHits []concolic.HoleHit
	bugHits  []concolic.BugHit
	crashed  bool
}

// Repair runs the CEGIS baseline on a CPR job.
func Repair(job core.Job, opts Options) (*Result, error) {
	if job.Program.HolePos == nil {
		return nil, core.ErrNoHole
	}
	if job.Program.HoleType != lang.TypeBool {
		return nil, ErrUnsupportedHole
	}
	if len(job.FailingInputs) == 0 {
		return nil, core.ErrNoFailingInput
	}
	if job.Spec == nil {
		job.Spec = expr.True()
	}
	budget := job.Budget
	if budget.MaxIterations == 0 {
		budget.MaxIterations = 100
	}
	if opts.ExplorationIterations == 0 {
		opts.ExplorationIterations = budget.MaxIterations / 2
	}
	if opts.RefinementIterations == 0 {
		opts.RefinementIterations = budget.MaxIterations - opts.ExplorationIterations
	}
	tok := cancel.WithBudget(opts.Cancel, budget.MaxDuration, 0)
	if !budget.Deadline.IsZero() {
		tok = cancel.WithDeadline(tok, budget.Deadline)
	}
	opts.Cancel = tok
	opts.SMT.Cancel = tok
	if opts.SMT.Cache == nil {
		// Counterexample checks re-solve the same verification constraint
		// under successively blocked parameter vectors; the verdict cache
		// answers the repeats (and shares hits with a caller-provided
		// cache, e.g. cpr-bench running CPR and CEGIS on one subject).
		opts.SMT.Cache = cache.New()
	}

	solver := smt.NewSolver(opts.SMT)
	templates := synth.Synthesize(job.Components, job.Program.HoleType)
	pool := synth.BuildPool(templates, job.Components)
	stats := Stats{PInit: pool.CountConcrete()}

	bounds := inputBounds(job)
	obs := explorePaths(job, solver, bounds, opts, &stats)

	// Phase 2: counterexample-guided refinement, one template at a time,
	// in pool order (the paper notes this tends to reach a trivial
	// functionality-deleting patch first — Finding 2). remaining is the
	// per-template feasible-count ledger; rounds is shared by all
	// templates.
	remaining := make([]int64, len(pool.Patches))
	for i, p := range pool.Patches {
		remaining[i] = p.CountConcrete()
	}
	rounds := 0
	for idx, p := range pool.Patches {
		if tok.Expired() {
			break
		}
		var blocked []*expr.Term // constraints on A are per-template
		for rounds < opts.RefinementIterations {
			if tok.Expired() {
				break
			}
			// A crash-test barrier, as in core's explore loop; the baseline
			// keeps no snapshots, so a killed run starts it again.
			faultinject.CrashPoint()
			rounds++
			stats.Candidates++
			cand, ok, err := solver.GetModel(expr.And(append([]*expr.Term{p.ConstraintTerm()}, blocked...)...), p.ParamBounds())
			if err != nil {
				// Degraded candidate proposal (budget/deadline/panic): this
				// template is inconclusive; move to the next one.
				stats.SolverUnknowns++
				break
			}
			if !ok {
				remaining[idx] = 0
				break // template exhausted; next one
			}
			params := expr.Model{}
			for _, name := range p.Params {
				params[name] = cand[name]
			}
			cex, err := verify(solver, job, obs, p, params, bounds)
			if err != nil {
				stats.SolverUnknowns++
				continue // inconclusive verification round
			}
			if cex == nil {
				remaining[idx] = countFeasible(p, blocked)
				stats.PFinal = sumExcept(remaining, -1)
				stats.TimedOut = tok.Expired()
				stats.Stats = solver.Stats()
				return &Result{Patch: p, Params: params, Stats: stats}, nil
			}
			stats.Counterexamples++
			blocked = append(blocked, cex)
			remaining[idx] = countFeasible(p, blocked)
		}
		if rounds >= opts.RefinementIterations {
			break
		}
	}
	stats.PFinal = sumExcept(remaining, -1)
	stats.TimedOut = tok.Expired()
	stats.Stats = solver.Stats()
	return &Result{Stats: stats}, nil
}

func sumExcept(counts []int64, skip int) int64 {
	var n int64
	for i, c := range counts {
		if i == skip {
			continue
		}
		n += c
	}
	return n
}

// countFeasible counts parameter vectors of p that satisfy all blocking
// constraints, by exact enumeration of the (small) parameter region.
func countFeasible(p *patch.Patch, blocked []*expr.Term) int64 {
	if len(p.Params) == 0 {
		if len(blocked) > 0 {
			// Any blocking constraint over no parameters is decisive.
			for _, b := range blocked {
				v, err := expr.EvalBool(b, expr.Model{})
				if err != nil || !v {
					return 0
				}
			}
		}
		return 1
	}
	var n int64
	p.Constraint.Points(func(pt []int64) bool {
		m := expr.Model{}
		for i, name := range p.Params {
			m[name] = pt[i]
		}
		for _, b := range blocked {
			v, err := expr.EvalBool(b, m)
			if err != nil || !v {
				return true // constraint fails: not counted
			}
		}
		n++
		return true
	})
	return n
}

func inputBounds(job core.Job) map[string]interval.Interval {
	b := make(map[string]interval.Interval)
	for _, p := range job.Program.Inputs() {
		if iv, ok := job.InputBounds[p.Name]; ok {
			b[p.Name] = iv
		} else {
			b[p.Name] = smt.Int32Bounds
		}
		if p.Type == lang.TypeBool {
			b[p.Name] = interval.New(0, 1)
		}
	}
	return b
}

// explorePaths is phase 1: plain generational search (no patch-pool
// pruning — that is CPR's contribution) with the hole driven by constant
// guards, so both hole directions are reachable. It returns the witnessed
// paths in observation order.
func explorePaths(job core.Job, solver *smt.Solver, bounds map[string]interval.Interval, opts Options, stats *Stats) []pathObs {
	// exploreItem is one queued (input, hole-direction) pair.
	type exploreItem struct {
		input map[string]int64
		guard *expr.Term
		bound int
	}
	var queue []exploreItem
	var obs []pathObs
	seen := make(map[uint64]bool)
	for _, fi := range job.FailingInputs {
		queue = append(queue, exploreItem{input: fi, guard: expr.False(), bound: 0})
		queue = append(queue, exploreItem{input: fi, guard: expr.True(), bound: 0})
	}
	for iter := 0; iter < opts.ExplorationIterations && len(queue) > 0; iter++ {
		if opts.Cancel.Expired() {
			stats.TimedOut = true
			return obs
		}
		faultinject.CrashPoint() // a crash-test barrier, as in phase 2
		it := queue[0]
		queue = queue[1:]
		exec, panicked := safeExecute(job.Program, it.input, concolic.Options{
			Patch:    it.guard,
			MaxSteps: maxStepsPerRun,
			Stop:     opts.Cancel.Expired,
		})
		if panicked {
			stats.ExecPanics++
			continue
		}
		if exec.Err != nil && !exec.Crashed() && exec.Err.Kind != interp.ErrAssumeViolated {
			continue
		}
		stats.PathsExplored++
		obs = append(obs, pathObs{
			phi:      exec.PathConstraint(),
			holeHits: exec.HoleHits,
			bugHits:  exec.BugHits,
			crashed:  exec.Crashed(),
		})
		for _, flip := range concolic.Flips(exec, it.bound) {
			key := concolic.PathKey(append(append([]*expr.Term{}, flip.Prefix...), flip.Negated))
			if seen[key] {
				continue
			}
			seen[key] = true
			model, ok, err := solver.GetModel(flip.Constraint(), bounds)
			if err != nil {
				stats.SolverUnknowns++
				continue
			}
			if !ok {
				continue
			}
			in := make(map[string]int64)
			for _, prm := range job.Program.Inputs() {
				in[prm.Name] = model[prm.Name]
			}
			guard := it.guard
			if flip.OnPatch {
				// The flipped branch decides the hole's direction; read
				// it off the model of the first patch-output symbol.
				for _, h := range flip.HoleHits {
					if v, ok := model[h.Out.Name]; ok {
						guard = expr.Bool(v != 0)
						break
					}
				}
			}
			queue = append(queue, exploreItem{input: in, guard: guard, bound: flip.Depth + 1})
		}
	}
	return obs
}

// safeExecute recovers panics at the concolic-execution boundary so a
// crashing subject degrades to a skipped path rather than killing the run.
func safeExecute(prog *lang.Program, input map[string]int64, opts concolic.Options) (exec *concolic.Execution, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			exec, panicked = nil, true
		}
	}()
	return concolic.Execute(prog, input, opts), false
}

// verify searches the collected paths for a counterexample to the
// candidate (template, params): an input on some witnessed path where the
// specification is violated. It returns a blocking constraint over the
// template parameters, or nil when the candidate verifies.
func verify(solver *smt.Solver, job core.Job, obs []pathObs, p *patch.Patch, params expr.Model, bounds map[string]interval.Interval) (*expr.Term, error) {
	paramSub := make(map[string]*expr.Term, len(params))
	for name, v := range params {
		paramSub[name] = expr.Int(v)
	}
	for _, o := range obs {
		sigma := specOnPath(job.Spec, o)
		if sigma.IsTrue() {
			continue
		}
		psi := expr.True()
		for _, h := range o.holeHits {
			psi = expr.And(psi, p.Formula(h.Out, h.Snapshot))
		}
		psiConc := expr.Subst(psi, paramSub)
		query := expr.And(o.phi, psiConc, expr.Not(sigma))
		model, found, err := solver.GetModel(query, bounds)
		if err != nil {
			continue // budget: treat the path as inconclusive
		}
		if !found {
			continue
		}
		// Counterexample input: block every parameter vector that
		// violates the specification for this concrete input on this
		// path. Substituting the input pins X; each patch output is then
		// θ instantiated at the hit's concrete snapshot, leaving a
		// constraint purely over the parameters.
		inputSub := make(map[string]*expr.Term, len(model))
		for name, v := range model {
			for _, prm := range job.Program.Inputs() {
				if prm.Name == name {
					inputSub[name] = constFor(prm.Type, v)
				}
			}
		}
		phiX := expr.Subst(o.phi, inputSub)
		psiX := expr.Subst(psi, inputSub)
		sigmaX := expr.Subst(sigma, inputSub)
		outSub := make(map[string]*expr.Term)
		for _, h := range o.holeHits {
			sub := make(map[string]*expr.Term, len(h.Concrete))
			for name, v := range h.Concrete {
				if !containsName(p.Params, name) {
					sub[name] = expr.Int(v)
				}
			}
			outSub[h.Out.Name] = expr.Subst(p.Expr, sub)
		}
		block := expr.Not(expr.And(
			expr.Subst(phiX, outSub),
			expr.Subst(psiX, outSub),
			expr.Not(expr.Subst(sigmaX, outSub)),
		))
		return block, nil
	}
	return nil, nil
}

func specOnPath(spec *expr.Term, o pathObs) *expr.Term {
	var parts []*expr.Term
	for _, h := range o.bugHits {
		sub := make(map[string]*expr.Term, len(h.Snapshot))
		for name, t := range h.Snapshot {
			sub[name] = t
		}
		parts = append(parts, expr.Subst(spec, sub))
	}
	if o.crashed && len(o.bugHits) == 0 {
		parts = append(parts, expr.False())
	}
	return expr.And(parts...)
}

func constFor(t lang.Type, v int64) *expr.Term {
	if t == lang.TypeBool {
		return expr.Bool(v != 0)
	}
	return expr.Int(v)
}

func containsName(names []string, n string) bool {
	for _, x := range names {
		if x == n {
			return true
		}
	}
	return false
}
