package core

import (
	"cpr/internal/concolic"
	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/smt"
)

// Distribution: the engine's two fan-out points — the per-flip
// path-reduction scan and the per-patch pool reduction — are independent
// per item, so a Distributor can run them somewhere other than the
// engine's own worker pool. The engine stays the single owner of the
// frontier, the pool, and seq; a batch carries the full pool state, so a
// distributor's replicas hold no authoritative state and any batch can be
// recomputed anywhere (including the local fallback) with bit-identical
// outcomes.

// Distributor runs engine batches outside the engine's worker pool,
// typically on WorkerEngine replicas. The engine only requires the
// determinism contract: outcome i of a batch must equal what its own
// worker pool would compute for item i. A nil or short return from
// RunFlips/RunReduce means the distributor could not complete the batch;
// the engine then recomputes the whole batch locally.
type Distributor interface {
	RunFlips(b FlipBatch) []FlipOutcome
	RunReduce(b ReduceBatch) []ReduceOutcome
	// SolverStats aggregates the replicas' solver counters.
	SolverStats() smt.Stats
	Close() error
}

// DistCounters carries no measurements. It remains only because
// internal/perf's traced distributor still names it.
type DistCounters struct{}

// PatchState is one pool patch's replicated state: everything a replica
// needs to bring its own deterministically re-synthesized patch up to
// date. Batches carry the whole pool's state (pools are small — tens of
// templates after validation).
type PatchState struct {
	ID        int             `json:"id"`
	Score     float64         `json:"score"`
	Deletions int             `json:"deletions"`
	Region    interval.Region `json:"region"`
}

// FlipBatch is one generation's path-reduction scan (§3.4): every fresh
// flip of the explored execution, under the phase bounds and current pool.
type FlipBatch struct {
	Flips  []concolic.Flip
	Bounds map[string]interval.Interval
	Pool   []PatchState
}

// FlipOutcome mirrors one pickNewInput result. Unknowns/Panics are the
// solver-degradation counts observed while computing it, so the
// engine's counters match a local run's.
type FlipOutcome struct {
	OK, Unknown bool
	Input       map[string]int64
	PatchID     int
	Params      expr.Model
	Score       int
	Bound       int
	Unknowns    int64
	Panics      int64
}

// ReduceContext is the shared, read-only input of one pool reduction
// (Algorithm 2): the path constraint, the instantiated specification, and
// the hole hits of the execution being reduced against.
type ReduceContext struct {
	Phi        *expr.Term
	Sigma      *expr.Term
	HoleHits   []concolic.HoleHit
	HitBug     bool
	Validation bool
}

// ReduceBatch is one execution's pool reduction over every pool patch
// (tasks are indices into Pool).
type ReduceBatch struct {
	Ctx    ReduceContext
	Bounds map[string]interval.Interval
	Pool   []PatchState
}

// ReduceOutcome is one patch's reduction result, as absolute values: the
// replica's state equals the engine's at batch start and each patch
// is owned by exactly one task, so the engine commits Score /
// Deletions / Region verbatim in pool order.
type ReduceOutcome struct {
	// Touched reports the patch was feasible on the path and its fields
	// below are authoritative; an untouched patch is left alone.
	Touched bool
	// Removed marks the patch's refined region empty (drop it).
	Removed bool
	// Refined reports Region carries a changed parameter constraint.
	Refined bool
	Region  interval.Region
	// Refinements is 1 when the refined region's count changed.
	Refinements int
	Score       float64
	Deletions   int
	Unknowns    int64
	Panics      int64
}

// poolState snapshots the pool for a batch.
func (e *engine) poolState() []PatchState {
	ps := make([]PatchState, len(e.pool.Patches))
	for i, p := range e.pool.Patches {
		ps[i] = PatchState{ID: p.ID, Score: p.Score, Deletions: p.Deletions, Region: p.Constraint}
	}
	return ps
}

// distributeFlips hands one generation's flip scan to the distributor.
// False means the caller must compute the batch locally (no distributor,
// or the distributor could not complete the batch).
func (e *engine) distributeFlips(fresh []concolic.Flip, bounds map[string]interval.Interval, verdicts []flipVerdict) bool {
	if e.dist == nil || len(fresh) == 0 {
		return false
	}
	outs := e.dist.RunFlips(FlipBatch{Flips: fresh, Bounds: bounds, Pool: e.poolState()})
	if len(outs) != len(fresh) {
		return false
	}
	for i, o := range outs {
		e.solverUnknowns.Add(o.Unknowns)
		e.solverPanics.Add(o.Panics)
		v := flipVerdict{ok: o.OK, unknown: o.Unknown}
		if o.OK {
			v.child = workItem{
				Input:   o.Input,
				PatchID: o.PatchID,
				Params:  o.Params,
				Score:   o.Score,
				Bound:   o.Bound,
			}
		}
		verdicts[i] = v
	}
	return true
}

// distributeReduce hands one execution's pool reduction to the
// distributor; false means the caller computes it locally.
func (e *engine) distributeReduce(rc ReduceContext, outs []ReduceOutcome) bool {
	if e.dist == nil || len(outs) == 0 {
		return false
	}
	got := e.dist.RunReduce(ReduceBatch{Ctx: rc, Bounds: e.curBounds, Pool: e.poolState()})
	if len(got) != len(outs) {
		return false
	}
	copy(outs, got)
	return true
}
