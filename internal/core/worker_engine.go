package core

import (
	"fmt"

	"cpr/internal/concolic"
	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/smt"
	"cpr/internal/smt/cache"
	"cpr/internal/synth"
)

// WorkerEngine is the replica side of distribution: a full engine
// replica (same job, same deterministically re-synthesized pool) that
// executes flip and reduce chunks on request and never owns the frontier.
// A Distributor re-syncs the replica's pool state at every batch, so a
// chunk's outcomes equal what the engine's own worker pool would compute
// for the same indices — the distribution determinism contract.
//
// A WorkerEngine is single-goroutine: its chunks run one after another,
// which is what makes the degradation-counter deltas around each item
// exact.
type WorkerEngine struct {
	eng *engine
}

// NewWorkerEngine builds a replica engine for the job. It mirrors
// Repair's setup through engine construction — synthesis, pool build,
// split-mode stamping — but runs no exploration itself: no checkpointing,
// no distributor, and a private verdict cache.
func NewWorkerEngine(job Job, opts Options) (*WorkerEngine, error) {
	job.Budget = job.Budget.withDefaults()
	if job.Program == nil || job.Program.HolePos == nil {
		return nil, ErrNoHole
	}
	if job.Spec == nil {
		job.Spec = expr.True()
	}
	// One worker: a distributor's parallelism is its replica count, and
	// chunk execution must stay sequential for exact per-item counter
	// deltas.
	opts.Workers = 1
	opts.Checkpoint = CheckpointOptions{}
	opts.NewDistributor = nil
	opts.SMT.Context = nil
	opts.SMT.Cache = cache.New()

	job.Components.Context = nil
	templates := synth.Synthesize(job.Components, job.Program.HoleType)
	pool := synth.BuildPool(templates, job.Components)
	eng := &engine{
		job:    job,
		opts:   opts,
		solver: smt.NewSolver(opts.SMT),
		pool:   pool,
	}
	eng.workers = eng.newWorkers(1)
	eng.curBounds = eng.inputBounds()
	return &WorkerEngine{eng: eng}, nil
}

// SolverStats aggregates the replica's solver counters.
func (we *WorkerEngine) SolverStats() smt.Stats {
	return we.eng.solver.Stats()
}

// SetBounds installs the batch's input bounds (the engine's curBounds:
// phase bounds, or pinned bounds during validation phases).
func (we *WorkerEngine) SetBounds(b map[string]interval.Interval) {
	we.eng.curBounds = b
}

// ApplyPool re-syncs the replica pool to the engine's batch-start state
// with syncPool, the intersect a checkpoint resume uses. An error means
// the replica is not a replica of this run and the chunk must not run.
func (we *WorkerEngine) ApplyPool(ps []PatchState) error {
	if err := syncPool(we.eng.pool, ps); err != nil {
		return fmt.Errorf("core: pool sync: %w", err)
	}
	return nil
}

// RunFlips executes a flip chunk: pickNewInput per flip under the current
// bounds and pool, with each outcome carrying the exact degradation
// counts its solve produced.
func (we *WorkerEngine) RunFlips(flips []concolic.Flip) []FlipOutcome {
	e := we.eng
	outs := make([]FlipOutcome, len(flips))
	for i := range flips {
		u0, p0 := e.solverUnknowns.Load(), e.solverPanics.Load()
		o := e.pickNewInput(flips[i], e.curBounds, nil, e.solver)
		o.Unknowns = e.solverUnknowns.Load() - u0
		o.Panics = e.solverPanics.Load() - p0
		outs[i] = o
	}
	return outs
}

// RunReduce executes a reduce chunk: reduceOne for pool indices [lo, hi)
// under the already-synced pool.
func (we *WorkerEngine) RunReduce(rc ReduceContext, lo, hi int) []ReduceOutcome {
	e := we.eng
	if lo < 0 || hi > len(e.pool.Patches) || lo > hi {
		return nil
	}
	chunk := e.pool.Patches[lo:hi]
	outs := make([]ReduceOutcome, len(chunk))
	for i, p := range chunk {
		u0, p0 := e.solverUnknowns.Load(), e.solverPanics.Load()
		out := e.reduceOne(rc, p, patchHoles(p, rc.HoleHits), e.solver)
		out.Unknowns = e.solverUnknowns.Load() - u0
		out.Panics = e.solverPanics.Load() - p0
		outs[i] = out
	}
	return outs
}
