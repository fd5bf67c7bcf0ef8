// Package core implements the paper's primary contribution: the concolic
// program repair algorithm (Algorithm 1), the patch-pool reduction
// (Algorithm 2), the patch-feasibility-aware input generation of §3.4
// (PickNewInput with path reduction), and the patch ranking of §3.5.3.
//
// The repair loop co-explores the input space and the patch space: each
// iteration picks a (input, patch) pair whose path is feasible for at
// least one pool patch, executes it concolically, and reduces the pool
// against the user-provided specification on the explored partition.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cpr/internal/concolic"
	"cpr/internal/expr"
	"cpr/internal/faultinject"
	"cpr/internal/govern"
	"cpr/internal/interval"
	"cpr/internal/lang"
	"cpr/internal/lang/interp"
	"cpr/internal/mc"
	"cpr/internal/patch"
	"cpr/internal/smt"
	"cpr/internal/smt/cache"
	"cpr/internal/synth"
)

// Job describes one repair task.
type Job struct {
	// Program is the buggy program with a __HOLE__ at the patch location
	// and __BUG__ markers at the bug location.
	Program *lang.Program
	// Spec is the user-provided specification σ: a boolean term over the
	// program variables in scope at the bug location. It must hold
	// whenever the bug location is reached.
	Spec *expr.Term
	// FailingInputs are error-exposing inputs (at least one); the paper
	// obtains them from exploits, failing tests, or directed fuzzing.
	FailingInputs []map[string]int64
	// PassingInputs optionally seed the exploration with passing tests
	// (the paper's §8: CPR "applies to test-suite based repair, by using
	// failing / passing tests to drive concolic path exploration"). They
	// widen the explored input space but are not used for validation.
	PassingInputs []map[string]int64
	// Components is the synthesis language for the patch pool.
	Components synth.Components
	// InputBounds bound the program inputs during exploration; variables
	// absent from the map default to the 32-bit range.
	InputBounds map[string]interval.Interval
	// Budget is the anytime budget.
	Budget Budget
}

// Budget bounds the repair loop. The iteration bounds are deterministic
// (the paper's wall-clock budgets map to iteration budgets for
// reproducibility); MaxDuration adds the paper's literal anytime semantics
// on top: when the wall clock expires, every layer winds down and Repair
// returns the best-so-far pool with Stats.TimedOut set — never an error,
// never a partial data structure. A deadline on Options.Context acts the
// same way.
type Budget struct {
	// MaxIterations bounds main-loop concolic executions (default 100).
	MaxIterations int
	// ValidationIterations bounds the pinned-input exploration used to
	// validate the initial pool against each failing input (default 8).
	ValidationIterations int
	// MaxDuration bounds the whole repair run's wall-clock time
	// (0 = unbounded). A resumed run gets what its snapshot had not spent.
	MaxDuration time.Duration
}

func (b Budget) withDefaults() Budget {
	if b.MaxIterations == 0 {
		b.MaxIterations = 100
	}
	if b.ValidationIterations == 0 {
		b.ValidationIterations = 8
	}
	return b
}

// Options tunes the engine.
type Options struct {
	// SMT configures the solver.
	SMT smt.Options
	// DisablePathReduction turns off the §3.4 pruning (ablation): every
	// flip is solved without consulting the patch pool first.
	DisablePathReduction bool
	// ModelCountRanking enables the §3.5.3 fine-tuning: ranking evidence
	// is scaled by the (approximate) proportion of the partition's inputs
	// whose control flow the patch affects, so patches that fire on most
	// of a partition (functionality-deletion behavior) gain less.
	ModelCountRanking bool
	// Queue selects the exploration frontier policy (ablation of the
	// §3.4 input ranking; default QueueRanked).
	Queue QueuePolicy
	// Context stops the run cooperatively once it is done (a signal
	// handler's cancel, a caller's deadline): like a MaxDuration expiry it
	// yields the best-so-far Result with Stats.TimedOut set. Nil means
	// context.Background().
	Context context.Context
	// Workers sizes the exploration worker pool (0 = runtime.NumCPU()).
	// Per-item solver work — flip feasibility queries and per-patch pool
	// reduction — fans out across the workers and merges back through the
	// coordinator in a seeded order, so the plausible-patch pool is
	// identical for every worker count; Workers=1 additionally replays the
	// sequential engine's exact call sequence. Only wall-clock stops
	// (MaxDuration, Context) make runs scheduling-dependent.
	Workers int
	// Checkpoint configures the durable run journal: with a directory set,
	// the engine snapshots its repair state at deterministic generation
	// barriers, and with Resume it continues a killed run to the same
	// result the uninterrupted run would have produced.
	Checkpoint CheckpointOptions
	// Govern, when non-nil, is the memory governor (internal/govern): the
	// engine polls it at every generation barrier and applies its rung's
	// actions — verdict-cache shrinks and (under sustained critical
	// pressure) the anytime stop. Nil means no governance; a daemon shares
	// one governor across jobs.
	Govern *govern.Governor
	// NewDistributor, when non-nil, supplies a Distributor (see dist.go):
	// the engine hands its flip-feasibility scans and pool reductions to it
	// instead of the in-process worker pool, merging outcomes at the same
	// generation barriers — the plausible-patch pool is identical either
	// way, exactly as for Workers. The factory runs after the engine
	// resolves its options; a factory error aborts the run, and a
	// (nil, nil) return means "run locally".
	NewDistributor func(job Job, opts Options) (Distributor, error)
}

// QueuePolicy orders the exploration frontier.
type QueuePolicy uint8

// Queue policies.
const (
	// QueueRanked prefers inputs whose parents exercised the bug and
	// patch locations (the paper's heuristic).
	QueueRanked QueuePolicy = iota
	// QueueFIFO explores in generation order (breadth-first).
	QueueFIFO
)

const (
	// maxQueue caps the exploration frontier.
	maxQueue = 512
	// maxStepsPerRun bounds one concolic execution.
	maxStepsPerRun = 1 << 18
)

// Result is the outcome of a repair run.
type Result struct {
	// Pool is the final reduced pool.
	Pool *patch.Pool
	// Ranked is the pool in ranking order (§3.5.3).
	Ranked []*patch.Patch
	// Stats are the run's measurements.
	Stats Stats
}

// ErrNoHole is returned for programs without a patch location.
var ErrNoHole = errors.New("core: program has no __HOLE__ patch location")

// ErrNoFailingInput is returned when the job provides no failing input.
var ErrNoFailingInput = errors.New("core: job has no failing input (generate one with the fuzzer)")

// Repair runs concolic program repair on the job (Algorithm 1).
//
// Repair is an anytime algorithm with a failure discipline: when the run
// stops (Budget.MaxDuration expires, Options.Context is done, or the
// memory governor stops it) it returns the pool reduced so far with
// Stats.TimedOut set; solver budget
// exhaustion degrades to skipped flips (dropped, and counted in
// Stats.FlipsDropped and Stats.PathsSkipped); and a panic in subject
// execution or inside a solver query degrades to a skipped flip/query,
// counted in Stats.ExecPanics / Stats.SolverPanics. None of these abort
// the run. With Options.Checkpoint set, a killed run resumes from its
// latest snapshot to the repair the uninterrupted run would have produced.
func Repair(job Job, opts Options) (*Result, error) {
	job.Budget = job.Budget.withDefaults()
	if job.Program.HolePos == nil {
		return nil, ErrNoHole
	}
	if len(job.FailingInputs) == 0 {
		return nil, ErrNoFailingInput
	}
	if job.Spec == nil {
		job.Spec = expr.True()
	}
	opts.Checkpoint = opts.Checkpoint.withDefaults()

	// Resume, step 1: load the latest intact snapshot before the run
	// context is derived, so the wall-clock budget can be re-based on the
	// time the killed run already spent. Any load failure degrades to a
	// fresh start with a warning.
	var rs *snapshot
	var fp uint64
	if opts.Checkpoint.enabled() {
		fp = RunFingerprint(job, opts)
		if opts.Checkpoint.Resume {
			rs = loadResume(job, opts, fp)
		}
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if left := job.Budget.MaxDuration; left > 0 {
		// A resumed run gets what the killed one had not spent of the
		// budget; one that had spent it all starts expired.
		if rs != nil {
			left -= rs.Elapsed
		}
		var stopClock context.CancelFunc
		ctx, stopClock = context.WithTimeout(ctx, left)
		defer stopClock()
	}
	var stop context.CancelFunc
	if opts.Govern != nil {
		// The governor's stop cancels a context the engine owns, not the
		// caller's. Ungoverned, an unstoppable run keeps a nil Done channel.
		ctx, stop = context.WithCancel(ctx)
		defer stop()
	}
	// The run context also bounds every solver query, so a single hard
	// query cannot overrun the deadline.
	opts.SMT.Context = ctx
	// Every solver of the run shares one verdict cache: the repair loop
	// re-poses structurally identical feasibility queries constantly, and
	// under parallelism the cache also lets workers reuse each other's
	// answers. A caller-provided cache (e.g. shared across runs) is kept.
	// A resumed run starts with a cold cache: the cache is memoization of a
	// deterministic solver, so it changes how much work a query costs,
	// never its answer.
	if opts.SMT.Cache == nil {
		opts.SMT.Cache = cache.New()
	}
	cacheStart := opts.SMT.Cache.Stats()

	// Phase 1: patch pool construction (§3.3). A resumed run re-derives
	// the template list with no run context: enumeration is deterministic,
	// so the full list is a superset of whatever prefix the killed run
	// synthesized, and the snapshot intersect below recovers exactly its
	// pool. Fresh runs enumerate under the run context.
	if rs == nil {
		job.Components.Context = ctx
	} else {
		job.Components.Context = nil
	}
	templates := synth.Synthesize(job.Components, job.Program.HoleType)
	pool := synth.BuildPool(templates, job.Components)
	if rs != nil {
		// Resume, step 2: restore pool membership, refined regions and
		// ranking evidence. A snapshot that does not fit the re-synthesized
		// pool is rejected like any other: the run starts over fresh.
		if err := syncPool(pool, rs.Pool); err != nil {
			opts.Checkpoint.warnf("checkpoint: snapshot at barrier %d rejected, starting fresh: %v", rs.Barrier, err)
			opts.Checkpoint.Resume = false
			return Repair(job, opts)
		}
	}
	eng := &engine{
		job:    job,
		opts:   opts,
		solver: smt.NewSolver(opts.SMT),
		pool:   pool,
		done:   ctx.Done(),
		stop:   stop,
	}
	eng.cacheStart = cacheStart
	eng.workers = eng.newWorkers(opts.Workers)
	eng.curBounds = eng.inputBounds()
	if opts.NewDistributor != nil {
		dist, err := opts.NewDistributor(job, opts)
		if err != nil {
			return nil, fmt.Errorf("core: distributor: %w", err)
		}
		if dist != nil {
			eng.dist = dist
			defer dist.Close()
		}
	}
	stats := &Stats{PoolInit: pool.Size()}

	var ck *checkpointer
	if opts.Checkpoint.enabled() {
		ck = &checkpointer{opts: opts.Checkpoint, fp: fp, eng: eng, runStats: stats, start: time.Now()}
		eng.ck = ck
	}

	// Resume, step 3: restore the rest of the killed run's engine state —
	// stats, counters, deletion memo, barrier/elapsed accounting, and the
	// interrupted phase's loop state.
	numVal := len(job.FailingInputs)
	startPhase := 0
	var resumeSt *exploreState
	var resumePartial *Stats
	if rs != nil {
		rs.apply(eng, stats, ck)
		startPhase = rs.Phase
		resumeSt = &rs.Explore
		resumePartial = rs.Partial
	}

	// Phase 1b: validate the pool against each failing input by
	// exploring the patch dimension with the input pinned (the paper's
	// controlled symbolic execution for initial test cases). Each input is
	// one checkpoint phase; a resumed run re-enters the interrupted phase
	// with its restored frontier and partial per-phase stats.
	for pi := startPhase; pi < numVal; pi++ {
		if eng.stopped() {
			break
		}
		fi := job.FailingInputs[pi]
		var vstats Stats
		st := &exploreState{}
		if resumeSt != nil {
			st = resumeSt
			if resumePartial != nil {
				vstats = *resumePartial
			}
			resumeSt, resumePartial = nil, nil
		}
		if ck != nil {
			ck.phase = pi
		}
		eng.explore([]map[string]int64{fi}, eng.pinnedBounds(fi), job.Budget.ValidationIterations, &vstats, true, st)
		stats.PathsExplored += vstats.PathsExplored
		stats.PathsSkipped += vstats.PathsSkipped
		if pool.Size() == 0 {
			break
		}
	}
	if startPhase < numVal || rs == nil {
		// Post-validation pool measurements; a run resumed into the main
		// phase already carries them in its restored stats.
		stats.PInit = pool.CountConcrete()
		stats.PoolInit = pool.Size()
	}

	// Phases 2+3: the repair loop over the full input space, seeded by
	// the failing tests and any passing tests.
	if pool.Size() > 0 && !eng.stopped() {
		st := &exploreState{}
		if resumeSt != nil && startPhase == numVal {
			st = resumeSt
		}
		if ck != nil {
			ck.phase = numVal
		}
		seeds := append(append([]map[string]int64{}, job.FailingInputs...), job.PassingInputs...)
		eng.explore(seeds, eng.inputBounds(), job.Budget.MaxIterations, stats, false, st)
	}

	stats.PFinal = pool.CountConcrete()
	stats.PoolFinal = pool.Size()
	stats.Refinements = int(eng.refinements.Load())
	stats.Removals = int(eng.removals.Load())
	stats.TimedOut = ctx.Err() != nil
	stats.SolverUnknowns = int(eng.solverUnknowns.Load())
	stats.SolverPanics = int(eng.solverPanics.Load())
	stats.ExecPanics = int(eng.execPanics.Load())
	stats.FlipsDropped = int(eng.flipsDropped.Load())
	stats.Workers = len(eng.workers)
	agg := eng.baseAgg
	for _, w := range eng.workers {
		agg = agg.Add(w.Stats())
	}
	if eng.dist != nil {
		// The replicas' solvers did the distributed batches' work; their
		// counters fold into the same aggregate the local workers feed.
		agg = agg.Add(eng.dist.SolverStats())
	}
	stats.Stats = agg
	cacheEnd := opts.SMT.Cache.Stats()
	stats.CacheEvictions = eng.baseCacheEvict + (cacheEnd.Evictions - cacheStart.Evictions)
	stats.MemStats = eng.mem
	return &Result{Pool: pool, Ranked: pool.Ranked(), Stats: *stats}, nil
}

// engine carries the mutable repair state. The coordinator (the explore
// loop) owns the queue, the pool's membership, and seq; fanOut tasks may
// only touch their own patch/result slot, the atomic counters, and their
// worker's solver.
type engine struct {
	job    Job
	opts   Options
	solver *smt.Solver
	pool   *patch.Pool
	// done is the run context's Done channel, fetched once: every poll is
	// a non-blocking receive on it. stop cancels the run context (the
	// governor's stop; nil without a governor). Both are nil on a
	// WorkerEngine replica.
	done <-chan struct{}
	stop context.CancelFunc
	// workers hold the per-worker solvers; workers[0] is solver. See
	// parallel.go.
	workers []*smt.Solver
	// dist, when non-nil, runs flip scans and pool reductions outside the
	// worker pool (see dist.go); a failed batch falls back to the workers.
	dist Distributor
	// curBounds are the input bounds of the explore phase in progress.
	curBounds map[string]interval.Interval

	// Degradation counters are atomic: workers bump them concurrently, and
	// sums are order-independent, so they stay deterministic across worker
	// counts (unlike any order-sensitive aggregate would be).
	refinements    atomic.Int64
	removals       atomic.Int64
	solverUnknowns atomic.Int64
	solverPanics   atomic.Int64
	execPanics     atomic.Int64
	flipsDropped   atomic.Int64

	delMu    sync.Mutex
	delCache map[int]delEntry
	seq      int

	// Checkpoint/resume state (see checkpoint.go). ck is nil unless
	// Options.Checkpoint is enabled. cacheStart is the cache's counter
	// baseline at engine construction. The base* fields carry the killed
	// run's counters on resume, so final aggregates continue from where the
	// previous process died.
	ck             *checkpointer
	cacheStart     cache.Stats
	baseAgg        smt.Stats
	baseCacheEvict uint64

	// Memory-governor state (see govern.go); coordinator-only.
	lastRung govern.Rung
	mem      MemStats
}

// stopped reports, without blocking, whether the run context is done.
func (e *engine) stopped() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// noteSolverErr classifies and counts a degraded solver answer; it
// returns true for every non-nil error, since any failed query leaves the
// path/patch undecidable and the caller must skip it.
func (e *engine) noteSolverErr(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, smt.ErrSolverPanic):
		e.solverPanics.Add(1)
	default:
		e.solverUnknowns.Add(1)
	}
	return true
}

// delEntry memoizes isDeletionLike for one patch: the verdict Val holds
// while the patch's region still counts Count concrete patches.
type delEntry struct {
	Count int64 `json:"count"`
	Val   bool  `json:"deletion_like"`
}

func (e *engine) inputBounds() map[string]interval.Interval {
	b := make(map[string]interval.Interval)
	for _, p := range e.job.Program.Inputs() {
		if iv, ok := e.job.InputBounds[p.Name]; ok {
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

func (e *engine) pinnedBounds(input map[string]int64) map[string]interval.Interval {
	b := make(map[string]interval.Interval)
	for _, p := range e.job.Program.Inputs() {
		b[p.Name] = interval.Point(input[p.Name])
	}
	return b
}

// workItem is a queued (input, patch) pair (the t, ρ of PickNewInput).
// Snapshots carry it as is; its maps have no omitempty, so a nil map and
// an empty one restore distinctly.
type workItem struct {
	Input   map[string]int64 `json:"input"`
	PatchID int              `json:"patch"`
	Params  expr.Model       `json:"params"`
	Score   int              `json:"score"`
	Bound   int              `json:"bound"` // generational-search bound for children
	Seq     int              `json:"seq"`
	Seed    bool             `json:"seed,omitempty"`
}

// explore runs the repair loop over the given input bounds: Algorithm 1's
// while loop, with PickNewInput realized as a ranked frontier of flips
// whose patch feasibility has been established (path reduction, §3.4).
//
// The loop state lives in st so a checkpoint can capture it and a resumed
// run can continue it: a zero-valued st starts the phase fresh (seeding
// the frontier from seeds), a restored st picks up mid-phase and ignores
// seeds entirely.
func (e *engine) explore(seeds []map[string]int64, bounds map[string]interval.Interval, maxIter int, stats *Stats, validation bool, st *exploreState) {
	e.curBounds = bounds
	push := func(it workItem) {
		st.push(it, maxQueue)
	}
	if st.Seen == nil {
		st.Seen = make(map[uint64]bool) // explored path prefixes in this phase
		for _, s := range seeds {
			ranked := e.pool.Ranked()
			if len(ranked) == 0 {
				return
			}
			p := ranked[0]
			params, ok := p.AnyParams()
			if !ok {
				continue
			}
			e.seq++
			push(workItem{Input: s, PatchID: p.ID, Params: params, Score: 1 << 20, Bound: 0, Seq: e.seq, Seed: true})
		}
	}

	cmp := less
	if e.opts.Queue == QueueFIFO {
		cmp = lessFIFO
	}
	for ; st.Iter < maxIter && len(st.Queue) > 0 && e.pool.Size() > 0; st.Iter++ {
		if e.stopped() {
			// Anytime: keep the pool reduced so far. Deliberately NO snapshot
			// is written here: the cancellation raced the generation that just
			// merged — its in-flight solver queries saw the done context and
			// degraded to Unknown — so the state at this exit is a valid
			// anytime answer but not the state an uninterrupted run passes
			// through. A resumed run (CLI -resume, daemon restart) must replay
			// from the last clean periodic barrier snapshot to stay
			// bit-identical with an uninterrupted run.
			return
		}
		// Generation barrier: all fan-out from the previous iteration has
		// merged, so the engine state here is identical for every worker
		// count. Checkpoints are written (and crash faults injected) only
		// at this point.
		e.atBarrier(st, stats)
		// Pop the best item under the queue policy.
		best := 0
		for i := 1; i < len(st.Queue); i++ {
			if cmp(st.Queue[i], st.Queue[best]) {
				best = i
			}
		}
		item := st.Queue[best]
		st.Queue = append(st.Queue[:best], st.Queue[best+1:]...)

		// The pool may have changed since the item was pushed: re-resolve
		// the patch choice.
		pt, params, ok := e.resolvePatch(item)
		if !ok {
			stats.PathsSkipped++
			continue
		}
		exec, panicked := e.safeExecute(item.Input, pt, params)
		if panicked {
			// Subject (or patch evaluation) crashed the interpreter itself:
			// degrade to "path skipped" rather than aborting the run.
			stats.PathsSkipped++
			continue
		}
		if exec.Err != nil && !exec.Crashed() && exec.Err.Kind != interp.ErrAssumeViolated {
			// Engine-level failure (step limit, cancellation, patch
			// evaluation error): the path contributes nothing.
			continue
		}
		stats.PathsExplored++
		if !item.Seed {
			stats.InputsGenerated++
			if exec.HitPatch() {
				stats.PatchLocHits++
			}
			if exec.HitBug() {
				stats.BugLocHits++
			}
		}
		// holes are reduce's per-patch instantiations at this execution's
		// hole hits; every flip below carries a prefix of those hits. They
		// die with the iteration: hole symbols repeat in every execution.
		var holes map[int][]patch.Hole
		if exec.HitPatch() {
			holes = e.reduce(exec, stats, validation)
		}
		// Generational search children. Dedup against seen prefixes in
		// generation order first; the surviving flips' feasibility queries
		// (the §3.4 path-reduction work, the loop's dominant solver cost)
		// are independent of each other, so they fan out across the
		// workers. The verdicts land in per-flip slots and merge back in
		// generation order, which is where seq is assigned — so the queue
		// the next iteration pops from is the same for any worker count.
		var fresh []concolic.Flip
		var keys []uint64
		for _, flip := range concolic.Flips(exec, item.Bound) {
			key := concolic.PathKey(append(append([]*expr.Term{}, flip.Prefix...), flip.Negated))
			if st.Seen[key] {
				continue
			}
			st.Seen[key] = true
			fresh = append(fresh, flip)
			keys = append(keys, key)
		}
		verdicts := make([]FlipOutcome, len(fresh))
		if !e.distributeFlips(fresh, bounds, verdicts) {
			e.fanOut(len(fresh), func(w *smt.Solver, i int) {
				verdicts[i] = e.pickNewInput(fresh[i], bounds, holes, w)
			})
		}
		for i, v := range verdicts {
			if !v.OK {
				// Infeasible for every pool patch, or undecided: a solver
				// budget, deadline or panic on this flip drops it, counted.
				// The solver is deterministic, so re-posing the same query
				// could not answer it.
				if v.Unknown {
					e.flipsDropped.Add(1)
				}
				stats.PathsSkipped++
				continue
			}
			child := v.child
			child.Score += faultinject.RankDelta(keys[i])
			e.seq++
			child.Seq = e.seq
			push(child)
		}
	}
}

// safeExecute runs one concolic execution that stops with the run, with
// panics recovered at this boundary: a crash in the interpreter or in
// patch evaluation degrades to a skipped path, counted in Stats.ExecPanics.
func (e *engine) safeExecute(input map[string]int64, pt *patch.Patch, params expr.Model) (exec *concolic.Execution, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			e.execPanics.Add(1)
			exec, panicked = nil, true
		}
	}()
	return concolic.Execute(e.job.Program, input, concolic.Options{
		Patch:       pt.Expr,
		PatchParams: params,
		MaxSteps:    maxStepsPerRun,
		Stop:        e.stopped,
	}), false
}

func less(a, b workItem) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Seq < b.Seq
}

func lessFIFO(a, b workItem) bool { return a.Seq < b.Seq }

// push appends an item to the frontier. At the limit it evicts the worst
// item in ranked order (less, whatever the pop policy), or drops the
// candidate when it is not strictly better than that worst item.
func (st *exploreState) push(it workItem, limit int) {
	if len(st.Queue) >= limit {
		wi := -1
		for i := range st.Queue {
			if wi < 0 || less(st.Queue[wi], st.Queue[i]) {
				wi = i
			}
		}
		if wi < 0 || !less(it, st.Queue[wi]) {
			return
		}
		st.Queue = append(st.Queue[:wi], st.Queue[wi+1:]...)
	}
	st.Queue = append(st.Queue, it)
}

// resolvePatch returns the patch and parameters to execute a work item
// with, re-validating against the current pool.
func (e *engine) resolvePatch(item workItem) (*patch.Patch, expr.Model, bool) {
	for _, p := range e.pool.Patches {
		if p.ID != item.PatchID {
			continue
		}
		if len(p.Params) == 0 {
			return p, expr.Model{}, true
		}
		if p.Constraint.Contains(p.ParamPoint(item.Params)) {
			return p, item.Params, true
		}
		if m, ok := p.AnyParams(); ok {
			return p, m, true
		}
		return nil, nil, false
	}
	// The chosen patch is gone; fall back to the best available.
	ranked := e.pool.Ranked()
	if len(ranked) == 0 {
		return nil, nil, false
	}
	p := ranked[0]
	m, ok := p.AnyParams()
	if !ok {
		return nil, nil, false
	}
	return p, m, true
}

// pickNewInput implements the path-reduction step of §3.4: a flip is only
// queued if some pool patch admits the flipped path; the satisfying model
// provides both the new input t and the patch ρ (with parameter values).
// An Unknown outcome reports a degraded solver answer, which the caller
// counts as a dropped flip — distinct from a clean unsat, which proves the
// flip infeasible. holes, when non-nil, maps each pool patch's ID to its
// instantiations at the parent execution's hole hits (reduce's); the
// flip's hits are a prefix of those.
func (e *engine) pickNewInput(flip concolic.Flip, bounds map[string]interval.Interval, holes map[int][]patch.Hole, solver *smt.Solver) FlipOutcome {
	solver.BeginEpoch() // scope cache-write journaling to this flip
	cons := flip.Constraint()
	inputNames := e.job.Program.Inputs()

	buildItem := func(model expr.Model, p *patch.Patch) workItem {
		in := make(map[string]int64, len(inputNames))
		for _, prm := range inputNames {
			in[prm.Name] = model[prm.Name]
		}
		params := expr.Model{}
		for _, name := range p.Params {
			params[name] = model[name]
		}
		return workItem{
			Input:   in,
			PatchID: p.ID,
			Params:  params,
			Score:   flip.Score(),
			Bound:   flip.Depth + 1,
		}
	}

	needsPatch := len(flip.HoleHits) > 0
	if !needsPatch || e.opts.DisablePathReduction {
		// No patch constraint applies to the prefix (or the ablation is
		// on): solve the path alone and attach the best-ranked patch.
		model, ok, err := solver.GetModel(cons, bounds)
		if e.noteSolverErr(err) {
			return FlipOutcome{Unknown: true}
		}
		if !ok {
			return FlipOutcome{}
		}
		ranked := e.pool.Ranked()
		if len(ranked) == 0 {
			return FlipOutcome{}
		}
		p := ranked[0]
		params, ok := p.AnyParams()
		if !ok {
			return FlipOutcome{}
		}
		it := buildItem(model, p)
		for k, v := range params {
			it.Params[k] = v
		}
		it.PatchID = p.ID
		return FlipOutcome{OK: true, child: it}
	}

	// The prefix leaves every hole output free, and each per-patch query
	// below poses it again with more conjuncts and the same bounds on its
	// variables (hole outputs get DefaultBounds in both). So an unsat
	// prefix makes every per-patch query unsat: decide it once. Only a
	// clean Unsat skips the loop; an Unknown or an error is not counted
	// and leaves the verdict to the per-patch queries.
	if !e.paramShadowsPrefix(bounds) {
		if res, err := solver.Check(cons, bounds); err == nil && res.Status == smt.Unsat {
			return FlipOutcome{}
		}
	}
	unknown := false
	for _, p := range e.pool.Ranked() {
		psi := patch.Psi(flipHoles(p, flip, holes))
		query := expr.And(cons, psi, p.ConstraintTerm())
		b := e.boundsWithParams(bounds, p)
		model, ok, err := solver.GetModel(query, b)
		if e.noteSolverErr(err) {
			unknown = true // budget on this patch; try the next, remember
			continue
		}
		if ok {
			return FlipOutcome{OK: true, child: buildItem(model, p)}
		}
	}
	return FlipOutcome{Unknown: unknown}
}

// paramShadowsPrefix reports whether a template parameter shares its name
// with a variable a flip prefix can hold: a program input (a key of
// bounds) or a hole output. A per-patch query's bounds would then replace
// that variable's bound with the parameter's, and an unsat prefix would
// no longer imply an unsat per-patch query.
func (e *engine) paramShadowsPrefix(bounds map[string]interval.Interval) bool {
	for _, name := range e.job.Components.Params {
		if _, ok := bounds[name]; ok || strings.HasPrefix(name, concolic.PatchOutPrefix) {
			return true
		}
	}
	return false
}

// patchHoles instantiates p at every hole hit, in hit order: patch.Psi of
// the result is ψρ, and Refine evaluates the holes' definitions.
func patchHoles(p *patch.Patch, hits []concolic.HoleHit) []patch.Hole {
	holes := make([]patch.Hole, len(hits))
	for i, h := range hits {
		holes[i] = p.Instantiate(h.Out, h.Snapshot)
	}
	return holes
}

// flipHoles is patchHoles(p, flip.HoleHits). A flip's hits are a prefix
// of its parent execution's, so when holes (reduce's, keyed by patch ID)
// has p it is a slice of them; terms are interned, so the slice is
// pointer-identical to instantiating afresh.
func flipHoles(p *patch.Patch, flip concolic.Flip, holes map[int][]patch.Hole) []patch.Hole {
	if hs, ok := holes[p.ID]; ok {
		return hs[:len(flip.HoleHits)]
	}
	return patchHoles(p, flip.HoleHits)
}

func (e *engine) boundsWithParams(bounds map[string]interval.Interval, p *patch.Patch) map[string]interval.Interval {
	b := make(map[string]interval.Interval, len(bounds)+len(p.Params))
	for k, v := range bounds {
		b[k] = v
	}
	for k, v := range p.ParamBounds() {
		b[k] = v
	}
	return b
}

// reduce is Algorithm 2: for every pool patch compatible with the explored
// path, refine its parameter constraint against the specification (when
// the bug location was exercised) and update the ranking.
//
// Patches are independent here — each task reads the shared (phi, psi
// inputs, sigma) and writes only its own patch's Constraint/Score/
// Deletions — so the per-patch work fans out across the workers. Removals
// are collected in per-patch slots and committed by the coordinator in
// pool order, leaving the surviving pool identical for any worker count.
//
// reduce returns each patch's instantiations at the execution's hole hits,
// keyed by patch ID, for the flip scan of the same execution to reuse; nil
// when a distributor ran the batch.
func (e *engine) reduce(exec *concolic.Execution, stats *Stats, validation bool) map[int][]patch.Hole {
	rc := ReduceContext{
		Phi:        exec.PathConstraint(),
		Sigma:      e.instantiateSpec(exec),
		HoleHits:   exec.HoleHits,
		HitBug:     exec.HitBug(),
		Validation: validation,
	}
	patches := e.pool.Patches
	outs := make([]ReduceOutcome, len(patches))
	var holes map[int][]patch.Hole
	if !e.distributeReduce(rc, outs) {
		slots := make([][]patch.Hole, len(patches))
		e.fanOut(len(patches), func(w *smt.Solver, i int) {
			slots[i] = patchHoles(patches[i], rc.HoleHits)
			outs[i] = e.reduceOne(rc, patches[i], slots[i], w)
		})
		holes = make(map[int][]patch.Hole, len(patches))
		for i, p := range patches {
			holes[p.ID] = slots[i]
		}
	}
	// Commit in pool order: patches aliases the pool's backing array and
	// Remove shifts it in place, so collect the doomed IDs before the
	// first removal. Outcomes from a distributor carry absolute patch
	// state (the replica matched this pool at batch start); outcomes
	// computed locally re-assign values reduceOne already wrote — both
	// paths land on the same pool.
	var doomed []int
	for i, o := range outs {
		e.solverUnknowns.Add(o.Unknowns)
		e.solverPanics.Add(o.Panics)
		if o.Removed {
			e.removals.Add(1)
			doomed = append(doomed, patches[i].ID)
			continue
		}
		if !o.Touched {
			continue
		}
		p := patches[i]
		if o.Refinements > 0 {
			e.refinements.Add(int64(o.Refinements))
		}
		if o.Refined {
			p.Constraint = o.Region
		}
		p.Score = o.Score
		p.Deletions = o.Deletions
	}
	for _, id := range doomed {
		e.pool.Remove(id)
	}
	return holes
}

// reduceOne is Algorithm 2's per-patch body: the feasibility test, the
// specification-driven refinement, and the ranking update, reported as a
// ReduceOutcome; holes are patchHoles(p, rc.HoleHits). It mutates p (its
// own task owns it) but leaves the engine's removal/refinement counters to
// the coordinator's commit loop, so the same function serves both the
// local fan-out and a WorkerEngine replica (which snapshots its own
// degradation atomics around the call to fill the outcome's
// Unknowns/Panics; on the local path those stay zero and the commit loop's
// additions are no-ops).
func (e *engine) reduceOne(rc ReduceContext, p *patch.Patch, holes []patch.Hole, solver *smt.Solver) ReduceOutcome {
	var out ReduceOutcome
	solver.BeginEpoch() // scope cache-write journaling to this patch
	psi := patch.Psi(holes)
	pi := expr.And(rc.Phi, psi, p.ConstraintTerm())
	b := e.boundsWithParams(e.curBounds, p)
	sat, err := solver.IsSat(pi, b)
	if e.noteSolverErr(err) || !sat {
		return out // cannot reason about ρ on this path
	}
	if rc.HitBug {
		ref := &patch.Refiner{Solver: solver, InputBounds: e.curBounds}
		refined, err := ref.Refine(rc.Phi, psi, rc.Sigma, p, p.Constraint, holes)
		if e.noteSolverErr(err) {
			return out // refinement budget: leave the patch untouched
		}
		if refined.IsEmpty() {
			out.Removed = true
			return out
		}
		if refined.Count() != p.Constraint.Count() {
			out.Refinements++
		}
		p.Constraint = refined
		out.Refined = true
		out.Region = refined
	}
	if !rc.Validation {
		e.updateRanking(p, rc, solver)
	}
	out.Touched = true
	out.Score = p.Score
	out.Deletions = p.Deletions
	return out
}

// instantiateSpec conjoins σ over the symbolic snapshots of every bug-
// location hit. Crashes that bypass the marker (e.g. a crash inside the
// patch expression) contribute an unsatisfiable σ so the offending
// parameters are removed.
func (e *engine) instantiateSpec(exec *concolic.Execution) *expr.Term {
	var parts []*expr.Term
	for _, h := range exec.BugHits {
		parts = append(parts, instantiate(e.job.Spec, h.Snapshot))
	}
	if exec.Crashed() && len(exec.BugHits) == 0 {
		// Crash before/without the marker: every input on this path
		// violates crash-freedom.
		parts = append(parts, expr.False())
	}
	return expr.And(parts...)
}

func instantiate(spec *expr.Term, snapshot map[string]*expr.Term) *expr.Term {
	sub := make(map[string]*expr.Term, len(snapshot))
	for name, val := range snapshot {
		sub[name] = val
	}
	return expr.Subst(spec, sub)
}

// updateRanking implements §3.5.3: compatible patches gain evidence, more
// when the bug location was exercised; functionality-deleting patches
// (tautologies or contradictions under the current parameter constraint)
// are deprioritized rather than removed. With ModelCountRanking the
// evidence is further scaled by the proportion of the partition's inputs
// the patch fires on (the paper's model-counting fine-tuning).
func (e *engine) updateRanking(p *patch.Patch, rc ReduceContext, solver *smt.Solver) {
	inc := 1.0
	if rc.HitBug {
		inc = 3.0
	}
	if e.isDeletionLike(p, solver) {
		p.Deletions++
		inc *= 0.25
	}
	if e.opts.ModelCountRanking && p.Expr.Sort == expr.SortBool && len(rc.HoleHits) > 0 {
		inc *= e.firingDamp(p, rc)
	}
	p.Score += inc
}

// firingDamp estimates the fraction of the partition on which the patch
// guard fires (diverting control flow) and damps the ranking evidence
// toward 0.25 as the fraction approaches 1: a guard that fires everywhere
// behaves like functionality deletion even if it is not a tautology.
func (e *engine) firingDamp(p *patch.Patch, rc ReduceContext) float64 {
	params, ok := p.AnyParams()
	if !ok {
		return 1
	}
	sub := make(map[string]*expr.Term, len(params))
	for name, v := range params {
		sub[name] = expr.Int(v)
	}
	fire := expr.Subst(p.Formula(expr.Bool(true), rc.HoleHits[0].Snapshot), sub)
	frac, err := mc.Fraction(expr.And(rc.Phi, fire), e.mcBounds(rc.HoleHits), mc.Options{Seed: 1, Samples: 400})
	if err != nil {
		return 1
	}
	return 1 - 0.75*frac
}

// mcBounds supplies sampling bounds for the model counter: the inputs'
// exploration bounds plus boolean patch outputs.
func (e *engine) mcBounds(hits []concolic.HoleHit) map[string]interval.Interval {
	b := make(map[string]interval.Interval, len(e.curBounds)+len(hits))
	for k, v := range e.curBounds {
		b[k] = v
	}
	for _, h := range hits {
		b[h.Out.Name] = interval.New(0, 1)
	}
	return b
}

// isDeletionLike checks whether the patch forces its guard to a constant
// for every admissible parameter vector. Concurrent reduce tasks consult
// the memo under delMu; each patch ID is owned by one task per batch, so
// the two solver queries for a given entry never race with its fill.
func (e *engine) isDeletionLike(p *patch.Patch, solver *smt.Solver) bool {
	if p.Expr.Sort != expr.SortBool {
		return false
	}
	if p.Expr.IsConst() {
		return true
	}
	cnt := p.Constraint.Count()
	e.delMu.Lock()
	if e.delCache == nil {
		e.delCache = make(map[int]delEntry)
	}
	ent, ok := e.delCache[p.ID]
	e.delMu.Unlock()
	if ok && ent.Count == cnt {
		return ent.Val
	}
	b := e.boundsWithParams(e.curBounds, p)
	t := expr.And(p.ConstraintTerm(), expr.Not(p.Expr))
	f := expr.And(p.ConstraintTerm(), p.Expr)
	tautology, err1 := solver.IsSat(t, b)
	contradiction, err2 := solver.IsSat(f, b)
	bad1, bad2 := e.noteSolverErr(err1), e.noteSolverErr(err2)
	val := false
	if !bad1 && !bad2 {
		val = !tautology || !contradiction
	}
	e.delMu.Lock()
	e.delCache[p.ID] = delEntry{Count: cnt, Val: val}
	e.delMu.Unlock()
	return val
}

// FormatTopPatches renders the top-n ranked patches for reports: at most
// len(res.Ranked) lines, and none for n <= 0.
func FormatTopPatches(res *Result, n int) []string {
	n = max(0, min(n, len(res.Ranked)))
	out := make([]string, 0, n)
	for i, p := range res.Ranked[:n] {
		out = append(out, fmt.Sprintf("#%d score=%.2f  %s", i+1, p.Score, p.String()))
	}
	return out
}
