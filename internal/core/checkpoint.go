package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"
	"time"

	"cpr/internal/faultinject"
	"cpr/internal/journal"
	"cpr/internal/lang"
	"cpr/internal/patch"
	"cpr/internal/smt"
	"cpr/internal/synth"
)

// CheckpointOptions makes a repair run resumable: with Dir set, the engine
// commits a snapshot of its repair state (pool, frontier, seen set, stats,
// budget accounting) every Interval generation barriers, and with Resume it
// restores the latest intact snapshot before starting. A resumed run
// reaches the uninterrupted run's result exactly: the snapshot points are
// deterministic generation barriers — the top of an explore-loop
// iteration, where all worker fan-out has merged — so Workers=1 and
// Workers=N resume to the identical pool. The verdict cache is not
// persisted: it is exact memoization of a deterministic solver, so a
// resumed run answers every query the same from a cold cache, and only the
// solver-work counters (cache hits and misses, theory rounds, validations)
// count the work the processes actually did.
type CheckpointOptions struct {
	// Dir is the checkpoint directory; empty disables checkpointing.
	Dir string
	// Interval is the number of generation barriers between snapshots
	// (default 8).
	Interval int
	// Resume loads the latest intact snapshot in Dir before starting.
	// A missing, corrupt, or mismatched snapshot degrades to a fresh
	// start with a warning — never an error or a partial load.
	Resume bool
	// Warn receives non-fatal checkpoint diagnostics (failed writes,
	// rejected snapshots, fresh-start fallbacks). Nil discards them.
	Warn func(msg string)
}

// keepSnapshots is the number of snapshot files a checkpoint directory
// retains: the newest plus one fallback in case the newest is damaged.
const keepSnapshots = 2

func (o CheckpointOptions) enabled() bool { return o.Dir != "" }

// withDefaults fills in the default Interval.
func (o CheckpointOptions) withDefaults() CheckpointOptions {
	if o.Interval <= 0 {
		o.Interval = 8
	}
	return o
}

// warnf formats a diagnostic for Warn; it is dropped when Warn is nil.
func (o CheckpointOptions) warnf(format string, args ...any) {
	if o.Warn != nil {
		o.Warn(fmt.Sprintf(format, args...))
	}
}

// coreSnapVersion is the schema version of the engine-state payload inside
// a snapshot container; bump on any change to snapshot's fields. Payloads
// are JSON from version 6 on; earlier ones were varint-encoded binary.
const coreSnapVersion = 6

// exploreState is one explore phase's resumable loop state: the frontier,
// the explored-prefix set, and the iteration cursor. A zero value starts
// the phase fresh (explore seeds it); a restored value continues it.
type exploreState struct {
	Queue []workItem      `json:"queue"`
	Seen  map[uint64]bool `json:"seen"`
	Iter  int             `json:"iter"`
}

// snapshot is the engine's repair state at a generation barrier: the
// payload of one checkpoint, committed as a JSON document. It holds plain
// data only — counters, regions, hashes and the frontier's concrete
// (input, patch) pairs, no term. encoding/json sorts map keys, so one
// state always encodes to the same bytes.
type snapshot struct {
	Version     int           `json:"version"`
	Fingerprint uint64        `json:"fingerprint"`
	Barrier     uint64        `json:"barrier"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	// Phase is the explore phase in progress (checkpointer.phase).
	// Partial is that validation phase's stats so far; it is nil in the
	// main phase, whose stats are Stats. Their solver and memory parts
	// are zero at every barrier: Repair fills them after the explore loop.
	Phase   int    `json:"phase"`
	Stats   Stats  `json:"stats"`
	Partial *Stats `json:"partial,omitempty"`
	Seq     int    `json:"seq"`
	// Counters are the engine's atomic counters, in engine.counters order.
	Counters [6]int64 `json:"counters"`
	// Solver is the prior lives' and the workers' solver aggregate, with
	// its wall times zeroed: those are measurements, not run state.
	Solver         smt.Stats `json:"solver"`
	CacheEvictions uint64    `json:"cache_evictions"`
	// Pool holds each surviving patch's identity, ranking evidence and
	// parameter region, in pool order. Templates are not carried:
	// synthesis is deterministic, so resume re-derives them and syncPool
	// intersects by ID.
	Pool    []PatchState     `json:"pool"`
	Explore exploreState     `json:"explore"`
	DelMemo map[int]delEntry `json:"deletion_memo"`
}

// checkpointer drives periodic snapshot writes for one Repair call.
type checkpointer struct {
	opts     CheckpointOptions
	fp       uint64
	eng      *engine
	runStats *Stats
	// phase indexes the explore phase in progress: 0..F−1 are the
	// per-failing-input validation phases, F is the main loop.
	phase int
	// barrier counts generation barriers across all phases; snapshots are
	// written when it crosses a multiple of Interval and named by it.
	barrier uint64
	// start/elapsedBase re-base budget accounting: elapsed wall time at
	// any barrier is elapsedBase (from a restored snapshot) plus time
	// since this process's Repair began.
	start       time.Time
	elapsedBase time.Duration
}

// atBarrier is called at the top of every explore-loop iteration (after
// the expiry check): the deterministic point where all fan-out from the
// previous iteration has merged and the engine state is identical for
// every worker count. It writes a due checkpoint, then gives fault
// injection its chance to kill the process — in that order, so a crash at
// barrier N never outruns the snapshot for barrier N.
func (e *engine) atBarrier(st *exploreState, phaseStats *Stats) {
	if ck := e.ck; ck != nil {
		ck.barrier++
		if ck.barrier%uint64(ck.opts.Interval) == 0 {
			ck.write(st, phaseStats)
		}
	}
	faultinject.CrashPoint()
	// Memory governance last: a crash injected at this barrier must replay
	// from the snapshot just written, and the governor's cache shrink is
	// result-neutral, so its position after the snapshot cannot change
	// what a resumed run computes.
	e.governAtBarrier(st)
}

// write commits the snapshot for the current barrier and prunes Dir to
// the newest keepSnapshots snapshots. A failure is only a warning: the run
// goes on without that checkpoint.
func (ck *checkpointer) write(st *exploreState, phaseStats *Stats) {
	payload, err := ck.encode(st, phaseStats)
	if err == nil {
		err = journal.WriteSnapshot(ck.opts.Dir, ck.barrier, payload)
	}
	if err != nil {
		ck.opts.warnf("checkpoint: write at barrier %d failed: %v", ck.barrier, err)
		return
	}
	if err := journal.Prune(ck.opts.Dir, keepSnapshots); err != nil {
		ck.opts.warnf("checkpoint: prune failed: %v", err)
	}
}

// RunFingerprint hashes everything that determines a run's trajectory:
// the program, spec, inputs, synthesis components, iteration budgets, and
// the engine options that alter exploration. Wall-clock budgets, worker
// count, and solver-internals options are excluded — changing those
// between crash and resume is legal and does not change the result. A
// snapshot is resumed only into a run with the same fingerprint;
// cpr-bench's suite journal (internal/bench) hashes it into each row's.
func RunFingerprint(job Job, opts Options) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "job:%x|", jobFingerprint(job))
	fmt.Fprintf(h, "opts:%v:%v:%v", opts.DisablePathReduction, opts.ModelCountRanking, opts.Queue)
	return h.Sum64()
}

// jobFingerprint hashes the trajectory-determining parts of a job (the
// program, spec, inputs, bounds, iteration budgets, and synthesis
// components).
func jobFingerprint(job Job) uint64 {
	h := fnv.New64a()
	w := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	w(lang.Format(job.Program, "__HOLE__"))
	w(fmt.Sprintf("spec:%x", job.Spec.Hash()))
	for _, in := range job.FailingInputs {
		w("fail:" + inputString(in))
	}
	for _, in := range job.PassingInputs {
		w("pass:" + inputString(in))
	}
	names := make([]string, 0, len(job.InputBounds))
	for n := range job.InputBounds {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w(fmt.Sprintf("bound:%s:%v", n, job.InputBounds[n]))
	}
	w(fmt.Sprintf("iters:%d:%d", job.Budget.MaxIterations, job.Budget.ValidationIterations))
	w(componentsString(job.Components))
	return h.Sum64()
}

func inputString(in map[string]int64) string {
	names := make([]string, 0, len(in))
	for n := range in {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		s += fmt.Sprintf("%s=%d,", n, in[n])
	}
	return s
}

func componentsString(c synth.Components) string {
	varNames := make([]string, 0, len(c.Vars))
	for n := range c.Vars {
		varNames = append(varNames, n)
	}
	sort.Strings(varNames)
	s := "comp:"
	for _, n := range varNames {
		s += fmt.Sprintf("%s:%v,", n, c.Vars[n])
	}
	return s + fmt.Sprintf("|%v|%v|%v|%v|%v|%v|%d|%v|%v",
		c.Consts, c.Params, c.ParamRange, c.Arith, c.Cmp, c.Bool,
		c.MaxTemplates, c.SuppressDeletion, c.ExtraTemplates)
}

// encode serializes the engine's repair state at a barrier. No fan-out
// task is in flight at a barrier, so the per-worker solver counters and
// the deletion memo read here are a consistent cut.
func (ck *checkpointer) encode(st *exploreState, phaseStats *Stats) ([]byte, error) {
	e := ck.eng
	s := snapshot{
		Version:        coreSnapVersion,
		Fingerprint:    ck.fp,
		Barrier:        ck.barrier,
		Elapsed:        ck.elapsedBase + time.Since(ck.start),
		Phase:          ck.phase,
		Stats:          *ck.runStats,
		Seq:            e.seq,
		Solver:         e.baseAgg,
		CacheEvictions: e.baseCacheEvict + (e.opts.SMT.Cache.Stats().Evictions - e.cacheStart.Evictions),
		Pool:           e.poolState(),
		Explore:        *st,
	}
	if phaseStats != ck.runStats {
		s.Partial = phaseStats
	}
	for i, c := range e.counters() {
		s.Counters[i] = c.Load()
	}
	for _, w := range e.workers {
		s.Solver = s.Solver.Add(w.Stats())
	}
	s.Solver.SatTime, s.Solver.LIATime, s.Solver.ValidateTime = 0, 0, 0
	e.delMu.Lock()
	defer e.delMu.Unlock()
	s.DelMemo = e.delCache
	return json.Marshal(&s)
}

// counters lists the engine's atomic counters in snapshot order.
func (e *engine) counters() [6]*atomic.Int64 {
	return [6]*atomic.Int64{&e.refinements, &e.removals, &e.solverUnknowns, &e.solverPanics, &e.execPanics, &e.flipsDropped}
}

// loadResume finds and decodes the latest usable snapshot, or returns nil
// (with a warning) when the run must start fresh: no snapshot, corrupt or
// version-mismatched artifacts, a snapshot from a different job, or one
// holding a state no run of this job can be in.
func loadResume(job Job, opts Options, fp uint64) *snapshot {
	co := opts.Checkpoint
	snap, err := journal.LoadLatest(co.Dir)
	if err != nil {
		co.warnf("checkpoint: resume unavailable, starting fresh: %v", err)
		return nil
	}
	s, err := decodeSnapshot(snap.Payload)
	if err != nil {
		co.warnf("checkpoint: snapshot at barrier %d rejected, starting fresh: %v", snap.Barrier, err)
		return nil
	}
	if s.Barrier != snap.Barrier {
		co.warnf("checkpoint: snapshot barrier mismatch (%d in payload, %d in container), starting fresh", s.Barrier, snap.Barrier)
		return nil
	}
	if s.Fingerprint != fp {
		co.warnf("checkpoint: snapshot belongs to a different job or configuration, starting fresh")
		return nil
	}
	if err := s.validate(len(job.FailingInputs)); err != nil {
		co.warnf("checkpoint: snapshot at barrier %d rejected, starting fresh: %v", snap.Barrier, err)
		return nil
	}
	return s
}

func decodeSnapshot(payload []byte) (*snapshot, error) {
	if len(payload) > 0 && payload[0] != '{' {
		return nil, fmt.Errorf("%w: binary engine snapshot predates version %d", journal.ErrVersion, coreSnapVersion)
	}
	var s snapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, fmt.Errorf("%w: engine snapshot: %v", journal.ErrCorrupt, err)
	}
	if s.Version != coreSnapVersion {
		return nil, fmt.Errorf("%w: engine snapshot version %d, want %d", journal.ErrVersion, s.Version, coreSnapVersion)
	}
	return &s, nil
}

// validate rejects what no run of a job with numInputs failing inputs can
// reach and the resumed engine would index with: a phase past the last
// one, a negative iteration cursor or generational bound, or a region box
// whose width is not the region's dimension. syncPool checks each region's
// dimension against its re-synthesized patch.
func (s *snapshot) validate(numInputs int) error {
	if s.Phase < 0 || s.Phase > numInputs {
		return fmt.Errorf("%w: phase %d outside [0, %d]", journal.ErrCorrupt, s.Phase, numInputs)
	}
	if s.Explore.Iter < 0 {
		return fmt.Errorf("%w: negative iteration cursor %d", journal.ErrCorrupt, s.Explore.Iter)
	}
	for _, it := range s.Explore.Queue {
		if it.Bound < 0 {
			return fmt.Errorf("%w: frontier item %d has negative bound %d", journal.ErrCorrupt, it.Seq, it.Bound)
		}
	}
	for _, ps := range s.Pool {
		for _, b := range ps.Region.Boxes {
			if len(b) != ps.Region.Dim {
				return fmt.Errorf("%w: patch #%d has a %d-wide box in a %d-dimensional region", journal.ErrCorrupt, ps.ID, len(b), ps.Region.Dim)
			}
		}
	}
	return nil
}

// syncPool brings a freshly synthesized pool to the state ps records,
// with the order-preserving intersect that resume and replica batches
// share: ps must list a subsequence of the pool (pools only shrink, in
// synthesis order) with regions of each patch's dimension. Otherwise
// syncPool fails and leaves the pool untouched.
func syncPool(pool *patch.Pool, ps []PatchState) error {
	at := make(map[int]int, len(pool.Patches))
	for i, p := range pool.Patches {
		at[p.ID] = i
	}
	kept := make([]*patch.Patch, len(ps))
	next := 0
	for i, s := range ps {
		j, ok := at[s.ID]
		if !ok || j < next {
			return fmt.Errorf("patch #%d is missing from the synthesized pool or out of its order", s.ID)
		}
		if p := pool.Patches[j]; s.Region.Dim != len(p.Params) {
			return fmt.Errorf("patch #%d has %d parameters, its region %d dimensions", s.ID, len(p.Params), s.Region.Dim)
		}
		kept[i], next = pool.Patches[j], j+1
	}
	for i, s := range ps {
		kept[i].Score, kept[i].Deletions, kept[i].Constraint = s.Score, s.Deletions, s.Region
	}
	pool.Patches = kept
	return nil
}

// apply restores the rest of the snapshot into a freshly constructed
// engine whose pool syncPool has already restored.
func (s *snapshot) apply(e *engine, stats *Stats, ck *checkpointer) {
	*stats = s.Stats
	e.seq = s.Seq
	for i, c := range e.counters() {
		c.Store(s.Counters[i])
	}
	e.baseAgg = s.Solver
	e.baseCacheEvict = s.CacheEvictions
	e.delCache = s.DelMemo
	ck.barrier = s.Barrier
	ck.elapsedBase = s.Elapsed
}
