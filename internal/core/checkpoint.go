package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"cpr/internal/concolic"
	"cpr/internal/expr"
	"cpr/internal/faultinject"
	"cpr/internal/interval"
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

// WithDefaults fills in the default Interval. The engine and the CEGIS
// baseline both resolve their CheckpointOptions through it.
func (o CheckpointOptions) WithDefaults() CheckpointOptions {
	if o.Interval <= 0 {
		o.Interval = 8
	}
	return o
}

// Warnf formats a diagnostic for Warn; it is dropped when Warn is nil.
func (o CheckpointOptions) Warnf(format string, args ...any) {
	if o.Warn != nil {
		o.Warn(fmt.Sprintf(format, args...))
	}
}

// WriteSnapshot commits payload as the snapshot for barrier in Dir and
// prunes Dir to the newest keepSnapshots snapshots. A failure is only a
// warning, prefixed with who: the run goes on without that checkpoint.
func (o CheckpointOptions) WriteSnapshot(who string, barrier uint64, payload []byte) {
	if err := journal.WriteSnapshot(o.Dir, barrier, payload); err != nil {
		o.Warnf("%s: write at barrier %d failed: %v", who, barrier, err)
		return
	}
	if err := journal.Prune(o.Dir, keepSnapshots); err != nil {
		o.Warnf("%s: prune failed: %v", who, err)
	}
}

// coreSnapVersion is the schema version of the engine-state payload inside
// a snapshot container; bump on any encoding change.
const coreSnapVersion = 4

// exploreState is one explore phase's resumable loop state: the frontier,
// the explored-prefix set, and the iteration cursor. A zero value starts
// the phase fresh (explore seeds it); a restored value continues it.
type exploreState struct {
	queue []workItem
	seen  map[uint64]bool
	iter  int
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
	// body/framed are scratch buffers reused across snapshot writes, so
	// steady-state encoding does not regrow two payload-sized buffers at
	// every checkpoint.
	body   journal.Encoder
	framed journal.Encoder
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

func (ck *checkpointer) write(st *exploreState, phaseStats *Stats) {
	elapsed := ck.elapsedBase + time.Since(ck.start)
	ck.opts.WriteSnapshot("checkpoint", ck.barrier, ck.encodeSnapshot(st, phaseStats, elapsed))
}

// fingerprintRun hashes everything that determines the run's trajectory:
// the program, spec, inputs, synthesis components, iteration budgets, and
// the engine options that alter exploration. Wall-clock budgets, worker
// count, and solver-internals options are excluded — changing those
// between crash and resume is legal and does not change the result.
func fingerprintRun(job Job, opts Options) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "job:%x|", JobFingerprint(job))
	fmt.Fprintf(h, "opts:%v:%v:%v", opts.DisablePathReduction, opts.ModelCountRanking, opts.Queue)
	return h.Sum64()
}

// JobFingerprint hashes the trajectory-determining parts of a job (the
// program, spec, inputs, bounds, iteration budgets, and synthesis
// components). Engines combine it with a hash of their own options to
// recognize whether a snapshot belongs to the run being started; the
// CEGIS baseline (internal/cegis) shares this job half.
func JobFingerprint(job Job) uint64 {
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

// encodeSnapshot serializes the engine's repair state at a barrier. The
// payload opens with the shared term table (every *expr.Term the rest of
// the payload references, encoded once), then the engine state proper.
func (ck *checkpointer) encodeSnapshot(st *exploreState, phaseStats *Stats, elapsed time.Duration) []byte {
	e := ck.eng
	te := journal.NewTermEncoder()
	ck.body.Reset()
	m := &ck.body

	m.U64(coreSnapVersion)
	m.U64(ck.fp)
	m.U64(ck.barrier)
	m.Dur(elapsed)
	m.Int(ck.phase)

	encodeStats(m, ck.runStats)
	hasPartial := phaseStats != ck.runStats
	m.Bool(hasPartial)
	if hasPartial {
		encodeStats(m, phaseStats)
	}

	m.Int(e.seq)
	m.I64(e.refinements.Load())
	m.I64(e.removals.Load())
	m.I64(e.solverUnknowns.Load())
	m.I64(e.solverPanics.Load())
	m.I64(e.execPanics.Load())
	m.I64(e.flipsRequeued.Load())
	m.I64(e.flipsDropped.Load())

	// Solver-stats aggregate at the barrier: prior-life baseline plus every
	// worker's counters so far. At a barrier no task is in flight, so the
	// per-worker reads are a consistent cut.
	agg := e.baseAgg
	for _, w := range e.workers {
		agg = agg.Add(w.solver.Stats()).Add(w.retrySolver.Stats())
	}
	smt.EncodeSolverStats(m, agg)
	cacheNow := e.opts.SMT.Cache.Stats()
	m.U64(e.baseCacheEvict + (cacheNow.Evictions - e.cacheStart.Evictions))

	// Patch pool: identity, ranking evidence, and parameter region per
	// surviving patch. Templates are not serialized — synthesis is
	// deterministic, so resume re-derives them and intersects by ID.
	m.U64(uint64(len(e.pool.Patches)))
	for _, p := range e.pool.Patches {
		m.Int(p.ID)
		m.F64(p.Score)
		m.Int(p.Deletions)
		encodeRegion(m, p.Constraint)
	}

	// Explored path prefixes, sorted for a canonical encoding.
	keys := make([]uint64, 0, len(st.seen))
	for k := range st.seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	m.U64(uint64(len(keys)))
	for _, k := range keys {
		m.U64(k)
	}
	m.Int(st.iter)

	// Deletion-likeness memo.
	e.delMu.Lock()
	ids := make([]int, 0, len(e.delCache))
	for id := range e.delCache {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	m.U64(uint64(len(ids)))
	for _, id := range ids {
		ent := e.delCache[id]
		m.Int(id)
		m.I64(ent.count)
		m.Bool(ent.val)
	}
	e.delMu.Unlock()

	// The frontier, in queue order (order is immaterial to correctness —
	// popping is by score/seq — but preserving it keeps the resumed run's
	// in-memory state literally identical).
	m.U64(uint64(len(st.queue)))
	for _, it := range st.queue {
		encodeItem(m, te, it)
	}

	ck.framed.Reset()
	ck.framed.Raw(te.Table())
	ck.framed.Append(m.Bytes())
	return ck.framed.Bytes()
}

// resumeState is a decoded snapshot, pending application to a fresh engine.
type resumeState struct {
	barrier    uint64
	elapsed    time.Duration
	phase      int
	base       Stats
	partial    Stats
	hasPartial bool
	seq        int
	counters   [7]int64
	solverAgg  smt.Stats
	cacheEvict uint64
	pool       []patchState
	seen       []uint64
	iter       int
	del        []delMemoState
	queue      []workItem
}

type patchState struct {
	id        int
	score     float64
	deletions int
	region    interval.Region
}

type delMemoState struct {
	id    int
	count int64
	val   bool
}

// st returns the explore-loop state the snapshot was taken at.
func (rs *resumeState) st() *exploreState {
	seen := make(map[uint64]bool, len(rs.seen))
	for _, k := range rs.seen {
		seen[k] = true
	}
	return &exploreState{queue: rs.queue, seen: seen, iter: rs.iter}
}

// loadResume finds and decodes the latest usable snapshot, or returns nil
// (with a warning) when the run must start fresh: no snapshot, corrupt or
// version-mismatched artifacts, or a snapshot from a different job.
func loadResume(opts Options, fp uint64) *resumeState {
	co := opts.Checkpoint
	snap, err := journal.LoadLatest(co.Dir)
	if err != nil {
		if !errors.Is(err, journal.ErrNoSnapshot) || co.Warn != nil {
			co.Warnf("checkpoint: resume unavailable, starting fresh: %v", err)
		}
		return nil
	}
	rs, err := decodeSnapshot(snap.Payload)
	if err != nil {
		co.Warnf("checkpoint: snapshot at barrier %d rejected, starting fresh: %v", snap.Barrier, err)
		return nil
	}
	if rs.barrier != snap.Barrier {
		co.Warnf("checkpoint: snapshot barrier mismatch (%d in payload, %d in container), starting fresh", rs.barrier, snap.Barrier)
		return nil
	}
	if fp != 0 && decodedFP(snap.Payload) != fp {
		co.Warnf("checkpoint: snapshot belongs to a different job or configuration, starting fresh")
		return nil
	}
	return rs
}

// decodedFP re-reads just the fingerprint from a payload that decodeSnapshot
// already validated.
func decodedFP(payload []byte) uint64 {
	d := journal.NewDecoder(payload)
	d.Raw() // term table
	d.U64() // version
	return d.U64()
}

func decodeSnapshot(payload []byte) (*resumeState, error) {
	d := journal.NewDecoder(payload)
	td, err := journal.DecodeTermTable(journal.NewDecoder(d.Raw()))
	if err != nil {
		return nil, err
	}
	if v := d.U64(); d.Err() == nil && v != coreSnapVersion {
		return nil, fmt.Errorf("%w: engine snapshot version %d, want %d", journal.ErrVersion, v, coreSnapVersion)
	}
	rs := &resumeState{}
	d.U64() // fingerprint, checked by the caller against the live job
	rs.barrier = d.U64()
	rs.elapsed = d.Dur()
	rs.phase = d.Int()

	decodeStats(d, &rs.base)
	rs.hasPartial = d.Bool()
	if rs.hasPartial {
		decodeStats(d, &rs.partial)
	}

	rs.seq = d.Int()
	for i := range rs.counters {
		rs.counters[i] = d.I64()
	}
	smt.DecodeSolverStats(d, &rs.solverAgg)
	rs.cacheEvict = d.U64()

	np := d.U64()
	if err := LenCheck(d, np, "pool"); err != nil {
		return nil, err
	}
	rs.pool = make([]patchState, np)
	for i := range rs.pool {
		rs.pool[i].id = d.Int()
		rs.pool[i].score = d.F64()
		rs.pool[i].deletions = d.Int()
		r, err := decodeRegion(d)
		if err != nil {
			return nil, err
		}
		rs.pool[i].region = r
	}

	ns := d.U64()
	if err := LenCheck(d, ns, "seen set"); err != nil {
		return nil, err
	}
	rs.seen = make([]uint64, ns)
	for i := range rs.seen {
		rs.seen[i] = d.U64()
	}
	rs.iter = d.Int()

	nd := d.U64()
	if err := LenCheck(d, nd, "deletion memo"); err != nil {
		return nil, err
	}
	rs.del = make([]delMemoState, nd)
	for i := range rs.del {
		rs.del[i] = delMemoState{id: d.Int(), count: d.I64(), val: d.Bool()}
	}

	nq := d.U64()
	if err := LenCheck(d, nq, "queue"); err != nil {
		return nil, err
	}
	rs.queue = make([]workItem, nq)
	for i := range rs.queue {
		it, err := decodeItem(d, td)
		if err != nil {
			return nil, err
		}
		rs.queue[i] = it
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return rs, nil
}

// LenCheck rejects counts that cannot fit in the remaining payload — a
// corrupt length must not drive a huge allocation.
func LenCheck(d *journal.Decoder, n uint64, what string) error {
	if err := d.Err(); err != nil {
		return err
	}
	if n > uint64(len(d.Rest())) {
		return fmt.Errorf("%w: %s count %d exceeds remaining payload", journal.ErrCorrupt, what, n)
	}
	return nil
}

// apply restores the snapshot into a freshly constructed engine whose pool
// was just re-synthesized. The pool intersect keeps the snapshot's patches
// in snapshot order (a subsequence of synthesis order, since removal is
// order-preserving) with their refined regions and ranking evidence.
func (rs *resumeState) apply(e *engine, stats *Stats, ck *checkpointer) {
	byID := make(map[int]*patch.Patch, len(e.pool.Patches))
	for _, p := range e.pool.Patches {
		byID[p.ID] = p
	}
	kept := make([]*patch.Patch, 0, len(rs.pool))
	for _, ps := range rs.pool {
		p, ok := byID[ps.id]
		if !ok {
			// Unreachable when the fingerprint matched (synthesis is
			// deterministic); degrade by dropping rather than corrupting.
			ck.opts.Warnf("checkpoint: snapshot patch #%d not in re-synthesized pool, dropped", ps.id)
			continue
		}
		p.Score = ps.score
		p.Deletions = ps.deletions
		p.Constraint = ps.region
		kept = append(kept, p)
	}
	e.pool.Patches = kept

	*stats = rs.base
	e.seq = rs.seq
	e.refinements.Store(rs.counters[0])
	e.removals.Store(rs.counters[1])
	e.solverUnknowns.Store(rs.counters[2])
	e.solverPanics.Store(rs.counters[3])
	e.execPanics.Store(rs.counters[4])
	e.flipsRequeued.Store(rs.counters[5])
	e.flipsDropped.Store(rs.counters[6])
	e.baseAgg = rs.solverAgg
	e.baseCacheEvict = rs.cacheEvict
	if len(rs.del) > 0 {
		e.delCache = make(map[int]delEntry, len(rs.del))
		for _, ent := range rs.del {
			e.delCache[ent.id] = delEntry{count: ent.count, val: ent.val}
		}
	}
	ck.barrier = rs.barrier
	ck.elapsedBase = rs.elapsed
}

// --- field-level codecs ---

// encodeStats writes the engine's own Stats fields. The embedded solver
// counters are left out: Repair fills them from the solver aggregate after
// the explore loop, so they are zero at every barrier, and the snapshot
// carries that aggregate separately. MemStats is never persisted.
func encodeStats(m *journal.Encoder, s *Stats) {
	m.I64(s.PInit)
	m.I64(s.PFinal)
	m.Int(s.PoolInit)
	m.Int(s.PoolFinal)
	m.Int(s.PathsExplored)
	m.Int(s.PathsSkipped)
	m.Int(s.InputsGenerated)
	m.Int(s.PatchLocHits)
	m.Int(s.BugLocHits)
	m.Int(s.Refinements)
	m.Int(s.Removals)
	m.Bool(s.TimedOut)
	m.Int(s.SolverUnknowns)
	m.Int(s.SolverPanics)
	m.Int(s.ExecPanics)
	m.Int(s.FlipsRequeued)
	m.Int(s.FlipsDropped)
	m.Int(s.Workers)
	m.U64(s.CacheEvictions)
}

func decodeStats(d *journal.Decoder, s *Stats) {
	s.PInit = d.I64()
	s.PFinal = d.I64()
	s.PoolInit = d.Int()
	s.PoolFinal = d.Int()
	s.PathsExplored = d.Int()
	s.PathsSkipped = d.Int()
	s.InputsGenerated = d.Int()
	s.PatchLocHits = d.Int()
	s.BugLocHits = d.Int()
	s.Refinements = d.Int()
	s.Removals = d.Int()
	s.TimedOut = d.Bool()
	s.SolverUnknowns = d.Int()
	s.SolverPanics = d.Int()
	s.ExecPanics = d.Int()
	s.FlipsRequeued = d.Int()
	s.FlipsDropped = d.Int()
	s.Workers = d.Int()
	s.CacheEvictions = d.U64()
}

func encodeRegion(m *journal.Encoder, r interval.Region) {
	m.Int(r.Dim)
	m.U64(uint64(len(r.Boxes)))
	for _, b := range r.Boxes {
		for _, iv := range b {
			m.I64(iv.Lo)
			m.I64(iv.Hi)
		}
	}
}

func decodeRegion(d *journal.Decoder) (interval.Region, error) {
	r := interval.Region{Dim: d.Int()}
	nb := d.U64()
	if err := LenCheck(d, nb, "region boxes"); err != nil {
		return r, err
	}
	if r.Dim < 0 || r.Dim > 1<<16 {
		return r, fmt.Errorf("%w: region dimension %d", journal.ErrCorrupt, r.Dim)
	}
	r.Boxes = make([]interval.Box, nb)
	for i := range r.Boxes {
		b := make(interval.Box, r.Dim)
		for j := range b {
			b[j] = interval.Interval{Lo: d.I64(), Hi: d.I64()}
		}
		r.Boxes[i] = b
	}
	return r, d.Err()
}

// EncodeI64Map writes a string→int64 map with a nil flag (nil and empty
// maps restore distinctly) in sorted key order.
func EncodeI64Map(m *journal.Encoder, mp map[string]int64) {
	m.Bool(mp != nil)
	if mp == nil {
		return
	}
	names := make([]string, 0, len(mp))
	for n := range mp {
		names = append(names, n)
	}
	sort.Strings(names)
	m.U64(uint64(len(names)))
	for _, n := range names {
		m.Str(n)
		m.I64(mp[n])
	}
}

// DecodeI64Map is the inverse of EncodeI64Map.
func DecodeI64Map(d *journal.Decoder) (map[string]int64, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	n := d.U64()
	if err := LenCheck(d, n, "map"); err != nil {
		return nil, err
	}
	mp := make(map[string]int64, n)
	for i := uint64(0); i < n; i++ {
		name := d.Str()
		mp[name] = d.I64()
	}
	return mp, d.Err()
}

func encodeItem(m *journal.Encoder, te *journal.TermEncoder, it workItem) {
	EncodeI64Map(m, it.input)
	m.Int(it.patchID)
	EncodeI64Map(m, it.params)
	m.Int(it.score)
	m.Int(it.bound)
	m.Int(it.seq)
	m.Bool(it.seed)
	m.Bool(it.retry)
	m.Bool(it.flip != nil)
	if it.flip != nil {
		encodeFlip(m, te, it.flip)
	}
}

func decodeItem(d *journal.Decoder, td *journal.TermDecoder) (workItem, error) {
	var it workItem
	input, err := DecodeI64Map(d)
	if err != nil {
		return it, err
	}
	it.input = input
	it.patchID = d.Int()
	params, err := DecodeI64Map(d)
	if err != nil {
		return it, err
	}
	if params != nil {
		it.params = expr.Model(params)
	}
	it.score = d.Int()
	it.bound = d.Int()
	it.seq = d.Int()
	it.seed = d.Bool()
	it.retry = d.Bool()
	if d.Bool() {
		f, err := decodeFlip(d, td)
		if err != nil {
			return it, err
		}
		it.flip = f
	}
	return it, d.Err()
}

func encodeFlip(m *journal.Encoder, te *journal.TermEncoder, f *concolic.Flip) {
	m.U64(uint64(len(f.Prefix)))
	for _, t := range f.Prefix {
		m.U64(te.ID(t))
	}
	m.U64(te.ID(f.Negated))
	m.Int(f.Depth)
	m.Bool(f.OnPatch)
	m.Bool(f.PinFlip)
	m.Bool(f.ParentHitPatch)
	m.Bool(f.ParentHitBug)
	m.U64(uint64(len(f.HoleHits)))
	for _, h := range f.HoleHits {
		EncodeHoleHit(m, te, h)
	}
}

func decodeFlip(d *journal.Decoder, td *journal.TermDecoder) (*concolic.Flip, error) {
	f := &concolic.Flip{}
	np := d.U64()
	if err := LenCheck(d, np, "flip prefix"); err != nil {
		return nil, err
	}
	if np > 0 {
		f.Prefix = make([]*expr.Term, np)
		for i := range f.Prefix {
			t, err := td.Term(d.U64())
			if err != nil {
				return nil, err
			}
			f.Prefix[i] = t
		}
	}
	neg, err := td.Term(d.U64())
	if err != nil {
		return nil, err
	}
	f.Negated = neg
	f.Depth = d.Int()
	f.OnPatch = d.Bool()
	f.PinFlip = d.Bool()
	f.ParentHitPatch = d.Bool()
	f.ParentHitBug = d.Bool()
	nh := d.U64()
	if err := LenCheck(d, nh, "flip hole hits"); err != nil {
		return nil, err
	}
	if nh > 0 {
		f.HoleHits = make([]concolic.HoleHit, nh)
		for i := range f.HoleHits {
			h, err := DecodeHoleHit(d, td)
			if err != nil {
				return nil, err
			}
			f.HoleHits[i] = h
		}
	}
	return f, d.Err()
}

// EncodeTermMap writes a name→term map in sorted key order, each term by
// its table ID; an empty map decodes as nil.
func EncodeTermMap(m *journal.Encoder, te *journal.TermEncoder, mp map[string]*expr.Term) {
	names := make([]string, 0, len(mp))
	for n := range mp {
		names = append(names, n)
	}
	sort.Strings(names)
	m.U64(uint64(len(names)))
	for _, n := range names {
		m.Str(n)
		m.U64(te.ID(mp[n]))
	}
}

// DecodeTermMap is the inverse of EncodeTermMap.
func DecodeTermMap(d *journal.Decoder, td *journal.TermDecoder) (map[string]*expr.Term, error) {
	n := d.U64()
	if err := LenCheck(d, n, "term map"); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, d.Err()
	}
	mp := make(map[string]*expr.Term, n)
	for i := uint64(0); i < n; i++ {
		name := d.Str()
		t, err := td.Term(d.U64())
		if err != nil {
			return nil, err
		}
		mp[name] = t
	}
	return mp, d.Err()
}

// EncodeHoleHit writes one patch-location hit: the hole output, its
// symbolic snapshot, the concrete values and the branch index. Engine
// frontier items and baseline path observations both carry hole hits.
func EncodeHoleHit(m *journal.Encoder, te *journal.TermEncoder, h concolic.HoleHit) {
	m.U64(te.ID(h.Out))
	EncodeTermMap(m, te, h.Snapshot)
	EncodeI64Map(m, h.Concrete)
	m.Int(h.AtBranch)
}

// DecodeHoleHit is the inverse of EncodeHoleHit.
func DecodeHoleHit(d *journal.Decoder, td *journal.TermDecoder) (concolic.HoleHit, error) {
	var h concolic.HoleHit
	out, err := td.Term(d.U64())
	if err != nil {
		return h, err
	}
	h.Out = out
	snap, err := DecodeTermMap(d, td)
	if err != nil {
		return h, err
	}
	h.Snapshot = snap
	conc, err := DecodeI64Map(d)
	if err != nil {
		return h, err
	}
	if conc != nil {
		h.Concrete = expr.Model(conc)
	}
	h.AtBranch = d.Int()
	return h, d.Err()
}
