// Package smt decides satisfiability of quantifier-free formulas over
// booleans and bounded integers, and produces models. It is the solver the
// repair system runs every query through: path constraints, patch
// formulas, parameter boxes, and specifications.
//
// Architecture (lazy DPLL(T)):
//
//  1. simplify the formula (canonical linear atoms, package expr),
//  2. purify: eliminate integer ite, div, and rem by fresh variables with
//     guarded defining constraints (a subterm that expr.Term.Pure marks
//     free of them is returned as is),
//  3. Tseitin-encode the boolean skeleton over theory atoms,
//  4. CDCL search (package sat) proposes a skeleton model,
//  5. the conjunction of asserted theory literals goes to the LIA
//     procedure (package lia); theory conflicts come back as blocking
//     clauses until the loop converges.
//
// Every integer variable is bounded; DefaultBounds (32-bit by default)
// applies to variables without explicit bounds, mirroring the C int
// semantics of the subject programs.
package smt

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"cpr/internal/expr"
	"cpr/internal/faultinject"
	"cpr/internal/interval"
	"cpr/internal/smt/cache"
	"cpr/internal/smt/guard"
	"cpr/internal/smt/lia"
	"cpr/internal/smt/sat"
)

// Int32Bounds is the default domain of integer variables: 32-bit C int.
var Int32Bounds = interval.New(-2147483648, 2147483647)

// Status is the solver verdict.
type Status int8

// Verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Result carries a verdict and, when Sat, a model covering the formula's
// variables and every variable with explicit bounds.
type Result struct {
	Status Status
	Model  expr.Model
}

// Options configures a Solver.
type Options struct {
	// DefaultBounds is the domain for integer variables with no explicit
	// bounds. Zero value means Int32Bounds.
	DefaultBounds interval.Interval
	// LIA tunes the arithmetic procedure.
	LIA lia.Options
	// MaxTheoryRounds bounds skeleton/theory iterations (default 10000).
	MaxTheoryRounds int
	// MaxConflicts bounds SAT conflicts per query (0 = unbounded).
	MaxConflicts uint64
	// Context stops in-flight queries once it is done (deadline or
	// cancellation): they return Unknown with a *BudgetError, never a
	// wrong verdict. The repair engine installs its run context here so
	// solver work stops with the run. Nil means context.Background().
	Context context.Context
	// Cache, when non-nil, memoizes decisive verdicts (and sat models)
	// across queries. A cache may be shared by any number of solvers;
	// hits return exactly what re-solving would, so sharing does not
	// change results, only speed.
	Cache *cache.Cache
	// Incremental enables the persistent solving context (see Context) for
	// verdict-only queries (Decide, IsSat, Valid): per-conjunct Tseitin
	// encodings are cached, the CDCL clause database with its learned
	// clauses is retained across queries, and per-query formulas are
	// asserted through selector assumptions. Model queries (Check,
	// GetModel) always solve from scratch. Verdicts are identical to
	// scratch mode and models come from the same deterministic path, so
	// repair results do not depend on this flag — only speed does. Off by
	// default.
	Incremental bool
	// Guard tunes the validation and self-healing layer (sampling rate,
	// quarantine backoff, circuit-breaker threshold). The zero value gets
	// production defaults. Guard.Paranoid (or the CPR_PARANOID environment
	// variable, process-wide) forces 100% verdict validation: every unsat
	// answer is cross-checked by an independent scratch solve and every
	// incremental sat round's model is replayed against the clause set.
	Guard guard.Config
}

// maxContextClauses caps the incremental context's retained clause
// database. Every incremental solve decides the variables of the whole
// retained database, so dead encodings from a long run (per-patch
// conjuncts that will never be queried again) make each query slower than
// the last. When the database ends a query above this limit the context is
// retired and rebuilt lazily from the next query's conjuncts — a
// speed-only policy: retirement changes which learned clauses are
// available, never verdicts or models. 1000 is the knee of the end-to-end
// bench sweep (see EXPERIMENTS.md).
const maxContextClauses = 1000

func (o Options) withDefaults() Options {
	if o.DefaultBounds == (interval.Interval{}) {
		o.DefaultBounds = Int32Bounds
	}
	if o.MaxTheoryRounds == 0 {
		o.MaxTheoryRounds = 10000
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	return o
}

// isDone reports, without blocking, whether done is closed. A nil done
// (context.Background's) never is. Pollers fetch done once per query:
// Context.Err would take the context's mutex, which every worker shares.
func isDone(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// stopper returns a Stop callback for the sat and lia tiers that polls
// done, or nil when done can never close.
func stopper(done <-chan struct{}) func() bool {
	if done == nil {
		return nil
	}
	return func() bool { return isDone(done) }
}

// Stats accumulates query counts across a Solver's lifetime. It is the
// one declaration of the solver counters: core.Stats and cegis.Stats embed
// it, and the json tags are the names every output (cpr-bench -json, cprd
// job results and /stats) uses for them.
type Stats struct {
	SolverQueries uint64 `json:"solver_queries"`
	TheoryRounds  uint64 `json:"theory_rounds"`
	SatAnswers    uint64 `json:"sat_answers"`
	UnsatAnswers  uint64 `json:"unsat_answers"`
	// Unknowns counts queries that exhausted a budget or deadline;
	// Panics counts queries that panicked and were recovered at the Check
	// boundary. Both degrade to Unknown answers.
	Unknowns uint64 `json:"unknowns,omitempty"`
	Panics   uint64 `json:"panics,omitempty"`
	// CacheHits/CacheMisses count verdict-cache traffic from this solver's
	// queries (zero when Options.Cache is nil). Hits are included in
	// SolverQueries and in Sat/UnsatAnswers.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// EncodeCacheHits/EncodeCacheMisses count per-conjunct encoding reuse
	// in the incremental context, which only verdict-only queries (Decide)
	// reach: a hit is a top-level conjunct whose simplification,
	// purification, and Tseitin encoding were skipped because an earlier
	// query already prepared it. Zero in scratch mode.
	EncodeCacheHits   uint64 `json:"enc_cache_hits,omitempty"`
	EncodeCacheMisses uint64 `json:"enc_cache_misses,omitempty"`
	// ClausesLearned/ClausesDeleted count CDCL clause learning and
	// activity-driven deletion; ClausesKept is the learned-clause count
	// currently retained by the incremental context (zero in scratch mode,
	// where learned clauses die with their query).
	ClausesLearned uint64 `json:"clauses_learned,omitempty"`
	ClausesKept    uint64 `json:"clauses_kept,omitempty"`
	ClausesDeleted uint64 `json:"clauses_deleted,omitempty"`
	// Wall-time breakdown of solver work: SatTime is spent in CDCL
	// search, LIATime in the arithmetic
	// procedure, ValidateTime in verdict validation (model replays and
	// sampled unsat cross-checks, including the trusted re-solves they
	// trigger). Aggregated race-free from atomic nanosecond counters.
	// Wall-clock measurements, never run state: engine snapshots carry
	// the solver aggregate with these three zeroed.
	SatTime      time.Duration `json:"sat_ns"`
	LIATime      time.Duration `json:"lia_ns"`
	ValidateTime time.Duration `json:"validate_ns"`
	// Self-healing health counters (package guard). Validations counts
	// verdict validations run (model replays + unsat cross-checks);
	// ValidationFailures counts verdicts they rejected — each such verdict
	// was replaced by a lower-rung solve or degraded to Unknown, never
	// returned. Quarantines counts layers taken out of service,
	// FallbackSolves queries served below their natural tier,
	// RebuildRetries quarantined contexts readmitted after backoff, and
	// BreakerTrips circuit breakers pinning a solver to scratch mode.
	Validations        uint64 `json:"validations,omitempty"`
	ValidationFailures uint64 `json:"validation_failures,omitempty"`
	Quarantines        uint64 `json:"quarantines,omitempty"`
	FallbackSolves     uint64 `json:"fallback_solves,omitempty"`
	RebuildRetries     uint64 `json:"rebuild_retries,omitempty"`
	BreakerTrips       uint64 `json:"breaker_trips,omitempty"`
}

// Add returns the fieldwise sum of two stats snapshots — the aggregate of
// several solvers (e.g. one per worker) is itself a Stats.
func (a Stats) Add(b Stats) Stats {
	a.SolverQueries += b.SolverQueries
	a.TheoryRounds += b.TheoryRounds
	a.SatAnswers += b.SatAnswers
	a.UnsatAnswers += b.UnsatAnswers
	a.Unknowns += b.Unknowns
	a.Panics += b.Panics
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.EncodeCacheHits += b.EncodeCacheHits
	a.EncodeCacheMisses += b.EncodeCacheMisses
	a.ClausesLearned += b.ClausesLearned
	a.ClausesKept += b.ClausesKept
	a.ClausesDeleted += b.ClausesDeleted
	a.SatTime += b.SatTime
	a.LIATime += b.LIATime
	a.ValidateTime += b.ValidateTime
	a.Validations += b.Validations
	a.ValidationFailures += b.ValidationFailures
	a.Quarantines += b.Quarantines
	a.FallbackSolves += b.FallbackSolves
	a.RebuildRetries += b.RebuildRetries
	a.BreakerTrips += b.BreakerTrips
	return a
}

// solverStats is the live, atomically-updated form of Stats, so Stats()
// snapshots are race-free even while another goroutine is mid-query.
type solverStats struct {
	queries      atomic.Uint64
	theoryRounds atomic.Uint64
	satAnswers   atomic.Uint64
	unsatAnswers atomic.Uint64
	unknowns     atomic.Uint64
	panics       atomic.Uint64
	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64

	encodeCacheHits   atomic.Uint64
	encodeCacheMisses atomic.Uint64
	clausesLearned    atomic.Uint64
	clausesKept       atomic.Uint64 // gauge: retained learnts, stored after each query
	clausesDeleted    atomic.Uint64

	satNanos      atomic.Int64
	liaNanos      atomic.Int64
	validateNanos atomic.Int64
}

// timeSat/timeLIA/timeValidate fold an elapsed interval into the wall-time
// breakdown counters.
func (st *solverStats) timeSat(from time.Time)      { st.satNanos.Add(int64(time.Since(from))) }
func (st *solverStats) timeLIA(from time.Time)      { st.liaNanos.Add(int64(time.Since(from))) }
func (st *solverStats) timeValidate(from time.Time) { st.validateNanos.Add(int64(time.Since(from))) }

// Solver answers satisfiability queries. The zero value is not usable;
// construct with NewSolver. A Solver is not safe for concurrent Check
// calls, but Stats() may be called from any goroutine at any time.
type Solver struct {
	opts  Options
	stats solverStats
	// ctx is the persistent incremental state, created lazily on the
	// first Decide when opts.Incremental is set and discarded whenever a
	// recovered panic may have left it mid-mutation.
	ctx *Context
	// enc is the scratch path's encoder, reset before every scratch solve
	// so its CDCL storage and maps are reused, and discarded, like ctx,
	// whenever a recovered panic may have left it mid-mutation.
	enc *encoder
	// guard validates verdicts and drives the degradation ladder; see
	// package guard. Every solver has one (the overhead of validation is
	// one model replay per sat answer plus sampled unsat cross-checks).
	guard *guard.Guard
	// scratch is the trusted child solver the ladder's lower rungs run on:
	// scratch mode, no cache, no fault injection, no guard — the reference
	// implementation the untrusted tiers are checked against. Created
	// lazily on the first cross-check or fallback.
	scratch *Solver
	// trusted marks the scratch child itself: its verdicts are served
	// without lie injection or validation (it IS the validator).
	trusted bool
	// journal records the cache keys this solver stored during the current
	// epoch (see BeginEpoch); on a panic or budget abort, or when a layer
	// is quarantined, the journaled entries are invalidated — a corrupted
	// worker must not leave verdicts behind in shared state.
	journal []cache.Key
}

// maxJournal caps epoch journals; an epoch that overflows it simply stops
// recording (invalidation-on-abort is best-effort hygiene, not soundness —
// entries are validated before every store).
const maxJournal = 8192

// NewSolver returns a Solver with the given options.
func NewSolver(opts Options) *Solver {
	opts = opts.withDefaults()
	g := guard.New(opts.Guard)
	// Keep the guard's resolved configuration (defaults applied,
	// CPR_PARANOID folded in), so every layer reading opts.Guard — the
	// incremental context's model self-check included — sees the setting
	// the guard enforces.
	opts.Guard = g.Config()
	return &Solver{opts: opts, guard: g}
}

// Stats returns a consistent snapshot of the accumulated counters. It is
// safe to call concurrently with queries on this solver.
func (s *Solver) Stats() Stats {
	gc := s.guard.Counters()
	return Stats{
		SolverQueries: s.stats.queries.Load(),
		TheoryRounds:  s.stats.theoryRounds.Load(),
		SatAnswers:    s.stats.satAnswers.Load(),
		UnsatAnswers:  s.stats.unsatAnswers.Load(),
		Unknowns:      s.stats.unknowns.Load(),
		Panics:        s.stats.panics.Load(),
		CacheHits:     s.stats.cacheHits.Load(),
		CacheMisses:   s.stats.cacheMisses.Load(),

		EncodeCacheHits:   s.stats.encodeCacheHits.Load(),
		EncodeCacheMisses: s.stats.encodeCacheMisses.Load(),
		ClausesLearned:    s.stats.clausesLearned.Load(),
		ClausesKept:       s.stats.clausesKept.Load(),
		ClausesDeleted:    s.stats.clausesDeleted.Load(),

		SatTime:      time.Duration(s.stats.satNanos.Load()),
		LIATime:      time.Duration(s.stats.liaNanos.Load()),
		ValidateTime: time.Duration(s.stats.validateNanos.Load()),

		Validations:        gc.Validations,
		ValidationFailures: gc.ValidationFailures,
		Quarantines:        gc.Quarantines,
		FallbackSolves:     gc.FallbackSolves,
		RebuildRetries:     gc.RebuildRetries,
		BreakerTrips:       gc.BreakerTrips,
	}
}

// ErrBudget is returned when a resource limit is exceeded. Budget errors
// produced by Check are *BudgetError values wrapping this sentinel, so
// errors.Is(err, ErrBudget) keeps working while the error text carries the
// originating query's context.
var ErrBudget = errors.New("smt: resource budget exhausted")

// ErrSolverPanic wraps a panic recovered at the Check boundary: the query
// degrades to an Unknown answer instead of killing the process.
var ErrSolverPanic = errors.New("smt: solver panicked")

// BudgetError wraps ErrBudget with the originating query's context so
// exhaustion is diagnosable: which stage gave up and how much work the
// query had done when it did.
type BudgetError struct {
	// Stage is where the budget ran out: "sat-conflicts", "lia",
	// "theory-rounds", "deadline", or "fault-injection".
	Stage string
	// Query is the solver-lifetime query number (1-based).
	Query uint64
	// TheoryRounds is the number of skeleton/theory rounds completed by
	// this query.
	TheoryRounds int
	// Conflicts is the SAT conflict count this query spent.
	Conflicts uint64
	// Clauses is the clause count of the encoded skeleton; Atoms is the
	// number of distinct theory atoms. Zero when exhaustion happened
	// before encoding.
	Clauses, Atoms int
	// Detail carries the underlying cause (e.g. the lia error); may be nil.
	Detail error
}

func (e *BudgetError) Error() string {
	msg := fmt.Sprintf("%v (stage=%s query=%d rounds=%d conflicts=%d clauses=%d atoms=%d)",
		ErrBudget, e.Stage, e.Query, e.TheoryRounds, e.Conflicts, e.Clauses, e.Atoms)
	if e.Detail != nil {
		msg += ": " + e.Detail.Error()
	}
	return msg
}

// Unwrap makes errors.Is(err, ErrBudget) hold for budget errors.
func (e *BudgetError) Unwrap() error { return ErrBudget }

const auxPrefix = "!aux"

// Check decides f. Explicit variable bounds may be supplied (nil is fine);
// unbounded integer variables get DefaultBounds. The model covers the
// formula's variables plus all variables in bounds.
//
// Every query Check does not answer from the cache is solved from scratch,
// with or without Options.Incremental: a sat answer needs the scratch
// path's deterministic model anyway, so deciding it on the incremental
// context first would solve it twice. Verdict-only queries go through
// Decide, which is where the context pays.
//
// Check never propagates a panic and never exceeds its budgets by more
// than a polling interval: resource exhaustion (MaxConflicts, LIA budget,
// MaxTheoryRounds, a done Context) yields
// Unknown with a *BudgetError, and a panic anywhere below this boundary
// yields Unknown with an error wrapping ErrSolverPanic.
func (s *Solver) Check(f *expr.Term, bounds map[string]interval.Interval) (res Result, err error) {
	if f.Sort != expr.SortBool {
		return Result{}, fmt.Errorf("smt: Check: formula has sort %v, want Bool", f.Sort)
	}
	query := s.stats.queries.Add(1)
	// Registered before the recover defer (so it runs after err is set):
	// an aborted query's worker may have been corrupted mid-epoch, so its
	// epoch's cache writes are withdrawn.
	defer func() {
		if err != nil && (errors.Is(err, ErrBudget) || errors.Is(err, ErrSolverPanic)) {
			s.abortEpoch()
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			s.enc = nil // may be mid-mutation: discard, rebuilt lazily
			s.stats.panics.Add(1)
			s.stats.unknowns.Add(1)
			res = Result{Status: Unknown}
			err = fmt.Errorf("%w: %v", ErrSolverPanic, r)
		}
	}()
	if !s.trusted {
		switch faultinject.SolverQuery() {
		case faultinject.SolverPanic:
			panic(faultinject.PanicMsg)
		case faultinject.SolverTimeout:
			s.stats.unknowns.Add(1)
			return Result{Status: Unknown}, &BudgetError{Stage: "fault-injection", Query: query}
		case faultinject.SolverFail:
			return Result{}, faultinject.ErrInjected
		}
	}
	if c := s.opts.Cache; c != nil {
		if v, ok := c.Lookup(f, bounds, s.opts.DefaultBounds); ok {
			if v.Sat && !s.validateModel(f, bounds, v.Model) {
				// Poisoned entry: quarantine it (pull the entry) and fall
				// through to re-solve one rung down.
				c.Invalidate(f, bounds, s.opts.DefaultBounds)
				s.guard.NoteQuarantine()
				s.guard.NoteFallback()
				s.stats.cacheMisses.Add(1)
			} else {
				s.stats.cacheHits.Add(1)
				if v.Sat {
					s.stats.satAnswers.Add(1)
					return Result{Status: Sat, Model: v.Model}, nil
				}
				s.stats.unsatAnswers.Add(1)
				return Result{Status: Unsat}, nil
			}
		} else {
			s.stats.cacheMisses.Add(1)
		}
	}
	return s.solve(f, bounds, query)
}

// solve runs one scratch solve and settles its verdict: vetted (unless this
// is the trusted rung itself), counted and cached.
func (s *Solver) solve(f *expr.Term, bounds map[string]interval.Interval, query uint64) (Result, error) {
	res, err := s.check(f, bounds, query)
	if err != nil || res.Status == Unknown {
		return res, err
	}
	if !s.trusted {
		res, err = s.vet(f, bounds, res)
	}
	return s.finish(f, bounds, res, err)
}

// finish counts and caches a settled decisive verdict. Every verdict that
// reaches it has either been validated or comes from the trusted rung.
func (s *Solver) finish(f *expr.Term, bounds map[string]interval.Interval, res Result, err error) (Result, error) {
	switch res.Status {
	case Sat:
		s.stats.satAnswers.Add(1)
	case Unsat:
		s.stats.unsatAnswers.Add(1)
	}
	if err == nil && s.opts.Cache != nil {
		// Only decisive verdicts are cacheable: Unknown reflects a budget,
		// not the query.
		switch res.Status {
		case Sat:
			s.storeValue(f, bounds, cache.Value{Sat: true, Model: res.Model})
		case Unsat:
			s.storeValue(f, bounds, cache.Value{Sat: false})
		}
	}
	return res, err
}

// vet applies adversarial lie injection (test hook) and then the guard's
// verdict validation to a freshly produced scratch verdict, degrading down
// the ladder until an answer validates: scratch → cache-bypass trusted
// scratch → Unknown. The invariant: a verdict that fails validation is
// never returned.
func (s *Solver) vet(f *expr.Term, bounds map[string]interval.Interval, res Result) (Result, error) {
	res = s.applyLieResult(res)
	switch res.Status {
	case Sat:
		if s.validateModel(f, bounds, res.Model) {
			return res, nil
		}
		// Bottom rung: cache-bypass solve on the trusted scratch solver.
		s.guard.NoteFallback()
		tres, terr := s.trustedScratch().Check(f, bounds)
		if terr != nil || tres.Status == Unknown {
			s.stats.unknowns.Add(1)
			return Result{Status: Unknown}, fmt.Errorf("%w (trusted re-solve: %v)", guard.ErrVerdictRejected, terr)
		}
		if tres.Status == Sat && !s.validateModel(f, bounds, tres.Model) {
			// Even the reference solver's model fails replay: a genuine
			// solver bug. Nothing left to fall back to — degrade to Unknown
			// rather than expose a wrong answer.
			s.stats.unknowns.Add(1)
			return Result{Status: Unknown}, guard.ErrVerdictRejected
		}
		return tres, nil
	case Unsat:
		ok, tres := s.verifyUnsat(f, bounds)
		if !ok {
			s.guard.NoteFallback()
			return tres, nil
		}
	}
	return res, nil
}

// validateModel times a guard model replay into the validation wall-time
// counter.
func (s *Solver) validateModel(f *expr.Term, bounds map[string]interval.Interval, m expr.Model) bool {
	start := time.Now()
	ok := s.guard.ValidateModel(f, bounds, s.opts.DefaultBounds, m)
	s.stats.timeValidate(start)
	return ok
}

// verifyUnsat cross-checks a sampled unsat verdict against the trusted
// scratch solver. It returns ok=false with the trusted result when the
// verdict diverged.
func (s *Solver) verifyUnsat(f *expr.Term, bounds map[string]interval.Interval) (bool, Result) {
	if !s.guard.ShouldCrossCheck() {
		return true, Result{}
	}
	start := time.Now()
	defer s.stats.timeValidate(start)
	s.guard.NoteCrossCheck()
	tres, terr := s.trustedScratch().Check(f, bounds)
	if terr != nil || tres.Status == Unknown {
		return true, Result{} // inconclusive: budgets ran out re-solving
	}
	if tres.Status == Sat {
		s.guard.NoteFailure()
		return false, tres
	}
	return true, Result{}
}

// quarantineCtx discards the incremental context after a validation
// failure attributed to it, starts the guard's backoff/breaker machinery,
// and withdraws the epoch's cache writes (the lying context may have
// poisoned them before it was caught).
func (s *Solver) quarantineCtx() {
	s.ctx = nil
	s.guard.QuarantineRung()
	s.abortEpoch()
}

// trustedScratch returns the child solver the ladder's trusted rungs run
// on, creating it on first use. It shares budgets and the run context but
// has no cache, no incremental context, no fault injection, and no guard
// of its own.
func (s *Solver) trustedScratch() *Solver {
	if s.scratch == nil {
		o := s.opts
		o.Incremental = false
		o.Cache = nil
		s.scratch = NewSolver(o)
		s.scratch.trusted = true
	}
	return s.scratch
}

// applyLieDecide is the adversarial-fault hook for verdict-only answers
// from the incremental context (see faultinject.SolverLie). No-op outside
// tests.
func (s *Solver) applyLieDecide(st Status) Status {
	if st == Unknown {
		return st
	}
	if faultinject.SolverLie() == faultinject.SolverSpuriousUnsat && st == Sat {
		return Unsat
	}
	return st
}

// applyLieResult is the adversarial-fault hook for scratch-path results
// (see faultinject.SolverLie). No-op outside tests.
func (s *Solver) applyLieResult(res Result) Result {
	if res.Status == Unknown {
		return res
	}
	switch faultinject.SolverLie() {
	case faultinject.SolverFlipModel:
		if res.Status == Sat && len(res.Model) > 0 {
			names := make([]string, 0, len(res.Model))
			for name := range res.Model {
				names = append(names, name)
			}
			sort.Strings(names)
			res.Model[names[0]] ^= 1 << 40
		}
	case faultinject.SolverSpuriousUnsat:
		if res.Status == Sat {
			return Result{Status: Unsat}
		}
	}
	return res
}

// BeginEpoch marks an iteration boundary for cache-write journaling: the
// repair engine calls it before each unit of work so that an abort (panic
// or budget exhaustion) can withdraw exactly the entries that unit wrote.
func (s *Solver) BeginEpoch() {
	s.journal = s.journal[:0]
}

// abortEpoch invalidates every cache entry stored since BeginEpoch.
func (s *Solver) abortEpoch() {
	if c := s.opts.Cache; c != nil {
		for _, k := range s.journal {
			c.InvalidateKey(k)
		}
	}
	s.journal = s.journal[:0]
}

// storeValue stores a decisive verdict and journals the write.
func (s *Solver) storeValue(f *expr.Term, bounds map[string]interval.Interval, v cache.Value) {
	c := s.opts.Cache
	if c == nil {
		return
	}
	c.Store(f, bounds, s.opts.DefaultBounds, v)
	if len(s.journal) < maxJournal {
		s.journal = append(s.journal, cache.KeyOf(f, bounds, s.opts.DefaultBounds))
	}
}

// incrementalCtx returns the persistent context, creating it on first use.
// A context whose clause database outgrew maxContextClauses is retired
// first: the accumulated encodings are mostly dead (finished patches), and
// every solve pays for all of them.
func (s *Solver) incrementalCtx() *Context {
	if s.ctx != nil && s.ctx.enc.sat.NumClauses() > maxContextClauses {
		s.ctx = nil
	}
	if s.ctx == nil {
		s.ctx = newContext(s.opts, &s.stats)
	}
	return s.ctx
}

func (s *Solver) check(f *expr.Term, bounds map[string]interval.Interval, query uint64) (Result, error) {
	f, ok := pinBools(f, bounds)
	if !ok {
		return Result{Status: Unsat}, nil
	}
	f = expr.Simplify(f)

	// Purify div/rem/ite, then re-simplify so new atoms are canonical.
	pur := &purifier{}
	g := pur.purify(f)
	if len(pur.defs) > 0 {
		g = expr.And(append([]*expr.Term{g}, pur.defs...)...)
	}
	g = expr.Simplify(g)

	switch {
	case g.IsTrue():
		m := expr.Model{}
		fillModel(m, nil, bounds, s.opts.DefaultBounds)
		return Result{Status: Sat, Model: m}, nil
	case g.IsFalse():
		return Result{Status: Unsat}, nil
	}

	if s.enc == nil {
		s.enc = newEncoder()
	} else {
		s.enc.reset()
	}
	enc := s.enc
	defer func() { // scratch solves learn too; only retention is incremental-only
		st := enc.sat.Statist
		s.stats.clausesLearned.Add(st.Learned)
		s.stats.clausesDeleted.Add(st.Deleted)
	}()
	root := enc.encode(g)
	done := s.opts.Context.Done()
	stop := stopper(done)
	enc.sat.MaxConflicts, enc.sat.Stop = s.opts.MaxConflicts, stop
	if !enc.sat.AddClause(root) {
		return Result{Status: Unsat}, nil
	}
	conflictsAtStart := enc.sat.Statist.Conflicts
	budgetErr := func(stage string, round int, detail error) error {
		s.stats.unknowns.Add(1)
		return &BudgetError{
			Stage:        stage,
			Query:        query,
			TheoryRounds: round,
			Conflicts:    enc.sat.Statist.Conflicts - conflictsAtStart,
			Clauses:      enc.sat.NumClauses(),
			Atoms:        len(enc.atomVar),
			Detail:       detail,
		}
	}
	lopts := s.opts.LIA
	lopts.Stop = stop

	// Assemble bounds for all integer variables of the purified formula.
	allBounds := make(map[string]interval.Interval)
	for _, v := range expr.Vars(g) {
		if v.Sort == expr.SortInt {
			allBounds[v.Name] = s.opts.DefaultBounds
		}
	}
	for name, iv := range bounds {
		allBounds[name] = iv
	}

	var cons []lia.Constraint
	var block []sat.Lit
	for round := 0; round < s.opts.MaxTheoryRounds; round++ {
		if isDone(done) {
			return Result{Status: Unknown}, budgetErr("deadline", round, s.opts.Context.Err())
		}
		s.stats.theoryRounds.Add(1)
		satStart := time.Now()
		satStatus := enc.sat.Solve()
		s.stats.timeSat(satStart)
		switch satStatus {
		case sat.Unsat:
			return Result{Status: Unsat}, nil
		case sat.Unknown:
			stage := "sat-conflicts"
			if isDone(done) {
				stage = "deadline"
			}
			return Result{Status: Unknown}, budgetErr(stage, round, nil)
		}
		if !enc.sat.VerifyModel() {
			// The SAT tier's model does not satisfy its own clause set: a
			// CDCL bug. Degrade to Unknown; the caller's ladder decides
			// whether a lower rung can still answer.
			s.guard.NoteFailure()
			s.stats.unknowns.Add(1)
			return Result{Status: Unknown}, fmt.Errorf("%w (sat tier, query %d round %d)", guard.ErrVerdictRejected, query, round)
		}
		model := enc.sat.Model()

		// Assert only a support set of theory literals: a subset that by
		// itself forces the formula true under the skeleton model (a
		// cheap prime-implicant extraction). Smaller assertion sets mean
		// cheaper LIA calls and far more general blocking clauses.
		cons, block = cons[:0], block[:0]
		for _, sl := range enc.support(g, model) {
			c, err := enc.constraint(sl)
			if err != nil {
				return Result{}, err
			}
			cons = append(cons, c)
			block = append(block, sat.MkLit(enc.atomVar[sl.atom], sl.positive))
		}
		prob := lia.Problem{Cons: cons, Bounds: allBounds}
		liaStart := time.Now()
		res, err := lia.Solve(prob, lopts)
		s.stats.timeLIA(liaStart)
		if err != nil {
			if errors.Is(err, lia.ErrBudget) {
				stage := "lia"
				if isDone(done) {
					stage = "deadline"
				}
				return Result{Status: Unknown}, budgetErr(stage, round, err)
			}
			return Result{}, err
		}
		if res.Status == lia.Sat {
			if s.guard.Config().Paranoid && !lia.Verify(prob, res.Model) {
				// The LIA tier's assignment violates its own constraint
				// system (paranoid-mode defense in depth).
				s.guard.NoteFailure()
				s.stats.unknowns.Add(1)
				return Result{Status: Unknown}, fmt.Errorf("%w (lia tier, query %d round %d)", guard.ErrVerdictRejected, query, round)
			}
			m := expr.Model{}
			for name, v := range res.Model {
				if !strings.HasPrefix(name, auxPrefix) {
					m[name] = v
				}
			}
			for name, v := range enc.boolVar {
				if model[v] {
					m[name] = 1
				} else {
					m[name] = 0
				}
			}
			fillModel(m, g, bounds, s.opts.DefaultBounds)
			return Result{Status: Sat, Model: m}, nil
		}
		// Theory conflict: block this support set.
		if !enc.sat.AddClause(block...) {
			return Result{Status: Unsat}, nil
		}
	}
	return Result{Status: Unknown}, budgetErr("theory-rounds", s.opts.MaxTheoryRounds, nil)
}

// pinBools substitutes every Bool variable of f whose bound admits one
// truth value by that constant. Both tiers need it: the SAT tier encodes a
// Bool variable as a bare literal and the LIA tier only sees Int
// variables, so neither would honour the bound on its own (the engine pins
// every input during validation phases, bool inputs included). ok is false
// when a bound admits neither 0 nor 1, which makes f unsat. Only a bound
// that excludes 0 or 1 on a name f may hold as a Bool variable
// (expr.Term.MayHaveBoolVar) can pin anything; without one, f comes back
// with no walk.
func pinBools(f *expr.Term, bounds map[string]interval.Interval) (g *expr.Term, ok bool) {
	narrow := false
	for name, iv := range bounds {
		if (iv.Lo > 0 || iv.Hi < 1) && f.MayHaveBoolVar(name) {
			narrow = true
			break
		}
	}
	if !narrow {
		return f, true
	}
	var sub map[string]*expr.Term
	for _, v := range expr.Vars(f) {
		iv, bounded := bounds[v.Name]
		if v.Sort != expr.SortBool || !bounded || (iv.Lo <= 0 && iv.Hi >= 1) {
			continue
		}
		lo, hi := max(iv.Lo, 0), min(iv.Hi, 1)
		if lo > hi {
			return nil, false
		}
		if sub == nil {
			sub = make(map[string]*expr.Term)
		}
		sub[v.Name] = expr.Bool(lo == 1)
	}
	return expr.Subst(f, sub), true
}

// fillModel ensures every bounded variable has a value.
func fillModel(m expr.Model, g *expr.Term, bounds map[string]interval.Interval, def interval.Interval) {
	for name, iv := range bounds {
		if _, ok := m[name]; !ok {
			m[name] = clamp(0, iv)
		}
	}
	if g != nil {
		for _, v := range expr.Vars(g) {
			if _, ok := m[v.Name]; !ok && !strings.HasPrefix(v.Name, auxPrefix) {
				m[v.Name] = clamp(0, def)
			}
		}
	}
}

func clamp(pref int64, iv interval.Interval) int64 {
	if pref < iv.Lo {
		return iv.Lo
	}
	if pref > iv.Hi {
		return iv.Hi
	}
	return pref
}

// Decide returns the verdict for f without constructing a model. In
// scratch mode it is Check minus the model; in incremental mode it runs
// entirely on the persistent context, which is the fast path the repair
// loop's feasibility checks (IsSat, Valid) ride on. Decide is the only
// entry point that uses the context: Check always solves from scratch.
// Its unsat verdicts are vetted and cached like Check's; its sat verdicts
// are cached verdict-only, until a later Check adds the model.
func (s *Solver) Decide(f *expr.Term, bounds map[string]interval.Interval) (st Status, err error) {
	if !s.opts.Incremental {
		res, err := s.Check(f, bounds)
		return res.Status, err
	}
	if f.Sort != expr.SortBool {
		return Unknown, fmt.Errorf("smt: Decide: formula has sort %v, want Bool", f.Sort)
	}
	query := s.stats.queries.Add(1)
	defer func() {
		if err != nil && (errors.Is(err, ErrBudget) || errors.Is(err, ErrSolverPanic)) {
			s.abortEpoch() // see Check: abort withdraws the epoch's writes
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			s.ctx, s.enc = nil, nil // may be mid-mutation: discard, rebuilt lazily
			s.stats.panics.Add(1)
			s.stats.unknowns.Add(1)
			st = Unknown
			err = fmt.Errorf("%w: %v", ErrSolverPanic, r)
		}
	}()
	switch faultinject.SolverQuery() {
	case faultinject.SolverPanic:
		panic(faultinject.PanicMsg)
	case faultinject.SolverTimeout:
		s.stats.unknowns.Add(1)
		return Unknown, &BudgetError{Stage: "fault-injection", Query: query}
	case faultinject.SolverFail:
		return Unknown, faultinject.ErrInjected
	}
	if c := s.opts.Cache; c != nil {
		if isSat, ok := c.LookupVerdict(f, bounds, s.opts.DefaultBounds); ok {
			s.stats.cacheHits.Add(1)
			if isSat {
				s.stats.satAnswers.Add(1)
				return Sat, nil
			}
			s.stats.unsatAnswers.Add(1)
			return Unsat, nil
		}
		s.stats.cacheMisses.Add(1)
	}
	if !s.guard.RungAvailable() {
		// Quarantined or breaker-pinned: the scratch rung serves the query
		// (with full vetting and cache participation — a breaker-pinned
		// worker keeps cache benefits, it only loses the retained context).
		s.guard.NoteFallback()
		res, err := s.solve(f, bounds, query)
		return res.Status, err
	}
	st, err = s.incrementalCtx().decide(f, bounds, query)
	st = s.applyLieDecide(st)
	switch st {
	case Unknown:
		if errors.Is(err, guard.ErrVerdictRejected) {
			// The context caught its own clause database producing an
			// invalid model: quarantine it and retry the query on the
			// scratch rung.
			s.guard.NoteFailure()
			s.quarantineCtx()
			s.guard.NoteFallback()
			res, err := s.solve(f, bounds, query)
			return res.Status, err
		}
	case Sat:
		s.stats.satAnswers.Add(1)
		// Verdict-only entry: answers future Decide calls; a later Check
		// upgrades it with the model.
		s.storeValue(f, bounds, cache.Value{Sat: true})
	case Unsat:
		ok, tres := s.verifyUnsat(f, bounds)
		if !ok {
			// Spurious unsat from the context: quarantine it and serve the
			// trusted scratch verdict (with its model, which upgrades the
			// cache entry for free).
			s.quarantineCtx()
			s.guard.NoteFallback()
			res, ferr := s.finish(f, bounds, tres, nil)
			return res.Status, ferr
		}
		s.stats.unsatAnswers.Add(1)
		s.storeValue(f, bounds, cache.Value{Sat: false})
	}
	return st, err
}

// IsSat reports whether f is satisfiable.
func (s *Solver) IsSat(f *expr.Term, bounds map[string]interval.Interval) (bool, error) {
	st, err := s.Decide(f, bounds)
	if err != nil {
		return false, err
	}
	return st == Sat, nil
}

// GetModel returns a model of f, or ok=false when unsatisfiable.
func (s *Solver) GetModel(f *expr.Term, bounds map[string]interval.Interval) (expr.Model, bool, error) {
	res, err := s.Check(f, bounds)
	if err != nil {
		return nil, false, err
	}
	if res.Status != Sat {
		return nil, false, nil
	}
	return res.Model, true, nil
}

// Valid reports whether f holds for every assignment (within bounds):
// it checks that ¬f is unsatisfiable.
func (s *Solver) Valid(f *expr.Term, bounds map[string]interval.Interval) (bool, error) {
	st, err := s.Decide(expr.Not(f), bounds)
	if err != nil {
		return false, err
	}
	return st == Unsat, nil
}

// atomToConstraint translates a canonical atom (≤, =, ≠ between a linear
// combination and a constant) into a lia constraint, honoring polarity.
func atomToConstraint(atom *expr.Term, positive bool) (lia.Constraint, error) {
	op := atom.Op
	lhs, rhs := atom.Args[0], atom.Args[1]
	diff := expr.Linearize(expr.Sub(lhs, rhs))
	k := -diff.Const
	var terms []lia.Term
	for _, a := range diff.SortedAtoms() {
		vars, err := monoVars(a)
		if err != nil {
			return lia.Constraint{}, err
		}
		terms = append(terms, lia.Term{Coef: diff.Coeff[a], Vars: vars})
	}
	// Normalize op to Le/Eq/Ne under polarity.
	switch op {
	case expr.OpLt:
		op, k = expr.OpLe, k-1
	case expr.OpGt: // Σ > k ⇔ ¬(Σ ≤ k)
		op, positive = expr.OpLe, !positive
	case expr.OpGe: // Σ ≥ k ⇔ ¬(Σ ≤ k−1)
		op, k, positive = expr.OpLe, k-1, !positive
	}
	switch op {
	case expr.OpLe:
		if positive {
			return lia.Constraint{Terms: terms, K: k, Rel: lia.RelLe}, nil
		}
		// ¬(Σ ≤ k) ⇔ −Σ ≤ −k−1
		neg := make([]lia.Term, len(terms))
		for i, t := range terms {
			neg[i] = lia.Term{Coef: -t.Coef, Vars: t.Vars}
		}
		return lia.Constraint{Terms: neg, K: -k - 1, Rel: lia.RelLe}, nil
	case expr.OpEq:
		rel := lia.RelEq
		if !positive {
			rel = lia.RelNe
		}
		return lia.Constraint{Terms: terms, K: k, Rel: rel}, nil
	case expr.OpNe:
		rel := lia.RelNe
		if !positive {
			rel = lia.RelEq
		}
		return lia.Constraint{Terms: terms, K: k, Rel: rel}, nil
	}
	return lia.Constraint{}, fmt.Errorf("smt: unsupported atom operator %v", atom.Op)
}

// monoVars decomposes a multiplicative atom into its variable multiset.
func monoVars(t *expr.Term) ([]string, error) {
	switch t.Op {
	case expr.OpVar:
		return []string{t.Name}, nil
	case expr.OpMul:
		l, err := monoVars(t.Args[0])
		if err != nil {
			return nil, err
		}
		r, err := monoVars(t.Args[1])
		if err != nil {
			return nil, err
		}
		vs := append(l, r...)
		insertionSort(vs)
		return vs, nil
	case expr.OpNeg:
		return nil, fmt.Errorf("smt: unexpected negation inside monomial %v", t)
	default:
		return nil, fmt.Errorf("smt: term %v is not linearizable (op %v)", t, t.Op)
	}
}

func insertionSort(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
