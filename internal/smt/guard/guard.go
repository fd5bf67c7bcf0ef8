// Package guard implements the solver runtime's self-healing layer: the
// repair loop is only as sound as the verdicts the solver stack returns,
// and after incremental contexts, retained clause databases, and a shared
// verdict cache entered the picture, a single wrong fast-path answer could
// silently corrupt every later patch-pool reduction. The guard makes that
// failure mode degrade service instead of correctness.
//
// Three mechanisms, wrapped around every solver tier by package smt:
//
//   - Verdict validation. Every sat model is replayed against the original
//     (pre-Tseitin, pre-purification) term and against the query's variable
//     domains (ValidateModel); sampled unsat verdicts are cross-checked by
//     an independent scratch solve (ShouldCrossCheck gates the sampling —
//     configurable rate, 100% in paranoid mode).
//   - Quarantine and a graceful-degradation ladder. On any divergence the
//     offending layer is quarantined and the query is transparently retried
//     one rung down: incremental context → scratch solve → cache-bypass
//     scratch solve. A quarantined incremental context is rebuilt only
//     after a bounded exponential backoff (a cancel.Token deadline), and
//     repeated failures trip a per-worker circuit breaker that pins that
//     worker to scratch mode for the rest of the run.
//   - Health accounting. Counters() snapshots validations, failures,
//     quarantines, fallback solves, rebuild retries, and breaker state for
//     the smt → core/cegis → bench stats pipeline.
//
// The invariant the callers rely on: a verdict that fails validation is
// never observed by the repair engine — it is either replaced by a
// lower-rung verdict that validates, or degraded to Unknown.
package guard

import (
	"errors"
	"os"
	"sync/atomic"
	"time"

	"cpr/internal/cancel"
	"cpr/internal/expr"
	"cpr/internal/interval"
)

// ErrVerdictRejected is returned by the smt layer when every rung's answer
// failed validation: the query degrades to Unknown rather than expose a
// verdict known to be wrong.
var ErrVerdictRejected = errors.New("guard: verdict failed validation on every rung")

// Config tunes a Guard. The zero value gets production defaults; tests and
// the -paranoid CLI flag force 100% validation via Paranoid.
type Config struct {
	// CrossCheckEvery samples unsat verdicts for independent re-solving:
	// every Nth unsat answer per guard is cross-checked against a scratch
	// solve (1 = every answer; 0 = the default of 16). Model validation is
	// not sampled — it is cheap and runs on every sat answer.
	CrossCheckEvery int
	// Paranoid forces CrossCheckEvery to 1. The CPR_PARANOID environment
	// variable (any value except "" and "0") forces it process-wide, which
	// is how the CI paranoid job runs the whole test suite at 100%
	// validation.
	Paranoid bool
	// BreakerThreshold is the number of incremental-rung validation
	// failures that trips the per-worker circuit breaker (default 3).
	BreakerThreshold int
	// RebuildBackoff is the quarantine duration before the first context
	// rebuild; it doubles per further failure up to RebuildBackoffMax
	// (defaults 25ms and 2s).
	RebuildBackoff    time.Duration
	RebuildBackoffMax time.Duration
}

func (c Config) withDefaults() Config {
	if c.CrossCheckEvery == 0 {
		c.CrossCheckEvery = 16
	}
	if c.Paranoid || ParanoidEnv() {
		c.Paranoid = true
		c.CrossCheckEvery = 1
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.RebuildBackoff == 0 {
		c.RebuildBackoff = 25 * time.Millisecond
	}
	if c.RebuildBackoffMax == 0 {
		c.RebuildBackoffMax = 2 * time.Second
	}
	return c
}

// ParanoidEnv reports whether the CPR_PARANOID environment variable forces
// 100% validation for this process.
func ParanoidEnv() bool {
	v := os.Getenv("CPR_PARANOID")
	return v != "" && v != "0"
}

// Counters is a snapshot of a guard's health accounting.
type Counters struct {
	// Validations counts verdict validations run (model replays plus unsat
	// cross-checks); ValidationFailures counts verdicts they rejected.
	Validations, ValidationFailures uint64
	// Quarantines counts layers taken out of service after a divergence
	// (incremental contexts and poisoned cache entries alike).
	Quarantines uint64
	// FallbackSolves counts queries served one rung below their natural
	// tier because that tier was quarantined, breaker-pinned, or caught
	// lying on this very query.
	FallbackSolves uint64
	// RebuildRetries counts quarantined contexts readmitted after their
	// backoff deadline passed.
	RebuildRetries uint64
	// BreakerTrips counts circuit-breaker trips; BreakerOpen reports the
	// breaker's current state (a tripped worker stays in scratch mode for
	// the rest of the run).
	BreakerTrips uint64
	BreakerOpen  bool
}

// Guard is one solver's validation and self-healing state. Each worker
// owns one guard (alongside its solver), so quarantine and breaker state
// are per-worker; Counters may be read from any goroutine at any time,
// while the state-machine methods follow the owning solver's
// single-query-at-a-time discipline.
type Guard struct {
	cfg Config

	validations atomic.Uint64
	failures    atomic.Uint64
	quarantines atomic.Uint64
	fallbacks   atomic.Uint64
	rebuilds    atomic.Uint64
	trips       atomic.Uint64
	breakerOpen atomic.Bool

	unsatSeen atomic.Uint64 // cross-check sampling counter

	// Quarantine state for the incremental rung; only the owning solver's
	// query goroutine touches these.
	failStreak int
	backoff    *cancel.Token
}

// New returns a guard with the given configuration.
func New(cfg Config) *Guard {
	return &Guard{cfg: cfg.withDefaults()}
}

// Config returns the effective (defaulted) configuration.
func (g *Guard) Config() Config { return g.cfg }

// Counters returns a snapshot of the health accounting; safe to call
// concurrently with queries on the owning solver.
func (g *Guard) Counters() Counters {
	return Counters{
		Validations:        g.validations.Load(),
		ValidationFailures: g.failures.Load(),
		Quarantines:        g.quarantines.Load(),
		FallbackSolves:     g.fallbacks.Load(),
		RebuildRetries:     g.rebuilds.Load(),
		BreakerTrips:       g.trips.Load(),
		BreakerOpen:        g.breakerOpen.Load(),
	}
}

// ShouldCrossCheck reports whether this unsat verdict falls in the
// cross-check sample. The first unsat answer is always sampled, so even a
// short run exercises the cross-check path at least once.
func (g *Guard) ShouldCrossCheck() bool {
	n := g.unsatSeen.Add(1)
	return n%uint64(g.cfg.CrossCheckEvery) == 1%uint64(g.cfg.CrossCheckEvery)
}

// ValidateModel replays a sat model against the original term and the
// query's variable domains: every model value must lie within its domain
// (def for variables without explicit bounds), and the term must evaluate
// to true. A definite violation counts as a validation failure; an
// evaluation error (e.g. division by zero inside the original term, where
// the solver reasons about the purified form) is inconclusive and accepted.
func (g *Guard) ValidateModel(f *expr.Term, bounds map[string]interval.Interval, def interval.Interval, model expr.Model) bool {
	g.validations.Add(1)
	for name, v := range model {
		iv, ok := bounds[name]
		if !ok {
			iv = def
		}
		if v < iv.Lo || v > iv.Hi {
			g.failures.Add(1)
			return false
		}
	}
	ok, err := expr.EvalBool(f, model)
	if err != nil {
		return true // inconclusive: cannot prove the model wrong
	}
	if !ok {
		g.failures.Add(1)
		return false
	}
	return true
}

// NoteCrossCheck records an unsat cross-check that ran; NoteFailure
// records a validation failure detected outside ValidateModel (a
// cross-check divergence).
func (g *Guard) NoteCrossCheck() { g.validations.Add(1) }

// CrossCheckCursor returns the unsat sampling counter behind
// ShouldCrossCheck. Checkpoints persist it so a resumed run continues the
// sampling schedule where the killed run stopped — otherwise the restarted
// counter re-fires the always-sampled first cross-check and the run's
// validation stats drift off the uninterrupted run's by one.
func (g *Guard) CrossCheckCursor() uint64 { return g.unsatSeen.Load() }

// SetCrossCheckCursor restores a cursor captured by CrossCheckCursor.
func (g *Guard) SetCrossCheckCursor(n uint64) { g.unsatSeen.Store(n) }

// NoteFailure records a validation failure detected by a cross-check.
func (g *Guard) NoteFailure() { g.failures.Add(1) }

// NoteQuarantine records a layer taken out of service (a poisoned cache
// entry dropped, or an incremental context discarded via QuarantineRung).
func (g *Guard) NoteQuarantine() { g.quarantines.Add(1) }

// NoteFallback records a query served one rung below its natural tier.
func (g *Guard) NoteFallback() { g.fallbacks.Add(1) }

// RungAvailable reports whether the incremental rung may serve the next
// query. While quarantined it returns false until the backoff deadline
// passes, then readmits the rung (counting a rebuild retry); once the
// breaker has tripped it returns false forever.
func (g *Guard) RungAvailable() bool {
	if g.breakerOpen.Load() {
		return false
	}
	if g.backoff != nil {
		if !g.backoff.Expired() {
			return false
		}
		g.backoff = nil
		g.rebuilds.Add(1)
	}
	return true
}

// QuarantineRung takes the incremental rung out of service after a
// validation failure attributed to it. The rung stays down for an
// exponentially growing, capped backoff (so a rebuilt context that lies
// again is readmitted ever more reluctantly); at BreakerThreshold failures
// the circuit breaker trips and the rung is pinned off for the rest of the
// run. Failures are cumulative, not consecutive: a layer that keeps
// producing wrong answers — however sparsely — does not deserve unbounded
// retries.
func (g *Guard) QuarantineRung() {
	g.quarantines.Add(1)
	g.failStreak++
	if g.failStreak >= g.cfg.BreakerThreshold {
		g.backoff = nil
		if !g.breakerOpen.Swap(true) {
			g.trips.Add(1)
		}
		return
	}
	d := g.cfg.RebuildBackoff << (g.failStreak - 1)
	if d > g.cfg.RebuildBackoffMax {
		d = g.cfg.RebuildBackoffMax
	}
	g.backoff = cancel.WithTimeout(nil, d)
}

// BreakerOpen reports whether the circuit breaker has tripped.
func (g *Guard) BreakerOpen() bool { return g.breakerOpen.Load() }
