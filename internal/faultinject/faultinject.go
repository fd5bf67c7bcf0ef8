// Package faultinject provides deterministic fault-injection hooks for the
// repair system's resilience tests. Production code calls the hook
// functions at its fault points — solver query entry (smt), subject
// execution entry (interp, concolic), flip ranking (core), generation
// barriers (core, cegis), and job dispatch (serve) — and the
// hooks are no-ops unless a test activates a Plan. With an active plan the
// hooks fire deterministically (every Nth call, perturbations derived from
// a fixed seed), so a faulted repair run is exactly reproducible.
//
// The package exists to prove the engine's failure discipline: a solver
// timeout, a solver panic, or an interpreter panic must degrade to
// "query/flip skipped" with the loss counted in Stats, never abort the
// run, and never remove patches the unfaulted run would have kept.
package faultinject

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
)

// Fault identifies an injected fault class.
type Fault uint8

// Fault classes for Plan.SolverKind.
const (
	// None injects nothing.
	None Fault = iota
	// SolverFail makes the solver return an injected hard error.
	SolverFail
	// SolverTimeout makes the solver return Unknown with a budget error,
	// as if the query's deadline or conflict budget had been exhausted.
	SolverTimeout
	// SolverPanic makes the solver panic inside a query; the smt layer's
	// recover boundary must turn it into an Unknown answer.
	SolverPanic
)

// Adversarial fault classes for Plan.LieKind: instead of failing loudly,
// the solver *lies*. The smt layer applies these to freshly produced
// verdicts (before guard validation), so the tests prove the validation
// layer catches a wrong answer no matter which tier produced it.
const (
	// SolverFlipModel corrupts a sat model by flipping a high bit of one
	// variable's value, pushing it outside any realistic domain.
	SolverFlipModel Fault = iota + 16
	// SolverSpuriousUnsat turns a sat verdict into unsat — the most
	// dangerous lie, since an accepted spurious unsat silently removes
	// feasible paths and patches.
	SolverSpuriousUnsat
)

// PanicMsg is the value injected panics carry, so recover sites (and
// humans reading logs) can tell an injected panic from a real one.
const PanicMsg = "faultinject: injected panic"

// ErrInjected is the error returned for SolverFail faults.
var ErrInjected = errors.New("faultinject: injected solver failure")

// Plan configures which hooks fire and how often. Counters advance on
// every hook call while the plan is active, so "every Nth call" is
// deterministic for a deterministic workload.
type Plan struct {
	// SolverEvery makes every Nth solver query fault with SolverKind
	// (0 disables solver faults).
	SolverEvery int
	// SolverKind selects the solver fault class.
	SolverKind Fault
	// ExecPanicEvery makes every Nth subject execution (concrete or
	// concolic) panic (0 disables).
	ExecPanicEvery int
	// RankPerturb perturbs flip-ranking scores by a deterministic value in
	// [-RankPerturb, +RankPerturb] derived from Seed and the flip's path
	// key (0 disables).
	RankPerturb int
	// Seed drives the rank perturbation.
	Seed uint64
	// LieEvery makes every Nth produced solver verdict lie with LieKind
	// (0 disables adversarial faults). Unlike SolverEvery faults, which
	// fail loudly at query entry, lies corrupt an otherwise successful
	// answer — they exist to exercise the guard layer's validation.
	LieEvery int
	// LieKind selects the adversarial fault class: SolverFlipModel or
	// SolverSpuriousUnsat.
	LieKind Fault
	// CrashEvery fires Crash at every Nth generation barrier (0 disables).
	CrashEvery int
	// CrashAt fires Crash at exactly the Nth generation barrier, once
	// (0 disables). CrashAt composes with CrashEvery; either may trigger.
	CrashAt int
	// Crash is invoked when a barrier matches CrashEvery/CrashAt. Tests
	// install either a panic with PanicMsg (in-process crash, recoverable)
	// or a real self-SIGKILL (subprocess harness). A nil Crash disables
	// crash injection regardless of the counters.
	Crash func()
	// JobPanicEvery makes every Nth dispatched service job attempt panic
	// at the daemon's runner boundary (0 disables). Unlike ExecPanicEvery,
	// which the engine recovers internally and degrades to a skipped flip,
	// a job-level panic escapes the whole engine — it exists to exercise
	// the daemon's retry/backoff/dead-letter machinery (internal/serve).
	JobPanicEvery int
	// JobPanicMatch restricts job-level panics to attempts whose job key
	// contains the substring (empty matches every job). With
	// JobPanicEvery=1 and a key match, the job is a poison job: every
	// attempt panics and the daemon must dead-letter it after its bounded
	// retries.
	JobPanicMatch string
	// MemRungEvery makes every Nth memory-governor poll report the forced
	// rung MemRung regardless of real heap usage (0 disables). Because the
	// governor polls at generation barriers — which are deterministic for a
	// deterministic workload — this addresses individual barriers by
	// ordinal, so a test can force exactly the high/critical rung actions
	// and then diff the run against an unpressured one.
	MemRungEvery int
	// MemRung is the rung value reported when MemRungEvery matches:
	// 1 = high, 2 = critical (package govern's Rung values).
	MemRung int
	// MemSpikeBytes inflates every MemSpikeEvery'th heap sample seen by the
	// governor by this many synthetic bytes (0 disables). Unlike MemRung
	// forcing, which bypasses the watermark comparison, a spike exercises
	// the real ladder arithmetic against configured watermarks.
	MemSpikeBytes uint64
	MemSpikeEvery int

	mu           sync.Mutex
	solverCalls  int
	execRuns     int
	lieCalls     int
	barrierCalls int
	jobStarts    int
	memPolls     int
	memSamples   int
}

var active atomic.Pointer[Plan]

// Activate installs the plan; hooks fire until Deactivate. Tests using it
// must not run in parallel with other repair tests (the plan is global).
func Activate(p *Plan) { active.Store(p) }

// Deactivate removes any active plan; all hooks become no-ops again.
func Deactivate() { active.Store(nil) }

// SolverQuery is called by the smt layer at query entry; it returns the
// fault to inject for this query (None almost always).
func SolverQuery() Fault {
	p := active.Load()
	if p == nil || p.SolverEvery <= 0 {
		return None
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.solverCalls++
	if p.solverCalls%p.SolverEvery == 0 {
		return p.SolverKind
	}
	return None
}

// SolverLie is called by the smt layer whenever an untrusted tier has
// produced a decisive verdict; it returns the adversarial corruption to
// apply before the verdict reaches validation (None almost always). Fault
// classes that do not fit the verdict's shape (e.g. SolverFlipModel on an
// unsat answer) are applied as no-ops by the caller; the counter advances
// regardless, keeping the schedule deterministic.
func SolverLie() Fault {
	p := active.Load()
	if p == nil || p.LieEvery <= 0 {
		return None
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lieCalls++
	if p.lieCalls%p.LieEvery == 0 {
		return p.LieKind
	}
	return None
}

// ExecPanic is called by the interpreters at subject-execution entry; a
// true return tells the caller to panic(PanicMsg).
func ExecPanic() bool {
	p := active.Load()
	if p == nil || p.ExecPanicEvery <= 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.execRuns++
	return p.execRuns%p.ExecPanicEvery == 0
}

// CrashPoint is called by the engines at every generation barrier,
// immediately after any checkpoint for that barrier has been committed.
// When the active plan's crash schedule matches, the plan's Crash function
// runs — it is expected not to return (panic or SIGKILL). The barrier
// counter advances on every call, so crash points are addressable by
// ordinal across a deterministic run.
func CrashPoint() {
	p := active.Load()
	if p == nil || p.Crash == nil || (p.CrashEvery <= 0 && p.CrashAt <= 0) {
		return
	}
	p.mu.Lock()
	p.barrierCalls++
	n := p.barrierCalls
	p.mu.Unlock()
	if (p.CrashEvery > 0 && n%p.CrashEvery == 0) || (p.CrashAt > 0 && n == p.CrashAt) {
		p.Crash()
	}
}

// JobStart is called by the daemon's scheduler (internal/serve) when a job
// attempt begins; a true return tells the runner to panic(PanicMsg) at the
// job boundary. Only attempts whose key matches JobPanicMatch advance the
// counter, so "every Nth attempt of the poison job" is deterministic even
// when healthy jobs interleave.
func JobStart(key string) bool {
	p := active.Load()
	if p == nil || p.JobPanicEvery <= 0 {
		return false
	}
	if p.JobPanicMatch != "" && !strings.Contains(key, p.JobPanicMatch) {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.jobStarts++
	return p.jobStarts%p.JobPanicEvery == 0
}

// MemRung is called by the memory governor on every poll; it returns the
// forced watermark rung for this poll (0 almost always, meaning "use the
// real heap figures"). The counter advances on every call, so forced
// rungs are addressable by poll ordinal across a deterministic run.
func MemRung() (rung int, forced bool) {
	p := active.Load()
	if p == nil || p.MemRungEvery <= 0 {
		return 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.memPolls++
	if p.memPolls%p.MemRungEvery == 0 {
		return p.MemRung, true
	}
	return 0, false
}

// MemSpike is called by the memory governor after sampling the real heap
// size; it returns synthetic bytes to add to the sample (0 almost always).
func MemSpike() uint64 {
	p := active.Load()
	if p == nil || p.MemSpikeEvery <= 0 || p.MemSpikeBytes == 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.memSamples++
	if p.memSamples%p.MemSpikeEvery == 0 {
		return p.MemSpikeBytes
	}
	return 0
}

// RankDelta is called by the explorer when scoring a flip; it returns a
// deterministic perturbation in [-RankPerturb, +RankPerturb] keyed by the
// flip's path fingerprint (0 when inactive).
func RankDelta(key uint64) int {
	p := active.Load()
	if p == nil || p.RankPerturb <= 0 {
		return 0
	}
	x := key ^ p.Seed
	// xorshift64* mix for a stable, well-spread hash of the key.
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	x *= 0x2545f4914f6cdd1d
	span := uint64(2*p.RankPerturb + 1)
	return int(x%span) - p.RankPerturb
}
