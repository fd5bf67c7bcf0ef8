package core

import (
	"fmt"
	"time"

	"cpr/internal/smt"
)

// Stats are the measurements reported in the paper's tables. Each counter
// is declared once: the solver counters in the embedded smt.Stats, the
// memory-governor counters in the embedded MemStats, the engine's own
// here. Add sums two runs, SummaryLines renders the text both CLIs print,
// and the json tags name the fields in cpr-bench -json rows, cprd job
// results and cprd /stats.
type Stats struct {
	// PInit and PFinal are concrete patch-pool sizes (|P_init|, |P_final|).
	PInit  int64 `json:"p_init"`
	PFinal int64 `json:"p_final"`
	// PoolInit and PoolFinal are abstract (template) pool sizes.
	PoolInit  int `json:"pool_init"`
	PoolFinal int `json:"pool_final"`
	// PathsExplored is φE: concolic executions in the main loop.
	PathsExplored int `json:"paths_explored"`
	// PathsSkipped is φS: candidate paths pruned because no pool patch
	// could exercise them (the paper's path reduction).
	PathsSkipped int `json:"paths_skipped"`
	// InputsGenerated counts generated inputs (excluding seeds);
	// PatchLocHits/BugLocHits count generated inputs whose execution hit
	// the patch/bug location (Table 6 ratios).
	InputsGenerated int `json:"inputs_generated"`
	PatchLocHits    int `json:"patch_loc_hits"`
	BugLocHits      int `json:"bug_loc_hits"`
	// Refinements counts successful parameter-constraint refinements;
	// Removals counts discarded patches.
	Refinements int `json:"refinements"`
	Removals    int `json:"removals"`
	// TimedOut reports that the run stopped early and returned its
	// best-so-far pool: Budget.MaxDuration expired, Options.Context was
	// done, or the memory governor stopped it (MemStopped).
	TimedOut bool `json:"timed_out,omitempty"`
	// SolverUnknowns and SolverPanics count the verdicts the engine
	// degraded on: solver errors that reached the repair loop, as an
	// Unknown (budget or deadline exhausted; the path or patch is skipped)
	// or as a panic recovered at the query boundary. They are engine
	// counters, restored on resume. The embedded Unknowns and Panics are
	// the solvers' own per-query counts, summed over every solver.
	SolverUnknowns int `json:"solver_unknowns,omitempty"`
	SolverPanics   int `json:"solver_panics,omitempty"`
	// ExecPanics counts subject executions that panicked and were
	// recovered at the engine boundary (degraded to "flip skipped").
	ExecPanics int `json:"exec_panics,omitempty"`
	// FlipsDropped counts flips whose feasibility query came back Unknown
	// and that were dropped; each is also counted in PathsSkipped.
	FlipsDropped int `json:"flips_dropped,omitempty"`
	// Workers is the resolved size of the exploration worker pool.
	Workers int `json:"workers"`
	// CacheEvictions counts the verdict cache's LRU evictions; it comes
	// from the cache, not the solvers. CacheSubsumed is always zero: the
	// cache is exact memoization and answers nothing by subsumption. It
	// stays declared only because the benchmark harness still reads it.
	CacheEvictions uint64 `json:"cache_evictions,omitempty"`
	CacheSubsumed  uint64 `json:"cache_subsumed,omitempty"`
	// The solver counters, summed across every worker's solver.
	smt.Stats
	MemStats
}

// MemStats are the memory-governor counters (all zero without
// Options.Govern) and the structure-size peaks. The engine keeps them
// apart until Repair returns, so they are zero in every snapshot, and
// like the wall-time fields they enter no stats-equality fingerprint:
// they describe memory scheduling, not the repair trajectory.
type MemStats struct {
	// Barrier polls classified at each rung, and the verdict-cache shrinks
	// they caused (the evicted entries count in CacheEvictions).
	MemRungHigh     uint64 `json:"mem_rung_high,omitempty"`
	MemRungCritical uint64 `json:"mem_rung_critical,omitempty"`
	MemCacheShrinks uint64 `json:"mem_cache_shrinks,omitempty"`
	// MemStopped reports that sustained critical pressure stopped the run
	// (it implies TimedOut: the stop IS the budget-expiry path).
	MemStopped bool `json:"mem_stopped,omitempty"`
	// GovernPolls/GovernTransitions count this run's own barrier polls and
	// the rung changes they observed.
	GovernPolls       uint64 `json:"govern_polls,omitempty"`
	GovernTransitions uint64 `json:"govern_transitions,omitempty"`
	// Peaks tracked at every generation barrier whether or not a governor
	// is configured: frontier length and seen-set size.
	FrontierPeak int `json:"frontier_peak,omitempty"`
	SeenPeak     int `json:"seen_peak,omitempty"`
}

// Add returns the aggregate of two runs' stats: counters sum (the solver
// part through smt.Stats.Add), the peaks take the larger value, MemStopped
// means "either run was memory-stopped", and Workers and TimedOut keep a's
// value.
func (a Stats) Add(b Stats) Stats {
	a.PInit += b.PInit
	a.PFinal += b.PFinal
	a.PoolInit += b.PoolInit
	a.PoolFinal += b.PoolFinal
	a.PathsExplored += b.PathsExplored
	a.PathsSkipped += b.PathsSkipped
	a.InputsGenerated += b.InputsGenerated
	a.PatchLocHits += b.PatchLocHits
	a.BugLocHits += b.BugLocHits
	a.Refinements += b.Refinements
	a.Removals += b.Removals
	a.SolverUnknowns += b.SolverUnknowns
	a.SolverPanics += b.SolverPanics
	a.ExecPanics += b.ExecPanics
	a.FlipsDropped += b.FlipsDropped
	a.CacheEvictions += b.CacheEvictions
	a.CacheSubsumed += b.CacheSubsumed
	a.Stats = a.Stats.Add(b.Stats)

	m, o := &a.MemStats, b.MemStats
	m.MemRungHigh += o.MemRungHigh
	m.MemRungCritical += o.MemRungCritical
	m.MemCacheShrinks += o.MemCacheShrinks
	m.MemStopped = m.MemStopped || o.MemStopped
	m.GovernPolls += o.GovernPolls
	m.GovernTransitions += o.GovernTransitions
	m.FrontierPeak = max(m.FrontierPeak, o.FrontierPeak)
	m.SeenPeak = max(m.SeenPeak, o.SeenPeak)
	return a
}

// CacheHitRate is CacheHits / (CacheHits + CacheMisses), 0 when no query
// consulted the cache.
func (s Stats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// ReductionRatio is 1 − PFinal/PInit (the tables' Ratio column).
func (s Stats) ReductionRatio() float64 {
	if s.PInit == 0 {
		return 0
	}
	return 1 - float64(s.PFinal)/float64(s.PInit)
}

// SummaryLines renders the engine-side counters as the text lines cpr
// prints after a run and cpr-bench prints under a table (summed with Add):
// solver time, incremental-context reuse, degraded verdicts, self-healing,
// memory governance, and structure peaks. Lines whose counters are all
// zero are left out.
func (s Stats) SummaryLines() []string {
	var out []string
	line := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	if s.SatTime+s.LIATime+s.ValidateTime > 0 {
		line("solver time: SAT %s, LIA %s, validation %s",
			s.SatTime.Round(time.Millisecond), s.LIATime.Round(time.Millisecond), s.ValidateTime.Round(time.Millisecond))
	}
	if enc := s.EncodeCacheHits + s.EncodeCacheMisses; enc > 0 {
		line("incremental: enc-cache hit rate %.1f%% (%d/%d), clauses %d learned / %d kept / %d deleted",
			float64(s.EncodeCacheHits)/float64(enc)*100, s.EncodeCacheHits, enc,
			s.ClausesLearned, s.ClausesKept, s.ClausesDeleted)
	}
	if s.SolverUnknowns+s.SolverPanics+s.ExecPanics+s.FlipsDropped > 0 {
		line("degraded: solver unknowns %d, solver panics %d, exec panics %d, flips dropped %d",
			s.SolverUnknowns, s.SolverPanics, s.ExecPanics, s.FlipsDropped)
	}
	if s.Validations+s.ValidationFailures+s.Quarantines+s.FallbackSolves+s.RebuildRetries+s.BreakerTrips > 0 {
		line("self-heal: %d validations (%d failed), %d quarantines, %d fallback solves, %d rebuilds, %d breaker trips",
			s.Validations, s.ValidationFailures, s.Quarantines, s.FallbackSolves, s.RebuildRetries, s.BreakerTrips)
	}
	if s.GovernPolls > 0 {
		line("memory: %d governor polls (%d high / %d critical), cache shrinks %d",
			s.GovernPolls, s.MemRungHigh, s.MemRungCritical, s.MemCacheShrinks)
	}
	if s.FrontierPeak > 0 {
		line("peaks: frontier %d items, seen set %d entries", s.FrontierPeak, s.SeenPeak)
	}
	return out
}
