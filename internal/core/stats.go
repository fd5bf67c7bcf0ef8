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
	// TimedOut reports that the wall-clock budget (Budget.MaxDuration /
	// Budget.Deadline) or the cancellation token fired and the run
	// returned its best-so-far pool early.
	TimedOut bool `json:"timed_out,omitempty"`
	// SolverUnknowns and SolverPanics count the verdicts the engine
	// degraded on: solver errors that reached the repair loop, as an
	// Unknown (budget or deadline exhausted; the path or patch is skipped)
	// or as a panic recovered at the query boundary. They are engine
	// counters, restored on resume. The embedded Unknowns and Panics are
	// the solvers' own per-query counts, summed over every solver, retry
	// solvers included.
	SolverUnknowns int `json:"solver_unknowns,omitempty"`
	SolverPanics   int `json:"solver_panics,omitempty"`
	// ExecPanics counts subject executions that panicked and were
	// recovered at the engine boundary (degraded to "flip skipped").
	ExecPanics int `json:"exec_panics,omitempty"`
	// FlipsRequeued counts flips whose feasibility query came back
	// Unknown and that were re-queued once at a reduced solver budget;
	// FlipsDropped counts those still Unknown on the retry (dropped).
	FlipsRequeued int `json:"flips_requeued,omitempty"`
	FlipsDropped  int `json:"flips_dropped,omitempty"`
	// Workers is the resolved size of the exploration worker pool.
	Workers int `json:"workers"`
	// CacheSubsumed is the subset of the verdict cache's hits answered by
	// unsat-core subsumption rather than an exact entry, and
	// CacheEvictions counts its LRU evictions. Both come from the cache,
	// not the solvers.
	CacheEvictions uint64 `json:"cache_evictions,omitempty"`
	CacheSubsumed  uint64 `json:"cache_subsumed,omitempty"`
	// The solver counters, summed across every worker's solvers (retry
	// solvers included).
	smt.Stats
	MemStats
}

// MemStats are the memory-governor counters (all zero without
// Options.Govern) and the structure-size peaks. Like Workers and the
// wall-time fields, none of them enter snapshot codecs or stats-equality
// fingerprints: they describe memory scheduling, not the repair
// trajectory.
type MemStats struct {
	// Barrier polls classified at each rung, verdict-cache shrinks (count
	// and bytes freed), and incremental solver contexts retired (count and
	// approximate bytes).
	MemRungSoft           uint64 `json:"mem_rung_soft,omitempty"`
	MemRungHigh           uint64 `json:"mem_rung_high,omitempty"`
	MemRungCritical       uint64 `json:"mem_rung_critical,omitempty"`
	MemCacheShrinks       uint64 `json:"mem_cache_shrinks,omitempty"`
	MemCacheShrinkBytes   uint64 `json:"mem_cache_shrink_bytes,omitempty"`
	MemContextRetires     uint64 `json:"mem_context_retires,omitempty"`
	MemContextRetireBytes uint64 `json:"mem_context_retire_bytes,omitempty"`
	// MemStopped reports that sustained critical pressure stopped the run
	// (it implies TimedOut: the stop IS the budget-expiry path).
	MemStopped bool `json:"mem_stopped,omitempty"`
	// GovernPolls/GovernTransitions count this run's own barrier polls and
	// the rung changes they observed.
	GovernPolls       uint64 `json:"govern_polls,omitempty"`
	GovernTransitions uint64 `json:"govern_transitions,omitempty"`
	// Peaks tracked at every generation barrier whether or not a governor
	// is configured: frontier length and approximate bytes, seen-set size
	// and bytes, and pool bytes.
	FrontierPeak      int    `json:"frontier_peak,omitempty"`
	SeenPeak          int    `json:"seen_peak,omitempty"`
	FrontierPeakBytes uint64 `json:"frontier_peak_bytes,omitempty"`
	SeenPeakBytes     uint64 `json:"seen_peak_bytes,omitempty"`
	PoolPeakBytes     uint64 `json:"pool_peak_bytes,omitempty"`
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
	a.FlipsRequeued += b.FlipsRequeued
	a.FlipsDropped += b.FlipsDropped
	a.CacheEvictions += b.CacheEvictions
	a.CacheSubsumed += b.CacheSubsumed
	a.Stats = a.Stats.Add(b.Stats)

	m, o := &a.MemStats, b.MemStats
	m.MemRungSoft += o.MemRungSoft
	m.MemRungHigh += o.MemRungHigh
	m.MemRungCritical += o.MemRungCritical
	m.MemCacheShrinks += o.MemCacheShrinks
	m.MemCacheShrinkBytes += o.MemCacheShrinkBytes
	m.MemContextRetires += o.MemContextRetires
	m.MemContextRetireBytes += o.MemContextRetireBytes
	m.MemStopped = m.MemStopped || o.MemStopped
	m.GovernPolls += o.GovernPolls
	m.GovernTransitions += o.GovernTransitions
	m.FrontierPeak = max(m.FrontierPeak, o.FrontierPeak)
	m.SeenPeak = max(m.SeenPeak, o.SeenPeak)
	m.FrontierPeakBytes = max(m.FrontierPeakBytes, o.FrontierPeakBytes)
	m.SeenPeakBytes = max(m.SeenPeakBytes, o.SeenPeakBytes)
	m.PoolPeakBytes = max(m.PoolPeakBytes, o.PoolPeakBytes)
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
		meanCore := 0.0
		if s.AssumptionCores > 0 {
			meanCore = float64(s.AssumptionCoreLits) / float64(s.AssumptionCores)
		}
		line("incremental: enc-cache hit rate %.1f%% (%d/%d), clauses %d learned / %d kept / %d deleted, %d cores (mean %.1f conjuncts)",
			float64(s.EncodeCacheHits)/float64(enc)*100, s.EncodeCacheHits, enc,
			s.ClausesLearned, s.ClausesKept, s.ClausesDeleted, s.AssumptionCores, meanCore)
	}
	if s.SolverUnknowns+s.SolverPanics+s.ExecPanics+s.FlipsRequeued+s.FlipsDropped > 0 {
		line("degraded: solver unknowns %d, solver panics %d, exec panics %d, flips requeued %d / dropped %d",
			s.SolverUnknowns, s.SolverPanics, s.ExecPanics, s.FlipsRequeued, s.FlipsDropped)
	}
	if s.Validations+s.ValidationFailures+s.Quarantines+s.FallbackSolves+s.RebuildRetries+s.BreakerTrips > 0 {
		line("self-heal: %d validations (%d failed), %d quarantines, %d fallback solves, %d rebuilds, %d breaker trips",
			s.Validations, s.ValidationFailures, s.Quarantines, s.FallbackSolves, s.RebuildRetries, s.BreakerTrips)
	}
	if s.GovernPolls > 0 {
		line("memory: %d governor polls (%d soft / %d high / %d critical), cache shrinks %d (%d B freed), contexts retired %d (%d B)",
			s.GovernPolls, s.MemRungSoft, s.MemRungHigh, s.MemRungCritical,
			s.MemCacheShrinks, s.MemCacheShrinkBytes, s.MemContextRetires, s.MemContextRetireBytes)
	}
	if s.FrontierPeak > 0 {
		line("peaks: frontier %d items (%d B), seen set %d entries (%d B), pool %d B",
			s.FrontierPeak, s.FrontierPeakBytes, s.SeenPeak, s.SeenPeakBytes, s.PoolPeakBytes)
	}
	return out
}
