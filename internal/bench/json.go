package bench

import (
	"bytes"
	"encoding/json"
	"io"

	"cpr/internal/journal"
)

// JSONRow is the machine-readable form of one SubjectResult, written by
// cpr-bench -json: per-subject wall time, exploration effort, solver
// traffic, and verdict-cache effectiveness.
type JSONRow struct {
	Subject string `json:"subject"`
	Suite   string `json:"suite"`
	Status  string `json:"status"`
	Error   string `json:"error,omitempty"`
	NA      bool   `json:"na,omitempty"`

	WallMS     float64 `json:"wall_ms"`
	Iterations int     `json:"iterations"` // φE: main-loop concolic executions
	Skipped    int     `json:"paths_skipped"`

	PInit  int64 `json:"p_init"`
	PFinal int64 `json:"p_final"`
	Rank   int   `json:"rank,omitempty"` // 0 = developer patch not covered

	Workers       int     `json:"workers"`
	SolverQueries uint64  `json:"solver_queries"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	CacheHitRate  float64 `json:"cache_hit_rate"`

	// Incremental-solver counters; omitted when the run used scratch mode.
	EncCacheHits       uint64 `json:"enc_cache_hits,omitempty"`
	EncCacheMisses     uint64 `json:"enc_cache_misses,omitempty"`
	ClausesLearned     uint64 `json:"clauses_learned,omitempty"`
	ClausesKept        uint64 `json:"clauses_kept,omitempty"`
	ClausesDeleted     uint64 `json:"clauses_deleted,omitempty"`
	AssumptionCores    uint64 `json:"assumption_cores,omitempty"`
	AssumptionCoreLits uint64 `json:"assumption_core_lits,omitempty"`

	// Self-healing health counters; omitted when zero (a healthy run with
	// default sampling may validate without ever failing or falling back).
	Validations        uint64 `json:"validations,omitempty"`
	ValidationFailures uint64 `json:"validation_failures,omitempty"`
	Quarantines        uint64 `json:"quarantines,omitempty"`
	FallbackSolves     uint64 `json:"fallback_solves,omitempty"`
	RebuildRetries     uint64 `json:"rebuild_retries,omitempty"`
	BreakerTrips       uint64 `json:"breaker_trips,omitempty"`

	// Solver wall-time breakdown (milliseconds): CDCL search, LIA theory
	// work, and verdict validation. The remainder of wall_ms is
	// exploration, synthesis, and bookkeeping.
	SatMS      float64 `json:"sat_ms"`
	LIAMS      float64 `json:"lia_ms"`
	ValidateMS float64 `json:"validate_ms"`

	// Memory-governance counters; omitted on ungoverned runs. These
	// describe scheduling, not results: equality comparisons (e.g. CI's
	// constrained-vs-unconstrained differential) must ignore them.
	GovernPolls          uint64 `json:"govern_polls,omitempty"`
	MemRungSoft          uint64 `json:"mem_rung_soft,omitempty"`
	MemRungHigh          uint64 `json:"mem_rung_high,omitempty"`
	MemRungCritical      uint64 `json:"mem_rung_critical,omitempty"`
	MemCacheShrinks      uint64 `json:"mem_cache_shrinks,omitempty"`
	MemCacheShrinkBytes  uint64 `json:"mem_cache_shrink_bytes,omitempty"`
	MemContextRetires    uint64 `json:"mem_context_retires,omitempty"`
	MemSpills            uint64 `json:"mem_spills,omitempty"`
	MemSpilledItems      uint64 `json:"mem_spilled_items,omitempty"`
	MemReloads           uint64 `json:"mem_reloads,omitempty"`
	MemSpillLoadFailures uint64 `json:"mem_spill_load_failures,omitempty"`
	MemStopped           bool   `json:"mem_stopped,omitempty"`

	// Peak structure sizes, tracked on every run (governed or not);
	// informational, excluded from equality comparisons with the rest of
	// this block.
	FrontierPeak      int    `json:"frontier_peak,omitempty"`
	SeenPeak          int    `json:"seen_peak,omitempty"`
	FrontierPeakBytes uint64 `json:"frontier_peak_bytes,omitempty"`
	SeenPeakBytes     uint64 `json:"seen_peak_bytes,omitempty"`
	PoolPeakBytes     uint64 `json:"pool_peak_bytes,omitempty"`
}

// JSONRows converts measured rows for serialization.
func JSONRows(rows []SubjectResult) []JSONRow {
	out := make([]JSONRow, 0, len(rows))
	for _, r := range rows {
		row := JSONRow{
			Subject: r.Subject.ID(),
			Suite:   r.Subject.Suite,
			Status:  r.Status,
			NA:      r.NA,
		}
		if r.Err != nil {
			row.Error = r.Err.Error()
		}
		if !r.NA && r.Err == nil {
			row.WallMS = float64(r.Wall.Microseconds()) / 1e3
			row.Iterations = r.CPR.PathsExplored
			row.Skipped = r.CPR.PathsSkipped
			row.PInit = r.CPR.PInit
			row.PFinal = r.CPR.PFinal
			if r.RankFound {
				row.Rank = r.Rank
			}
			row.Workers = r.CPR.Workers
			row.SolverQueries = r.CPR.SolverQueries
			row.CacheHits = r.CPR.CacheHits
			row.CacheMisses = r.CPR.CacheMisses
			row.CacheHitRate = r.CPR.CacheHitRate()
			row.EncCacheHits = r.CPR.EncodeCacheHits
			row.EncCacheMisses = r.CPR.EncodeCacheMisses
			row.ClausesLearned = r.CPR.ClausesLearned
			row.ClausesKept = r.CPR.ClausesKept
			row.ClausesDeleted = r.CPR.ClausesDeleted
			row.AssumptionCores = r.CPR.AssumptionCores
			row.AssumptionCoreLits = r.CPR.AssumptionCoreLits
			row.Validations = r.CPR.Validations
			row.ValidationFailures = r.CPR.ValidationFailures
			row.Quarantines = r.CPR.Quarantines
			row.FallbackSolves = r.CPR.FallbackSolves
			row.RebuildRetries = r.CPR.RebuildRetries
			row.BreakerTrips = r.CPR.BreakerTrips
			row.SatMS = float64(r.CPR.SatTime.Microseconds()) / 1e3
			row.LIAMS = float64(r.CPR.LIATime.Microseconds()) / 1e3
			row.ValidateMS = float64(r.CPR.ValidateTime.Microseconds()) / 1e3
			row.GovernPolls = r.CPR.GovernPolls
			row.MemRungSoft = r.CPR.MemRungSoft
			row.MemRungHigh = r.CPR.MemRungHigh
			row.MemRungCritical = r.CPR.MemRungCritical
			row.MemCacheShrinks = r.CPR.MemCacheShrinks
			row.MemCacheShrinkBytes = r.CPR.MemCacheShrinkBytes
			row.MemContextRetires = r.CPR.MemContextRetires
			row.MemSpills = r.CPR.MemSpills
			row.MemSpilledItems = r.CPR.MemSpilledItems
			row.MemReloads = r.CPR.MemReloads
			row.MemSpillLoadFailures = r.CPR.MemSpillLoadFailures
			row.MemStopped = r.CPR.MemStopped
			row.FrontierPeak = r.CPR.FrontierPeak
			row.SeenPeak = r.CPR.SeenPeak
			row.FrontierPeakBytes = r.CPR.FrontierPeakBytes
			row.SeenPeakBytes = r.CPR.SeenPeakBytes
			row.PoolPeakBytes = r.CPR.PoolPeakBytes
		}
		out = append(out, row)
	}
	return out
}

// WriteJSON writes the rows as an indented JSON array.
func WriteJSON(w io.Writer, rows []SubjectResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(JSONRows(rows))
}

// WriteJSONFile writes the rows to path (the cpr-bench -json target) via
// a same-directory temp file and an atomic rename, so a crash mid-write
// never leaves a truncated artifact where a previous complete one stood.
func WriteJSONFile(path string, rows []SubjectResult) error {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rows); err != nil {
		return err
	}
	return journal.WriteFileAtomic(path, buf.Bytes())
}
