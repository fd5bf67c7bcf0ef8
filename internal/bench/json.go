package bench

import (
	"bytes"
	"encoding/json"
	"io"

	"cpr/internal/core"
	"cpr/internal/journal"
)

// JSONRow is the machine-readable form of one SubjectResult, written by
// cpr-bench -json: the row's identity and outcome, wall time, and the
// engine's core.Stats under its json tags (solver durations as integer
// nanoseconds, *_ns). The memory-governance counters (polls per rung,
// cache shrinks) and the frontier and seen-set peaks describe
// scheduling, not results: equality comparisons (e.g. CI's
// constrained-vs-unconstrained differential) must ignore them.
type JSONRow struct {
	Subject string `json:"subject"`
	Suite   string `json:"suite"`
	Status  string `json:"status"`
	Error   string `json:"error,omitempty"`
	NA      bool   `json:"na,omitempty"`

	WallMS       float64 `json:"wall_ms"`
	Iterations   int     `json:"iterations"`     // φE: main-loop concolic executions
	Rank         int     `json:"rank,omitempty"` // 0 = developer patch not covered
	CacheHitRate float64 `json:"cache_hit_rate"`

	core.Stats
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
			if r.RankFound {
				row.Rank = r.Rank
			}
			row.CacheHitRate = r.CPR.CacheHitRate()
			row.Stats = r.CPR
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
