package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Metric describes one reported number. End-to-end metrics carry the
// regression bound recorded in BENCHMARK.json; per-layer metrics carry the
// end-to-end metric and workload they are expected to move.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Floor, when set, is an absolute change in the metric's unit that a
	// change must also exceed to count. BENCHMARK.json has no field for
	// it, so it lives only here.
	Floor float64
	// Moves names, for a per-layer metric, the end-to-end metric and the
	// workload a change in this layer should move.
	Moves string
}

// EndToEnd are the metrics a user of the engine or the daemon sees. Every
// workload reports all of them; a workload's jobs are suite subjects run
// through core.Repair or daemon jobs submitted over HTTP. The time metrics
// are reported at the machine's nominal speed (calib.go). The bounds are
// wide because the machine they were set on changes speed by up to 1.6
// times over minutes, which the calibration corrects only in part
// (README.md, "Noise"); a comparison pairs runs of both commits to see
// through the rest.
var EndToEnd = []Metric{
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.24},
	{Name: "latency_s_p50", Unit: "s", Better: "lower", Bound: 0.24},
	{Name: "latency_s_p90", Unit: "s", Better: "lower", Bound: 0.24},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	// Set-up takes about a millisecond, where a shared machine's jitter is
	// a large share; a set-up change counts only beyond 20 ms as well.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.020},
}

// PerLayer are the per-layer metrics of a traced run. core.* come from the
// traced pass's spans and distributor counts; smt.* (except other_ms) and
// job.* from the untraced pass that follows it; synth, lang and concolic
// from timing those calls on the workload's subjects; serve.* from the
// daemon workload (0 on the suite, which has no daemon).
var PerLayer = []Metric{
	{Name: "core.flips_ms", Unit: "ms", Better: "lower", Moves: "jobs_per_s on daemon-explore; predicted not to move suite-solver"},
	{Name: "core.flips_busy_ms", Unit: "ms", Better: "lower", Moves: "jobs_per_s on daemon-explore"},
	{Name: "core.flips_items", Unit: "count", Better: "lower", Moves: "jobs_per_s on daemon-explore"},
	{Name: "core.flips_feasible_ratio", Unit: "ratio", Better: "higher", Moves: "jobs_per_s on daemon-explore"},
	{Name: "core.flips_unknown", Unit: "count", Better: "lower", Moves: "jobs_per_s on daemon-explore"},
	{Name: "core.reduce_ms", Unit: "ms", Better: "lower", Moves: "jobs_per_s on suite-solver, then daemon-explore"},
	{Name: "core.reduce_busy_ms", Unit: "ms", Better: "lower", Moves: "jobs_per_s on suite-solver"},
	{Name: "core.reduce_items", Unit: "count", Better: "lower", Moves: "jobs_per_s on suite-solver"},
	{Name: "core.reduce_touched_ratio", Unit: "ratio", Better: "lower", Moves: "jobs_per_s on suite-solver"},
	{Name: "core.refinements", Unit: "count", Better: "lower", Moves: "jobs_per_s on suite-solver"},
	{Name: "core.removals", Unit: "count", Better: "higher", Moves: "jobs_per_s on suite-solver"},
	{Name: "core.fanout_eff", Unit: "ratio", Better: "higher", Moves: "jobs_per_s on suite-solver; predicted not to move daemon-explore (one worker per job)"},
	{Name: "core.coord_self_ms", Unit: "ms", Better: "lower", Moves: "jobs_per_s on daemon-explore, where it holds checkpoint and journal writes; jobs_per_s on suite-solver by under 1%"},
	{Name: "core.trace_overhead_frac", Unit: "ratio", Better: "lower", Moves: "no end-to-end metric on any workload: it is how much slower the traced pass ran than the untraced jobs_per_s passes"},
	{Name: "smt.queries", Unit: "count", Better: "lower", Moves: "jobs_per_s on suite-solver and daemon-explore"},
	{Name: "smt.sat_ms", Unit: "ms", Better: "lower", Moves: "jobs_per_s on suite-solver"},
	{Name: "smt.lia_ms", Unit: "ms", Better: "lower", Moves: "jobs_per_s on suite-solver"},
	{Name: "smt.validate_ms", Unit: "ms", Better: "lower", Moves: "jobs_per_s on suite-solver"},
	{Name: "smt.other_ms", Unit: "ms", Better: "lower", Moves: "jobs_per_s on daemon-explore, then suite-solver"},
	{Name: "smt.cache_hit_rate", Unit: "ratio", Better: "higher", Moves: "jobs_per_s on daemon-explore"},
	{Name: "smt.cache_subsumed", Unit: "count", Better: "higher", Moves: "jobs_per_s on daemon-explore"},
	{Name: "smt.enc_cache_hit_rate", Unit: "ratio", Better: "higher", Moves: "jobs_per_s on suite-solver"},
	{Name: "smt.unknowns", Unit: "count", Better: "lower", Moves: "jobs_per_s on suite-solver"},
	{Name: "smt.fallback_solves", Unit: "count", Better: "lower", Moves: "jobs_per_s on suite-solver"},
	{Name: "smt.clauses_kept", Unit: "count", Better: "lower", Moves: "jobs_per_s on suite-solver"},
	{Name: "synth.pool_ms", Unit: "ms", Better: "lower", Moves: "jobs_per_s on daemon-explore (synthesis runs inside every Repair)"},
	{Name: "synth.templates", Unit: "count", Better: "lower", Moves: "jobs_per_s on suite-solver"},
	{Name: "lang.parse_ms", Unit: "ms", Better: "lower", Moves: "setup_s on suite-solver"},
	{Name: "concolic.exec_us", Unit: "us", Better: "lower", Moves: "jobs_per_s on daemon-explore; a per-operation cost only"},
	{Name: "job.wait_s_p90", Unit: "s", Better: "lower", Moves: "latency_s_p90 on daemon-explore"},
	{Name: "job.run_s_p50", Unit: "s", Better: "lower", Moves: "latency_s_p50 and jobs_per_s on daemon-explore"},
	{Name: "job.run_s_p90", Unit: "s", Better: "lower", Moves: "latency_s_p90 on daemon-explore"},
	{Name: "serve.backlog_max", Unit: "count", Better: "lower", Moves: "latency_s_p90 on daemon-explore"},
	{Name: "serve.rejected", Unit: "count", Better: "lower", Moves: "jobs_per_s on daemon-explore"},
	{Name: "serve.retries", Unit: "count", Better: "lower", Moves: "jobs_per_s on daemon-explore"},
}

// Value is one reported metric value with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Summary is the last line a run prints: the contract between the
// benchmark and whoever drives it.
type Summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// values renders named numbers in the table's order, with units. Every
// name must be in the table and every table entry must be present: a run
// that cannot compute one of its metrics is a bug, not a missing value.
func values(table []Metric, got map[string]float64) (map[string]Value, error) {
	out := make(map[string]Value, len(table))
	for _, m := range table {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("perf: metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("perf: metric %s is %v", m.Name, v)
		}
		out[m.Name] = Value{Value: v, Unit: m.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("perf: metric %s is not in the table", name)
		}
	}
	return out, nil
}

// printLines writes one "name value unit" line per metric, sorted by name.
func printLines(w io.Writer, vs map[string]Value) {
	names := make([]string, 0, len(vs))
	for n := range vs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %16.6f %s\n", n, vs[n].Value, vs[n].Unit)
	}
}

// writeSummary prints the summary as one JSON line.
func writeSummary(w io.Writer, s Summary) error {
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
