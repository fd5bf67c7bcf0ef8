package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts of a comparison, per workload and end-to-end metric.
const (
	Improved   = "improved"
	Unchanged  = "unchanged"
	Unresolved = "unresolved"
	Regressed  = "regressed"
)

// Verdict compares the runs of a parent (a) and a change (b) on one
// metric. pairs and wins count the interleaved pairs and those the change
// won; failA and failB are each side's failed share of the jobs attempted.
// The rule is the choosing-metrics guide's: a change that fails a larger
// share of jobs than the parent has regressed, whatever the metric reads;
// a gain needs nine tenths of the pairs and a median difference beyond the
// parent's quartile spread; a regression is a median worse by more than
// the bound; a spread wider than the bound leaves the metric unresolved
// unless every run of the change beats every run of the parent. A metric
// with a floor neither gains nor regresses by less than the floor, and is
// resolved when its quartile spreads are within the floor.
func Verdict(m Metric, a, b []float64, pairs, wins int, failA, failB float64) string {
	better := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	q1a, ma, q3a := Quartiles(a)
	q1b, mb, q3b := Quartiles(b)
	worse := (mb - ma) / math.Abs(ma)
	if m.Better == "higher" {
		worse = -worse
	}
	moved := math.Abs(mb-ma) > m.Floor
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case failB > failA:
		return Regressed
	case moved && pairs > 0 && 10*wins >= 9*pairs && better(mb, ma) && math.Abs(mb-ma) > q3a-q1a:
		return Improved
	case moved && worse > m.Bound:
		return Regressed
	case math.Max(Spread(a), Spread(b)) > m.Bound && math.Max(q3a-q1a, q3b-q1b) > m.Floor && !allBetter:
		return Unresolved
	}
	return Unchanged
}

// CompareFiles compares two sets of untraced result files. The files of
// the first directory named are the parent's, those of the second the
// change's; runs pair up by workload and seed. It prints, per workload,
// each side's failed share of the jobs attempted and, per end-to-end
// metric, each side's median and quartiles, the pairs the change won, and
// the verdict.
func CompareFiles(w io.Writer, paths []string) error {
	var dirs []string
	sides := map[string][]*Result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var r Result
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace {
			continue
		}
		d := filepath.Dir(p)
		if _, ok := sides[d]; !ok {
			dirs = append(dirs, d)
		}
		sides[d] = append(sides[d], &r)
	}
	if len(dirs) != 2 {
		return fmt.Errorf("compare needs untraced results from exactly two directories, got %d", len(dirs))
	}
	a, b := sides[dirs[0]], sides[dirs[1]]
	fmt.Fprintf(w, "A = %s (%d runs), B = %s (%d runs)\n", dirs[0], len(a), dirs[1], len(b))
	for _, wl := range Workloads {
		ra, rb := bySeed(a, wl.Name), bySeed(b, wl.Name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s\n", wl.Name)
		var fail [2]float64
		for s, side := range [][]*Result{ra, rb} {
			attempted, failed := 0, 0
			for _, r := range side {
				if !r.Correct {
					fmt.Fprintf(w, "  warning: seed %d: correct=%v failed=%d of %d\n", r.Seed, r.Correct, r.Failed, r.Attempted)
				}
				attempted += r.Attempted
				failed += r.Failed
			}
			fail[s] = float64(failed) / float64(attempted)
		}
		fmt.Fprintf(w, "  %-14s A %.6g  B %.6g\n", "failed share", fail[0], fail[1])
		for _, m := range EndToEnd {
			va, vb := metricValues(ra, m.Name), metricValues(rb, m.Name)
			pairs, wins := 0, 0
			for i := range ra {
				j := sort.Search(len(rb), func(j int) bool { return rb[j].Seed >= ra[i].Seed })
				if j == len(rb) || rb[j].Seed != ra[i].Seed {
					continue
				}
				pairs++
				x, y := rb[j].Metrics[m.Name].Value, ra[i].Metrics[m.Name].Value
				if (m.Better == "higher" && x > y) || (m.Better == "lower" && x < y) {
					wins++
				}
			}
			q1a, ma, q3a := Quartiles(va)
			q1b, mb, q3b := Quartiles(vb)
			fmt.Fprintf(w, "  %-14s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g] %s  B won %d/%d  %s\n",
				m.Name, ma, q1a, q3a, mb, q1b, q3b, m.Unit, wins, pairs, Verdict(m, va, vb, pairs, wins, fail[0], fail[1]))
		}
	}
	return nil
}

func bySeed(rs []*Result, workload string) []*Result {
	var out []*Result
	for _, r := range rs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out
}

func metricValues(rs []*Result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
