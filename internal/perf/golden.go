package perf

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"cpr/internal/bench"
	"cpr/internal/core"
	"cpr/internal/smt"
)

// Entry is one subject's reference repair: the whole ranked pool as
// core.FormatTopPatches renders it, the paper statistics, and the
// developer patch's rank (0 when it is not in the pool).
type Entry struct {
	Pool   []string `json:"pool"`
	PInit  int64    `json:"p_init"`
	PFinal int64    `json:"p_final"`
	PhiE   int      `json:"phi_e"`
	PhiS   int      `json:"phi_s"`
	Rank   int      `json:"rank"`
}

// Golden maps a subject ID ("Project/BugID") to its reference entry.
type Golden map[string]Entry

//go:embed testdata/golden.json
var goldenJSON []byte

// LoadGolden decodes the reference results compiled into the binary.
func LoadGolden() (Golden, error) {
	var g Golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("perf: golden file: %w", err)
	}
	return g, nil
}

// entryOf summarizes a repair result; rank is ignored by daemon checks.
func entryOf(res *core.Result, rank int) Entry {
	return Entry{
		Pool:   core.FormatTopPatches(res, len(res.Ranked)),
		PInit:  res.Stats.PInit,
		PFinal: res.Stats.PFinal,
		PhiE:   res.Stats.PathsExplored,
		PhiS:   res.Stats.PathsSkipped,
		Rank:   rank,
	}
}

// check compares a result with the reference. Daemon results carry no
// developer-patch rank, so withRank is false for them.
func (g Golden) check(id string, got Entry, withRank bool) error {
	want, ok := g[id]
	if !ok {
		return fmt.Errorf("%s: no golden entry", id)
	}
	if !withRank {
		got.Rank = want.Rank
	}
	if reflect.DeepEqual(got, want) {
		return nil
	}
	if len(got.Pool) != len(want.Pool) {
		return fmt.Errorf("%s: pool has %d patches, golden %d", id, len(got.Pool), len(want.Pool))
	}
	for i := range got.Pool {
		if got.Pool[i] != want.Pool[i] {
			return fmt.Errorf("%s: pool line %d is %q, golden %q", id, i+1, got.Pool[i], want.Pool[i])
		}
	}
	return fmt.Errorf("%s: |P_init| %d |P_final| %d φE %d φS %d rank %d, golden %d %d %d %d %d", id,
		got.PInit, got.PFinal, got.PhiE, got.PhiS, got.Rank,
		want.PInit, want.PFinal, want.PhiE, want.PhiS, want.Rank)
}

// runnable is every benchmark subject the engine can run, in table order.
func runnable() []*bench.Subject {
	var out []*bench.Subject
	for _, suite := range []string{bench.SuiteExtractFix, bench.SuiteManyBugs, bench.SuiteSVCOMP} {
		for _, s := range bench.Catalog(suite) {
			if s.Unsupported == "" {
				out = append(out, s)
			}
		}
	}
	return out
}

// engineOptions are the default engine options every workload runs with:
// incremental solving on; batching, portfolio, shards and governor off.
func engineOptions(workers int) core.Options {
	return core.Options{Workers: workers, SMT: smt.Options{Incremental: true}}
}

// WriteGolden repairs every runnable subject with one engine worker and
// writes the reference file to path.
func WriteGolden(path string) error {
	ps, err := prepare(runnable())
	if err != nil {
		return err
	}
	g := make(Golden, len(ps))
	for _, p := range ps {
		res, err := repair(p.job, engineOptions(1))
		if err != nil {
			return fmt.Errorf("%s: %w", p.id, err)
		}
		if res.Stats.TimedOut {
			return fmt.Errorf("%s: timed out", p.id)
		}
		g[p.id] = entryOf(res, rankOf(p, res))
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", " ")
	if err := enc.Encode(g); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
