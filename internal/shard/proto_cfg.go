package shard

import (
	"sort"

	"cpr/internal/core"
	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/journal"
	"cpr/internal/lang"
	"cpr/internal/smt"
	"cpr/internal/smt/guard"
	"cpr/internal/synth"
)

func sortStrings(s []string) { sort.Strings(s) }

// encSlice/decSlice preserve nil-ness: several Components fields mean
// "use the default set" when nil, and the replica must synthesize the
// exact same pool.
func encOps(m *journal.Encoder, ops []expr.Op) {
	m.Bool(ops != nil)
	if ops == nil {
		return
	}
	m.U64(uint64(len(ops)))
	for _, op := range ops {
		m.U64(uint64(op))
	}
}

func decOps(d *journal.Decoder) ([]expr.Op, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	n := d.U64()
	if err := countCheck(n, "ops"); err != nil {
		return nil, err
	}
	ops := make([]expr.Op, 0, n)
	for i := uint64(0); i < n; i++ {
		ops = append(ops, expr.Op(d.U64()))
	}
	return ops, d.Err()
}

func encStrs(m *journal.Encoder, s []string) {
	m.Bool(s != nil)
	if s == nil {
		return
	}
	m.U64(uint64(len(s)))
	for _, v := range s {
		m.Str(v)
	}
}

func decStrs(d *journal.Decoder) ([]string, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	n := d.U64()
	if err := countCheck(n, "strings"); err != nil {
		return nil, err
	}
	s := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		s = append(s, d.Str())
	}
	return s, d.Err()
}

func encComponents(m *journal.Encoder, c synth.Components) {
	names := make([]string, 0, len(c.Vars))
	for n := range c.Vars {
		names = append(names, n)
	}
	sortStrings(names)
	m.U64(uint64(len(names)))
	for _, n := range names {
		m.Str(n)
		m.U64(uint64(c.Vars[n]))
	}
	m.Bool(c.Consts != nil)
	if c.Consts != nil {
		m.U64(uint64(len(c.Consts)))
		for _, v := range c.Consts {
			m.I64(v)
		}
	}
	encStrs(m, c.Params)
	m.I64(c.ParamRange.Lo)
	m.I64(c.ParamRange.Hi)
	encOps(m, c.Arith)
	encOps(m, c.Cmp)
	encOps(m, c.Bool)
	m.Int(c.MaxTemplates)
	m.Bool(c.SuppressDeletion)
	encStrs(m, c.ExtraTemplates)
}

func decComponents(d *journal.Decoder) (synth.Components, error) {
	var c synth.Components
	nv := d.U64()
	if err := countCheck(nv, "component vars"); err != nil {
		return c, err
	}
	if nv > 0 {
		c.Vars = make(map[string]lang.Type, nv)
		for i := uint64(0); i < nv; i++ {
			name := d.Str()
			c.Vars[name] = lang.Type(d.U64())
		}
	}
	if d.Bool() {
		nc := d.U64()
		if err := countCheck(nc, "component consts"); err != nil {
			return c, err
		}
		c.Consts = make([]int64, 0, nc)
		for i := uint64(0); i < nc; i++ {
			c.Consts = append(c.Consts, d.I64())
		}
	}
	var err error
	if c.Params, err = decStrs(d); err != nil {
		return c, err
	}
	c.ParamRange = interval.Interval{Lo: d.I64(), Hi: d.I64()}
	if c.Arith, err = decOps(d); err != nil {
		return c, err
	}
	if c.Cmp, err = decOps(d); err != nil {
		return c, err
	}
	if c.Bool, err = decOps(d); err != nil {
		return c, err
	}
	c.MaxTemplates = d.Int()
	c.SuppressDeletion = d.Bool()
	if c.ExtraTemplates, err = decStrs(d); err != nil {
		return c, err
	}
	return c, d.Err()
}

// encOptions ships every option that determines the replica's behavior:
// the trajectory options (the fingerprinted set), the solver budgets and
// tiers (verdicts must degrade identically on both ends), and the guard
// configuration. Coordinator-only concerns — cancellation, checkpointing,
// worker count, the distributor itself — never cross the wire.
func encOptions(m *journal.Encoder, o core.Options) {
	m.Bool(o.DisablePathReduction)
	m.U64(uint64(o.SplitMode))
	m.Int(o.MaxQueue)
	m.Int(o.MaxStepsPerRun)
	m.Bool(o.ModelCountRanking)
	m.U64(uint64(o.Queue))
	s := o.SMT
	m.I64(s.DefaultBounds.Lo)
	m.I64(s.DefaultBounds.Hi)
	m.I64(s.LIA.EnumLimit)
	m.Int(s.LIA.MaxSteps)
	m.Int(s.LIA.MaxConstraints)
	m.Int(s.MaxTheoryRounds)
	m.U64(s.MaxConflicts)
	m.Dur(s.MaxQueryDuration)
	m.Bool(s.Incremental)
	m.Int(s.Guard.CrossCheckEvery)
	m.Bool(s.Guard.Paranoid)
	m.Int(s.Guard.BreakerThreshold)
	m.Dur(s.Guard.RebuildBackoff)
	m.Dur(s.Guard.RebuildBackoffMax)
}

func decOptions(d *journal.Decoder) (core.Options, error) {
	var o core.Options
	o.DisablePathReduction = d.Bool()
	o.SplitMode = interval.SplitMode(d.U64())
	o.MaxQueue = d.Int()
	o.MaxStepsPerRun = d.Int()
	o.ModelCountRanking = d.Bool()
	o.Queue = core.QueuePolicy(d.U64())
	o.SMT = smt.Options{
		DefaultBounds: interval.Interval{Lo: d.I64(), Hi: d.I64()},
	}
	o.SMT.LIA.EnumLimit = d.I64()
	o.SMT.LIA.MaxSteps = d.Int()
	o.SMT.LIA.MaxConstraints = d.Int()
	o.SMT.MaxTheoryRounds = d.Int()
	o.SMT.MaxConflicts = d.U64()
	o.SMT.MaxQueryDuration = d.Dur()
	o.SMT.Incremental = d.Bool()
	o.SMT.Guard = guard.Config{
		CrossCheckEvery:   d.Int(),
		Paranoid:          d.Bool(),
		BreakerThreshold:  d.Int(),
		RebuildBackoff:    d.Dur(),
		RebuildBackoffMax: d.Dur(),
	}
	return o, d.Err()
}

// workerStats is a shard's cumulative solver aggregate, shipped in full
// (unlike the snapshot codec, which persists only the resume-relevant
// subset) so sharded runs report the same table columns local runs do.
type workerStats = smt.Stats

func encWorkerStats(m *journal.Encoder, s workerStats) {
	m.U64(s.Queries)
	m.U64(s.TheoryRounds)
	m.U64(s.SatAnswers)
	m.U64(s.UnsatAnswers)
	m.U64(s.Unknowns)
	m.U64(s.Panics)
	m.U64(s.CacheHits)
	m.U64(s.CacheMisses)
	m.U64(s.EncodeCacheHits)
	m.U64(s.EncodeCacheMisses)
	m.U64(s.ClausesLearned)
	m.U64(s.ClausesKept)
	m.U64(s.ClausesDeleted)
	m.U64(s.AssumptionCores)
	m.U64(s.AssumptionCoreLits)
	m.Dur(s.SatTime)
	m.Dur(s.LIATime)
	m.Dur(s.ValidateTime)
	m.U64(s.Validations)
	m.U64(s.ValidationFailures)
	m.U64(s.Quarantines)
	m.U64(s.FallbackSolves)
	m.U64(s.RebuildRetries)
	m.U64(s.BreakerTrips)
}

func decWorkerStats(d *journal.Decoder) workerStats {
	var s workerStats
	s.Queries = d.U64()
	s.TheoryRounds = d.U64()
	s.SatAnswers = d.U64()
	s.UnsatAnswers = d.U64()
	s.Unknowns = d.U64()
	s.Panics = d.U64()
	s.CacheHits = d.U64()
	s.CacheMisses = d.U64()
	s.EncodeCacheHits = d.U64()
	s.EncodeCacheMisses = d.U64()
	s.ClausesLearned = d.U64()
	s.ClausesKept = d.U64()
	s.ClausesDeleted = d.U64()
	s.AssumptionCores = d.U64()
	s.AssumptionCoreLits = d.U64()
	s.SatTime = d.Dur()
	s.LIATime = d.Dur()
	s.ValidateTime = d.Dur()
	s.Validations = d.U64()
	s.ValidationFailures = d.U64()
	s.Quarantines = d.U64()
	s.FallbackSolves = d.U64()
	s.RebuildRetries = d.U64()
	s.BreakerTrips = d.U64()
	return s
}
