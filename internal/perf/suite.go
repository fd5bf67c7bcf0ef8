package perf

import (
	"fmt"
	"time"

	"cpr/internal/bench"
	"cpr/internal/core"
	"cpr/internal/expr"
	"cpr/internal/lang"
	"cpr/internal/smt"
)

// prepared is one subject ready to repair: its job, built from a fresh
// parse of the source, and its parsed developer patch.
type prepared struct {
	id    string
	job   core.Job
	dev   *expr.Term
	parse time.Duration
}

// warm parses every subject once through its own cache. Subject.Program is
// not safe for concurrent use, and daemon submits build jobs from several
// handler goroutines, so the cache must be filled before any of them runs.
func warm(subjects []*bench.Subject) error {
	for _, s := range subjects {
		if _, err := s.Program(); err != nil {
			return fmt.Errorf("%s: %w", s.ID(), err)
		}
	}
	return nil
}

// prepare builds every subject's core.Job, including a fresh parse of its
// program: the suite's set-up.
func prepare(subjects []*bench.Subject) ([]prepared, error) {
	if err := warm(subjects); err != nil {
		return nil, err
	}
	out := make([]prepared, len(subjects))
	for i, s := range subjects {
		t0 := time.Now()
		prog, err := lang.Parse(s.Source)
		parse := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.ID(), err)
		}
		job, err := s.Job(core.Budget{})
		if err != nil {
			return nil, err
		}
		job.Program = prog
		dev, err := s.DevPatchTerm()
		if err != nil {
			return nil, fmt.Errorf("%s: developer patch: %w", s.ID(), err)
		}
		out[i] = prepared{id: s.ID(), job: job, dev: dev, parse: parse}
	}
	return out, nil
}

// repair runs core.Repair with panics turned into errors, so one bad
// subject is a failed job rather than a dead benchmark.
func repair(job core.Job, opts core.Options) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("repair panicked: %v", r)
		}
	}()
	return core.Repair(job, opts)
}

// rankOf is the developer patch's 1-based rank in the result, 0 if absent,
// computed the way cpr-bench computes it.
func rankOf(p prepared, res *core.Result) int {
	rank, ok := core.CorrectPatchRank(smt.NewSolver(engineOptions(1).SMT), res.Ranked, p.dev, p.job.InputBounds)
	if !ok {
		return 0
	}
	return rank
}

// repairOne repairs one subject into p and checks the result against the
// golden file; ready is when the harness was free to start it. With a
// tracer the repair runs through the traced distributor.
func (h *harness) repairOne(s prepared, ready time.Time, tr *Tracer, tl *tally, p *part) {
	opts := engineOptions(h.workers)
	sp := tr.Begin(0, spanRepair, s.id)
	if tr != nil {
		opts.NewDistributor = tracedFactory(tr, tl, sp.ID(), func(core.Job) string { return s.id })
	}
	start := time.Now()
	res, err := repair(s.job, opts)
	end := time.Now()
	sp.End()
	rec := jobRec{subject: s.id, wait: start.Sub(ready), run: end.Sub(start), latency: end.Sub(start)}
	p.busy += rec.run
	switch {
	case err != nil:
		h.fail("%s: %v", s.id, err)
	case res.Stats.TimedOut:
		h.fail("%s: timed out", s.id)
	default:
		rk := tr.Begin(0, spanRank, s.id)
		t0 := time.Now()
		rank := rankOf(s, res)
		p.rank += time.Since(t0)
		rk.End()
		rec.ok = true
		rec.stats = res.Stats
		h.verify(s.id, entryOf(res, rank), true)
	}
	p.jobs = append(p.jobs, rec)
}

// suitePass repairs every subject in the given order into p, calibrating
// between two repairs when it is due. With a tracer it repairs each subject
// twice in a row, traced into tp and then untraced into p, so that the
// tracing overhead compares repairs seconds apart on a machine whose speed
// drifts over minutes.
func (h *harness) suitePass(ps []prepared, order []int, tr *Tracer, tl *tally) (p, tp part, err error) {
	for _, i := range order {
		if err := h.calibrateIfDue(); err != nil {
			return p, tp, err
		}
		ready := time.Now()
		if tr != nil {
			h.repairOne(ps[i], ready, tr, tl, &tp)
			ready = time.Now()
		}
		h.repairOne(ps[i], ready, nil, nil, &p)
	}
	return p, tp, nil
}

// runSuite is the suite workload: passes over the subjects in a seeded
// order until the time is used, each after setupReps timed set-ups whose
// last one it repairs. Traced, the first pass pairs every untraced repair
// with a traced one just before it.
func (h *harness) runSuite(subjects []*bench.Subject) error {
	var ps []prepared
	var setups []float64
	var tr *Tracer
	tl := &tally{}
	if h.cfg.Trace {
		tr = NewTracer()
	}
	var traced part
	tracing := tr
	parts, err := h.repeat(func() (part, error) {
		for r := 0; r < setupReps; r++ {
			t0 := time.Now()
			var err error
			if ps, err = prepare(subjects); err != nil {
				return part{}, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		p, tp, err := h.suitePass(ps, h.rng.Perm(len(ps)), tracing, tl)
		if tracing != nil {
			traced, tracing = tp, nil
		}
		return p, err
	})
	if err != nil {
		return err
	}
	for _, p := range parts {
		h.sample("suite_s", p.busy.Seconds())
	}
	// suite_s is what cpr-bench users wait for: the sum of Repair wall
	// times over the suite (jobs_per_s is the subject count over it).
	h.extra["suite_s"] = Value{Median(h.samples["suite_s"]), "s"}
	if !h.cfg.Trace {
		h.endToEnd(parts, setups)
		return nil
	}
	h.layers(tr, tl, traced, parts, ps, h.workers)
	return nil
}
