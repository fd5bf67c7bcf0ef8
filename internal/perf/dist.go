package perf

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cpr/internal/core"
	"cpr/internal/interval"
	"cpr/internal/smt"
)

// tally counts what the traced distributor saw during one pass. Times are
// not kept here: they come from the spans.
type tally struct {
	flipItems, flipFeasible, flipUnknown atomic.Int64
	reduceItems, reduceTouched           atomic.Int64
	// fallbacks counts batches the distributor could not run (a replica
	// refused the pool sync); the engine then recomputed them locally, so
	// the trace no longer covers that work.
	fallbacks atomic.Int64
}

// tracedFactory returns a core.Options.NewDistributor that runs every
// flip and reduce batch on in-process core.WorkerEngine replicas, one per
// engine worker, each on its own goroutine, and records a span per batch
// and per replica's share of it. Batches hang under parent; with
// parent 0 each distributor opens its own serve.attempt span, closed by
// Close, named by label. The engine's determinism contract makes the
// results identical to an untraced run.
func tracedFactory(tr *Tracer, tl *tally, parent int64, label func(core.Job) string) func(core.Job, core.Options) (core.Distributor, error) {
	return func(job core.Job, opts core.Options) (core.Distributor, error) {
		n := opts.Workers
		if n <= 0 {
			n = runtime.NumCPU()
		}
		d := &tracedDist{tr: tr, tl: tl, parent: parent, job: label(job)}
		if parent == 0 {
			d.own = tr.Begin(0, spanAttempt, d.job)
			d.parent = d.own.ID()
		}
		for i := 0; i < n; i++ {
			we, err := core.NewWorkerEngine(job, opts)
			if err != nil {
				d.own.End()
				return nil, err
			}
			d.engines = append(d.engines, we)
		}
		return d, nil
	}
}

type tracedDist struct {
	tr      *Tracer
	tl      *tally
	parent  int64
	own     *Open
	job     string
	engines []*core.WorkerEngine
}

// fan runs fn over the items [0, n) of one batch on the replicas, one
// goroutine each, after syncing every replica to the batch-start state. The
// replicas claim items one at a time from a shared counter, as the engine's
// own worker pool does; contiguous chunks left a worker idle for 30% of
// suite-solver's batch time and slowed the traced pass with it. Each
// replica's share of the batch is one span. fan reports false if a replica
// refused the sync.
func (d *tracedDist) fan(batch int64, name string, n int, bounds map[string]interval.Interval, pool []core.PatchState, fn func(we *core.WorkerEngine, i int)) bool {
	w := min(len(d.engines), n)
	var failed atomic.Bool
	var next atomic.Int64
	run := func(we *core.WorkerEngine) {
		sp := d.tr.Begin(batch, name, d.job)
		defer sp.End()
		we.SetBounds(bounds)
		if err := we.ApplyPool(pool); err != nil {
			failed.Store(true)
			return
		}
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(we, i)
		}
	}
	var wg sync.WaitGroup
	for _, we := range d.engines[:w] {
		wg.Add(1)
		go func(we *core.WorkerEngine) {
			defer wg.Done()
			run(we)
		}(we)
	}
	wg.Wait()
	return !failed.Load()
}

// RunFlips runs one path-reduction scan (§3.4).
func (d *tracedDist) RunFlips(b core.FlipBatch) []core.FlipOutcome {
	sp := d.tr.Begin(d.parent, spanFlips, d.job)
	outs := make([]core.FlipOutcome, len(b.Flips))
	ok := d.fan(sp.ID(), spanFlipWorker, len(b.Flips), b.Bounds, b.Pool, func(we *core.WorkerEngine, i int) {
		outs[i] = we.RunFlips(b.Flips[i : i+1])[0]
	})
	sp.End()
	if !ok {
		d.tl.fallbacks.Add(1)
		return nil
	}
	d.tl.flipItems.Add(int64(len(outs)))
	for _, o := range outs {
		if o.OK {
			d.tl.flipFeasible.Add(1)
		}
		if o.Unknown {
			d.tl.flipUnknown.Add(1)
		}
	}
	return outs
}

// RunReduce runs one pool reduction (Algorithm 2).
func (d *tracedDist) RunReduce(b core.ReduceBatch) []core.ReduceOutcome {
	sp := d.tr.Begin(d.parent, spanReduce, d.job)
	outs := make([]core.ReduceOutcome, len(b.Pool))
	var short atomic.Bool
	ok := d.fan(sp.ID(), spanReduceWorker, len(b.Pool), b.Bounds, b.Pool, func(we *core.WorkerEngine, i int) {
		got := we.RunReduce(b.Ctx, i, i+1)
		if len(got) != 1 {
			short.Store(true)
			return
		}
		outs[i] = got[0]
	})
	sp.End()
	if !ok || short.Load() {
		d.tl.fallbacks.Add(1)
		return nil
	}
	d.tl.reduceItems.Add(int64(len(outs)))
	for _, o := range outs {
		if o.Touched {
			d.tl.reduceTouched.Add(1)
		}
	}
	return outs
}

// Counters reports no shard-layer counters: there are no shards.
func (d *tracedDist) Counters() core.DistCounters { return core.DistCounters{} }

// SolverStats sums the replicas' solver counters.
func (d *tracedDist) SolverStats() smt.Stats {
	var s smt.Stats
	for _, we := range d.engines {
		s = s.Add(we.SolverStats())
	}
	return s
}

// Close ends the distributor's own attempt span, if it opened one.
func (d *tracedDist) Close() error {
	d.own.End()
	return nil
}
