package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cpr/internal/smt"
)

// newWorkers builds the worker pool: one solver per worker, so parallel
// tasks never contend on solver internals. The first worker is the
// engine's own solver — with Workers=1 the engine runs every query on
// exactly the solver instance the sequential engine would; the rest get
// fresh solvers with identical options (sharing opts.SMT.Cache, so work
// one worker does is a hit for all).
func (e *engine) newWorkers(n int) []*smt.Solver {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	ws := make([]*smt.Solver, n)
	ws[0] = e.solver
	for i := 1; i < n; i++ {
		ws[i] = smt.NewSolver(e.opts.SMT)
	}
	return ws
}

// fanOut runs fn(worker, i) for every i in [0, n), spreading indices over
// the engine's workers via an atomic work-stealing counter. Determinism
// contract: callers only pass fn whose effect on shared state for index i
// is independent of the other indices' scheduling (results slots, per-item
// state, atomic counters), so any interleaving computes the same values —
// the coordinator then merges them in index order.
//
// With a single worker (or a single task) the loop runs inline on
// workers[0], with no goroutines: Options.Workers=1 replays the sequential
// engine's exact call sequence.
//
// A panicking task does not kill the process or lose the batch: panics are
// captured per index and the lowest-index one is re-raised on the caller
// after the batch drains, mirroring where the sequential loop would have
// thrown.
func (e *engine) fanOut(n int, fn func(w *smt.Solver, i int)) {
	if n <= 0 {
		return
	}
	if len(e.workers) == 1 || n == 1 {
		w := e.workers[0]
		for i := 0; i < n; i++ {
			fn(w, i)
		}
		return
	}
	var (
		next     atomic.Int64
		panicked atomic.Bool
		wg       sync.WaitGroup
	)
	panics := make([]any, n)
	nw := len(e.workers)
	if nw > n {
		nw = n
	}
	for wi := 0; wi < nw; wi++ {
		w := e.workers[wi]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runTask(w, i, fn, panics, &panicked)
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		for _, r := range panics {
			if r != nil {
				panic(r)
			}
		}
	}
}

func runTask(w *smt.Solver, i int, fn func(w *smt.Solver, i int), panics []any, panicked *atomic.Bool) {
	defer func() {
		if r := recover(); r != nil {
			panics[i] = r
			panicked.Store(true)
		}
	}()
	fn(w, i)
}
