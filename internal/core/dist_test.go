package core

import (
	"fmt"
	"testing"

	"cpr/internal/faultinject"
	"cpr/internal/govern"
	"cpr/internal/interval"
	"cpr/internal/smt"
)

// flakyDist is a Distributor over in-process WorkerEngine replicas that
// fails on a fixed schedule: every 3rd batch returns nil and every 5th
// returns one outcome short, so the engine must recompute those batches
// locally. Items are dealt round-robin across the replicas, which proves
// any replica computes the same outcome for an item.
type flakyDist struct {
	replicas             []*WorkerEngine
	batches              int
	served, nils, shorts int
	closed               bool
}

func (d *flakyDist) factory(job Job, opts Options) (Distributor, error) {
	for i := 0; i < 2; i++ {
		we, err := NewWorkerEngine(job, opts)
		if err != nil {
			return nil, err
		}
		d.replicas = append(d.replicas, we)
	}
	return d, nil
}

// schedule numbers the next batch and reports whether it returns nil
// (fail) or one outcome short (short).
func (d *flakyDist) schedule() (fail, short bool) {
	d.batches++
	switch {
	case d.batches%3 == 0:
		d.nils++
		return true, false
	case d.batches%5 == 0:
		d.shorts++
		return false, true
	}
	d.served++
	return false, false
}

// deal syncs every replica to the batch-start state and runs items
// [0, n) on them round-robin.
func (d *flakyDist) deal(bounds map[string]interval.Interval, pool []PatchState, n int, run func(we *WorkerEngine, i int)) {
	for r, we := range d.replicas {
		we.SetBounds(bounds)
		if err := we.ApplyPool(pool); err != nil {
			panic(err)
		}
		for i := r; i < n; i += len(d.replicas) {
			run(we, i)
		}
	}
}

func (d *flakyDist) RunFlips(b FlipBatch) []FlipOutcome {
	fail, short := d.schedule()
	if fail {
		return nil
	}
	outs := make([]FlipOutcome, len(b.Flips))
	d.deal(b.Bounds, b.Pool, len(outs), func(we *WorkerEngine, i int) {
		outs[i] = we.RunFlips(b.Flips[i : i+1])[0]
	})
	if short {
		return outs[:len(outs)-1]
	}
	return outs
}

func (d *flakyDist) RunReduce(b ReduceBatch) []ReduceOutcome {
	fail, short := d.schedule()
	if fail {
		return nil
	}
	outs := make([]ReduceOutcome, len(b.Pool))
	d.deal(b.Bounds, b.Pool, len(outs), func(we *WorkerEngine, i int) {
		outs[i] = we.RunReduce(b.Ctx, i, i+1)[0]
	})
	if short {
		return outs[:len(outs)-1]
	}
	return outs
}

func (d *flakyDist) SolverStats() smt.Stats {
	var s smt.Stats
	for _, we := range d.replicas {
		s = s.Add(we.SolverStats())
	}
	return s
}

func (d *flakyDist) Close() error {
	d.closed = true
	return nil
}

// checkFallbacks fails the test unless the distributor both served batches
// and failed some of each kind, and was closed by the run.
func (d *flakyDist) checkFallbacks(t *testing.T) {
	t.Helper()
	if d.served == 0 || d.nils == 0 || d.shorts == 0 {
		t.Fatalf("schedule not exercised: %d served, %d nil, %d short of %d batches",
			d.served, d.nils, d.shorts, d.batches)
	}
	if !d.closed {
		t.Error("distributor not closed at the end of the run")
	}
}

// TestDistributorFallbackBitIdentical: a distributor that completes some
// batches and fails others (nil or short results, recomputed locally) must
// leave the repair result bit-identical to a run without one, at one
// worker and many, and under the forced high memory rung.
func TestDistributorFallbackBitIdentical(t *testing.T) {
	baseline := func(t *testing.T, workers int) string {
		t.Helper()
		res, err := Repair(divZeroJob(), Options{Workers: workers})
		if err != nil {
			t.Fatalf("baseline workers=%d: %v", workers, err)
		}
		return fingerprint(res)
	}
	for _, workers := range []int{1, testWorkers()} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			want := baseline(t, workers)
			d := &flakyDist{}
			res, err := Repair(divZeroJob(), Options{Workers: workers, NewDistributor: d.factory})
			if err != nil {
				t.Fatalf("distributed Repair: %v", err)
			}
			if got := fingerprint(res); got != want {
				t.Fatalf("distributed run diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
			}
			d.checkFallbacks(t)
		})
	}
	t.Run("rung=high", func(t *testing.T) {
		want := baseline(t, 1)
		faultinject.Activate(&faultinject.Plan{MemRungEvery: 1, MemRung: int(govern.RungHigh)})
		defer faultinject.Deactivate()
		g := govern.New(govern.Config{CriticalStopPolls: 1 << 30})
		d := &flakyDist{}
		opts := Options{Workers: 1, Govern: g, NewDistributor: d.factory}
		res, err := Repair(divZeroJob(), opts)
		if err != nil {
			t.Fatalf("governed distributed Repair: %v", err)
		}
		if got := fingerprint(res); got != want {
			t.Fatalf("high rung with a distributor diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
		}
		d.checkFallbacks(t)
		st := res.Stats
		if st.GovernPolls == 0 || st.MemRungHigh == 0 {
			t.Fatalf("forced rung never classified: %+v", st)
		}
		if st.MemCacheShrinks == 0 {
			t.Error("no verdict-cache shrink under pressure")
		}
		if st.MemStopped || st.TimedOut {
			t.Errorf("transient pressure stopped the run: %+v", st)
		}
	})
}
