package core

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"cpr/internal/journal"
	"cpr/internal/smt"
)

func TestBudgetWithDefaults(t *testing.T) {
	b := Budget{}.withDefaults()
	if b.MaxIterations != 100 {
		t.Errorf("MaxIterations default = %d, want 100", b.MaxIterations)
	}
	if b.ValidationIterations != 8 {
		t.Errorf("ValidationIterations default = %d, want 8", b.ValidationIterations)
	}
	if b.MaxDuration != 0 {
		t.Errorf("wall-clock budget must stay unbounded by default: %+v", b)
	}
	c := Budget{
		MaxIterations:        3,
		ValidationIterations: 2,
		MaxDuration:          time.Second,
	}.withDefaults()
	if c.MaxIterations != 3 || c.ValidationIterations != 2 {
		t.Errorf("explicit iteration budget overwritten: %+v", c)
	}
	if c.MaxDuration != time.Second {
		t.Errorf("explicit wall-clock budget overwritten: %+v", c)
	}
}

// TestRepairMaxDurationTimesOut: with a tiny wall-clock budget the run must
// still return a valid, ranked best-so-far pool — with TimedOut set — and
// must wind down promptly rather than finishing the iteration budget.
func TestRepairMaxDurationTimesOut(t *testing.T) {
	job := divZeroJob()
	job.Budget.MaxIterations = 1 << 20 // would run ~forever without the clock
	job.Budget.MaxDuration = 50 * time.Millisecond
	start := time.Now()
	res, err := Repair(job, Options{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !res.Stats.TimedOut {
		t.Fatalf("Stats.TimedOut not set: %+v", res.Stats)
	}
	// Generous slack for CI: the loop polls every few hundred steps, so the
	// overshoot past the deadline must stay far below the no-deadline runtime
	// (~10s for this subject at full iteration budget).
	if elapsed > 2*time.Second {
		t.Fatalf("run overran its 50ms budget by too much: %v", elapsed)
	}
	if res.Pool == nil || res.Pool.Size() == 0 {
		t.Fatalf("timed-out run lost its pool: %+v", res.Pool)
	}
	if len(res.Ranked) != len(res.Pool.Patches) {
		t.Fatalf("ranking inconsistent with pool: %d vs %d", len(res.Ranked), len(res.Pool.Patches))
	}
}

// TestRepairCancelledBeforeStart: a pre-cancelled context degrades the
// whole run to "return the initial pool": anytime semantics at the extreme.
func TestRepairCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Repair(divZeroJob(), Options{Context: ctx})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !res.Stats.TimedOut {
		t.Fatalf("Stats.TimedOut not set: %+v", res.Stats)
	}
	if res.Pool.Size() == 0 || res.Stats.PathsExplored != 0 {
		t.Fatalf("cancelled run should return the untouched pool: size=%d φE=%d",
			res.Pool.Size(), res.Stats.PathsExplored)
	}
	if len(res.Ranked) != len(res.Pool.Patches) {
		t.Fatalf("ranking inconsistent with pool")
	}
}

// deadlineDist is a test Distributor that makes the run's deadline pass
// inside the explore loop however fast the machine is: its first RunFlips
// waits until the deadline has passed, then declines, so the engine
// recomputes the batch locally with an expired clock. It declines every
// other batch at once.
type deadlineDist struct {
	deadline time.Time
	flips    int
}

func (d *deadlineDist) RunFlips(FlipBatch) []FlipOutcome {
	if d.flips++; d.flips == 1 {
		time.Sleep(time.Until(d.deadline))
	}
	return nil
}

func (d *deadlineDist) RunReduce(ReduceBatch) []ReduceOutcome { return nil }
func (d *deadlineDist) SolverStats() smt.Stats                { return smt.Stats{} }
func (d *deadlineDist) Close() error                          { return nil }

// TestRepairDeadlineMidExplore: a deadline on the caller's context expires
// partway through, so the explore loop is entered and then interrupted;
// the pool must stay intact, ranked, and no larger than the validated pool
// (monotone reduction).
func TestRepairDeadlineMidExplore(t *testing.T) {
	job := divZeroJob()
	job.Budget.MaxIterations = 1 << 20
	deadline := time.Now().Add(300 * time.Millisecond)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	dist := &deadlineDist{deadline: deadline}
	res, err := Repair(job, Options{Context: ctx, NewDistributor: func(Job, Options) (Distributor, error) { return dist, nil }})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !res.Stats.TimedOut {
		t.Fatalf("Stats.TimedOut not set: %+v", res.Stats)
	}
	if res.Stats.PathsExplored == 0 || dist.flips == 0 {
		t.Fatalf("deadline passed before the explore loop: %d paths, %d flip batches", res.Stats.PathsExplored, dist.flips)
	}
	if res.Pool.Size() == 0 {
		t.Fatal("mid-explore deadline lost the pool")
	}
	if res.Stats.PFinal > res.Stats.PInit {
		t.Fatalf("pool grew: init=%d final=%d", res.Stats.PInit, res.Stats.PFinal)
	}
	if len(res.Ranked) != len(res.Pool.Patches) {
		t.Fatalf("ranking inconsistent with pool")
	}
}

// TestResumeRebasesWallClock: a resumed run gets only the wall-clock
// budget its snapshot had not spent. A crashed run's latest snapshot is
// stamped as having spent an hour, the way FuzzResumeSnapshot stamps its
// inputs. Resumed under a one-hour MaxDuration the run must stop at once —
// TimedOut, with no iteration beyond the snapshot's — and under two hours
// it must finish with the uninterrupted run's result.
func TestResumeRebasesWallClock(t *testing.T) {
	base, err := Repair(divZeroJob(), Options{Workers: 1})
	if err != nil {
		t.Fatalf("Repair (baseline): %v", err)
	}
	for _, budget := range []time.Duration{time.Hour, 2 * time.Hour} {
		t.Run(budget.String(), func(t *testing.T) {
			dir := t.TempDir()
			if !runToCrash(t, divZeroJob(), ckptOptions(dir, 1, 2, false, nil), 7) {
				t.Fatal("crash injection never fired; raise the barrier budget")
			}
			snap, err := journal.LoadLatest(dir)
			if err != nil {
				t.Fatal(err)
			}
			var st snapshot
			if err := json.Unmarshal(snap.Payload, &st); err != nil {
				t.Fatal(err)
			}
			if st.Phase != len(divZeroJob().FailingInputs) {
				t.Fatalf("snapshot is in validation phase %d; crash later so it holds main-loop state", st.Phase)
			}
			st.Elapsed = time.Hour
			payload, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			if err := journal.WriteSnapshot(dir, snap.Barrier, payload); err != nil {
				t.Fatal(err)
			}

			job := divZeroJob()
			job.Budget.MaxDuration = budget
			var warns []string
			res, err := Repair(job, ckptOptions(dir, 1, 2, true, &warns))
			if err != nil {
				t.Fatalf("Repair (resume): %v", err)
			}
			for _, w := range warns {
				t.Errorf("unexpected resume warning: %s", w)
			}
			if budget == time.Hour {
				if !res.Stats.TimedOut {
					t.Fatal("resume with its whole budget spent did not time out")
				}
				if res.Stats.PathsExplored != st.Stats.PathsExplored {
					t.Fatalf("spent resume explored %d paths, its snapshot %d", res.Stats.PathsExplored, st.Stats.PathsExplored)
				}
				return
			}
			if res.Stats.TimedOut {
				t.Fatal("resume with an hour left timed out")
			}
			if got, want := fingerprint(res), fingerprint(base); got != want {
				t.Fatalf("resumed result diverged from uninterrupted run:\n--- resumed\n%s--- baseline\n%s", got, want)
			}
		})
	}
}
