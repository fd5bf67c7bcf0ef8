package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cpr/internal/expr"
	"cpr/internal/faultinject"
	"cpr/internal/govern"
)

// governedOpts builds the option set the governor differential tests run
// under: incremental solving on and the given governor. Identical modulo
// Govern, so the baseline and the pressured run differ only in
// governance.
func governedOpts(workers int, g *govern.Governor) Options {
	o := Options{Workers: workers, Govern: g}
	o.SMT.Incremental = true
	return o
}

// TestGovernForcedRungsBitIdentical is the tentpole's differential
// contract: force every rung of the degradation ladder at every barrier
// (via faultinject, so no real allocation pressure is needed) and the
// repair result — pool, regions, ranking, headline stats — is
// bit-identical to the unpressured run, at one worker and many. The
// critical rung here is transient-critical (the stop threshold is set
// unreachably high): its cache shrink fires, the anytime stop does not.
func TestGovernForcedRungsBitIdentical(t *testing.T) {
	for _, workers := range []int{1, testWorkers()} {
		base, err := Repair(divZeroJob(), governedOpts(workers, nil))
		if err != nil {
			t.Fatalf("baseline workers=%d: %v", workers, err)
		}
		want := fingerprint(base)
		for rung := govern.RungHigh; rung <= govern.RungCritical; rung++ {
			rung := rung
			t.Run(fmt.Sprintf("workers=%d_rung=%s", workers, rung), func(t *testing.T) {
				faultinject.Activate(&faultinject.Plan{MemRungEvery: 1, MemRung: int(rung)})
				defer faultinject.Deactivate()
				g := govern.New(govern.Config{CriticalStopPolls: 1 << 30})
				res, err := Repair(divZeroJob(), governedOpts(workers, g))
				if err != nil {
					t.Fatalf("governed Repair: %v", err)
				}
				if got := fingerprint(res); got != want {
					t.Fatalf("rung %s diverged from unpressured run:\n--- want ---\n%s--- got ---\n%s", rung, want, got)
				}
				st := res.Stats
				if st.GovernPolls == 0 {
					t.Fatal("governor never polled")
				}
				rungPolls := st.MemRungHigh
				if rung == govern.RungCritical {
					rungPolls = st.MemRungCritical
				}
				if rungPolls == 0 {
					t.Fatalf("forced rung %s never classified: %+v", rung, st)
				}
				if st.MemCacheShrinks == 0 {
					t.Error("no verdict-cache shrink under pressure")
				}
				if st.MemStopped || st.TimedOut {
					t.Errorf("transient %s pressure stopped the run: stopped=%v timedOut=%v", rung, st.MemStopped, st.TimedOut)
				}
			})
		}
	}
}

// TestGovernWithCheckpointBitIdentical runs the forced high rung together
// with periodic checkpointing: snapshots are written between governor
// actions, and the result stays bit-identical.
func TestGovernWithCheckpointBitIdentical(t *testing.T) {
	base, err := Repair(divZeroJob(), governedOpts(1, nil))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	want := fingerprint(base)
	faultinject.Activate(&faultinject.Plan{MemRungEvery: 1, MemRung: int(govern.RungHigh)})
	defer faultinject.Deactivate()
	opts := governedOpts(1, govern.New(govern.Config{CriticalStopPolls: 1 << 30}))
	opts.Checkpoint = CheckpointOptions{Dir: t.TempDir(), Interval: 2}
	res, err := Repair(divZeroJob(), opts)
	if err != nil {
		t.Fatalf("governed+checkpointed Repair: %v", err)
	}
	if got := fingerprint(res); got != want {
		t.Fatalf("governed+checkpointed run diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestGovernUnpressuredGovernorChangesNothing: a governor whose watermarks
// are unreachably high classifies every poll as no-pressure and the run is
// identical, with zero action counters.
func TestGovernUnpressuredGovernorChangesNothing(t *testing.T) {
	base, err := Repair(divZeroJob(), governedOpts(1, nil))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	g := govern.New(govern.Config{HighBytes: 1 << 61, CriticalBytes: 1 << 62})
	res, err := Repair(divZeroJob(), governedOpts(1, g))
	if err != nil {
		t.Fatalf("governed Repair: %v", err)
	}
	if got, want := fingerprint(res), fingerprint(base); got != want {
		t.Fatalf("idle governor changed the result:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	st := res.Stats
	if st.GovernPolls == 0 {
		t.Fatal("governor never polled")
	}
	if st.MemRungHigh+st.MemRungCritical != 0 || st.MemCacheShrinks != 0 || st.MemStopped {
		t.Fatalf("idle governor took actions: %+v", st)
	}
}

// TestGovernSustainedCriticalStopsRun: pressure critical at every poll
// with a low stop threshold makes the run fall back to its anytime
// best-so-far result — Stats.TimedOut exactly as a budget expiry — while
// the caller's own context stays untouched.
func TestGovernSustainedCriticalStopsRun(t *testing.T) {
	faultinject.Activate(&faultinject.Plan{MemRungEvery: 1, MemRung: int(govern.RungCritical)})
	defer faultinject.Deactivate()
	g := govern.New(govern.Config{CriticalStopPolls: 2})
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := governedOpts(1, g)
	opts.Context = parent
	res, err := Repair(divZeroJob(), opts)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	st := res.Stats
	if !st.MemStopped {
		t.Fatalf("sustained critical did not stop the run: %+v", st)
	}
	if !st.TimedOut {
		t.Fatal("memory stop must surface as TimedOut (the budget-expiry path)")
	}
	if res.Pool == nil {
		t.Fatal("no anytime pool returned")
	}
	if st.MemRungCritical < 2 {
		t.Fatalf("MemRungCritical = %d, want >= 2", st.MemRungCritical)
	}
	if parent.Err() != nil {
		t.Fatal("governor stop cancelled the caller's context")
	}
	if !g.ShouldStop() {
		t.Fatal("governor does not report the stop")
	}
}

// TestFrontierCapEviction drives the frontier's push and a reference copy
// of the engine's original sort-and-drop push through one seeded stream
// of pushes and pops at a cap of 48, under both pop policies: every pop
// must return the same (score, seq) on both sides, cap evictions
// included. The stream has to fill the frontier, or the eviction path
// went untested.
func TestFrontierCapEviction(t *testing.T) {
	const maxQueue = 48
	for _, policy := range []QueuePolicy{QueueRanked, QueueFIFO} {
		policy := policy
		t.Run(fmt.Sprintf("policy=%d", policy), func(t *testing.T) {
			st, rst := &exploreState{}, &exploreState{}
			// refPush is the engine's original push: sort, drop the worst,
			// reject non-improving candidates at the cap.
			refPush := func(q *exploreState, it workItem) {
				if len(q.Queue) >= maxQueue {
					sort.SliceStable(q.Queue, func(i, j int) bool { return less(q.Queue[i], q.Queue[j]) })
					if !less(it, q.Queue[len(q.Queue)-1]) {
						return
					}
					q.Queue = q.Queue[:len(q.Queue)-1]
				}
				q.Queue = append(q.Queue, it)
			}
			cmp := less
			if policy == QueueFIFO {
				cmp = lessFIFO
			}
			pop := func(q *exploreState) (workItem, bool) {
				if len(q.Queue) == 0 {
					return workItem{}, false
				}
				best := 0
				for i := 1; i < len(q.Queue); i++ {
					if cmp(q.Queue[i], q.Queue[best]) {
						best = i
					}
				}
				it := q.Queue[best]
				q.Queue = append(q.Queue[:best], q.Queue[best+1:]...)
				return it, true
			}

			rng := rand.New(rand.NewSource(7))
			seq, atCap := 0, 0
			for round := 0; round < 600; round++ {
				if rng.Intn(8) < 6 {
					seq++
					it := workItem{
						Score: rng.Intn(12), // narrow range: plenty of seq tiebreaks
						Seq:   seq,
						Input: map[string]int64{"x": int64(seq)},
					}
					if len(st.Queue) == maxQueue {
						atCap++
					}
					st.push(it, maxQueue)
					refPush(rst, it)
				} else {
					got, gok := pop(st)
					want, wok := pop(rst)
					if gok != wok || got.Seq != want.Seq || got.Score != want.Score {
						t.Fatalf("round %d: pop diverged: got=(%d,%d,%v) ref=(%d,%d,%v)",
							round, got.Score, got.Seq, gok, want.Score, want.Seq, wok)
					}
				}
				if len(st.Queue) != len(rst.Queue) || len(st.Queue) > maxQueue {
					t.Fatalf("round %d: frontier holds %d items, reference %d, cap %d",
						round, len(st.Queue), len(rst.Queue), maxQueue)
				}
			}
			if atCap == 0 {
				t.Fatal("the stream never filled the frontier: cap eviction untested")
			}
			// Drain both completely: the full multisets must match.
			for {
				got, gok := pop(st)
				want, wok := pop(rst)
				if gok != wok {
					t.Fatalf("drain length diverged: got=%v ref=%v", gok, wok)
				}
				if !gok {
					break
				}
				if got.Seq != want.Seq || got.Score != want.Score || got.Input["x"] != int64(got.Seq) {
					t.Fatalf("drain diverged: got=(%d,%d) ref=(%d,%d)", got.Score, got.Seq, want.Score, want.Seq)
				}
			}
		})
	}
}

// TestWorkItemCodecRoundTrip round-trips frontier items through the JSON
// snapshot codec every checkpoint carries them in, and compares every
// field: plain (input, patch) items, a seed, and an item without
// parameters (nil and empty maps restore distinctly).
func TestWorkItemCodecRoundTrip(t *testing.T) {
	items := []workItem{
		{Input: map[string]int64{"x": 7, "y": 0}, PatchID: 3, Params: expr.Model{"a": 2, "b": -5}, Score: 1 << 20, Seq: 1, Seed: true},
		{Input: map[string]int64{"x": -3, "y": 9}, PatchID: 11, Params: expr.Model{"a": 0}, Score: 350, Bound: 4, Seq: 17},
		{Input: map[string]int64{}, PatchID: 5, Score: -2, Bound: 1, Seq: 42},
	}
	st := exploreState{Queue: items, Seen: map[uint64]bool{1<<64 - 1: true, 7: true}, Iter: 9}
	got := roundTripSnapshot(t, &engine{}, Stats{}, st).Explore
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("frontier did not round-trip:\n got %+v\nwant %+v", got, st)
	}
}
