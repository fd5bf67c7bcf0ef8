package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cpr/internal/cancel"
	"cpr/internal/faultinject"
	"cpr/internal/govern"
)

// governedOpts builds the option set the governor differential tests run
// under: incremental solving on (so context retirement has something to
// retire) and the given governor. Identical modulo Govern, so the
// baseline and the pressured run differ only in governance.
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
// unreachably high): its shrink/spill actions fire, the anytime stop does
// not.
func TestGovernForcedRungsBitIdentical(t *testing.T) {
	for _, workers := range []int{1, testWorkers()} {
		base, err := Repair(divZeroJob(), governedOpts(workers, nil))
		if err != nil {
			t.Fatalf("baseline workers=%d: %v", workers, err)
		}
		want := fingerprint(base)
		for rung := govern.RungSoft; rung <= govern.RungCritical; rung++ {
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
				var rungPolls uint64
				switch rung {
				case govern.RungSoft:
					rungPolls = st.MemRungSoft
				case govern.RungHigh:
					rungPolls = st.MemRungHigh
				case govern.RungCritical:
					rungPolls = st.MemRungCritical
				}
				if rungPolls == 0 {
					t.Fatalf("forced rung %s never classified: %+v", rung, st)
				}
				if st.MemCacheShrinks == 0 {
					t.Error("no verdict-cache shrink under pressure")
				}
				if st.MemContextRetires == 0 {
					t.Error("no incremental context retired under pressure")
				}
				if st.MemStopped || st.TimedOut {
					t.Errorf("transient %s pressure stopped the run: stopped=%v timedOut=%v", rung, st.MemStopped, st.TimedOut)
				}
			})
		}
	}
}

// TestGovernWithCheckpointBitIdentical runs the forced high rung together
// with periodic checkpointing: the checkpointer must reload any spilled
// frontier tail before encoding, and the result stays bit-identical.
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
	opts.SpillDir = t.TempDir()
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
	g := govern.New(govern.Config{SoftBytes: 1 << 60, HighBytes: 1 << 61, CriticalBytes: 1 << 62})
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
	if st.MemRungSoft+st.MemRungHigh+st.MemRungCritical != 0 ||
		st.MemCacheShrinks != 0 || st.MemSpills != 0 || st.MemStopped {
		t.Fatalf("idle governor took actions: %+v", st)
	}
}

// TestGovernSustainedCriticalStopsRun: pressure critical at every poll
// with a low stop threshold makes the run fall back to its anytime
// best-so-far result — Stats.TimedOut exactly as a budget expiry — while
// the caller's own cancel token stays untouched.
func TestGovernSustainedCriticalStopsRun(t *testing.T) {
	faultinject.Activate(&faultinject.Plan{MemRungEvery: 1, MemRung: int(govern.RungCritical)})
	defer faultinject.Deactivate()
	g := govern.New(govern.Config{CriticalStopPolls: 2})
	parent := cancel.New()
	opts := governedOpts(1, g)
	opts.Cancel = parent
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
	if parent.Expired() {
		t.Fatal("governor stop cancelled the caller's token")
	}
	if !g.ShouldStop() {
		t.Fatal("governor does not report the stop")
	}
}

// TestFrontierSpillMirrorsInMemory drives the spilled frontier and a
// purely in-memory reference (replicating the engine's original push
// verbatim) through an identical randomized stream of pushes, forced
// spills, and pops: every pop must return the same (score, seq) on both
// sides, overflow evictions included — the result-neutrality argument for
// the high rung, tested in isolation.
func TestFrontierSpillMirrorsInMemory(t *testing.T) {
	for _, policy := range []QueuePolicy{QueueRanked, QueueFIFO} {
		policy := policy
		t.Run(fmt.Sprintf("policy=%d", policy), func(t *testing.T) {
			e := &engine{opts: Options{MaxQueue: 48, Queue: policy, SpillDir: t.TempDir()}.withDefaults()}
			ref := &engine{opts: Options{MaxQueue: 48, Queue: policy}.withDefaults()}
			st, rst := &exploreState{}, &exploreState{}
			defer st.dropSpill()

			// origPush is the engine's pre-spill push, verbatim: sort, drop
			// the worst, reject non-improving candidates at the cap.
			origPush := func(q *exploreState, it workItem) {
				if len(q.queue) >= ref.opts.MaxQueue {
					sort.SliceStable(q.queue, func(i, j int) bool { return less(q.queue[i], q.queue[j]) })
					if !less(it, q.queue[len(q.queue)-1]) {
						return
					}
					q.queue = q.queue[:len(q.queue)-1]
				}
				q.queue = append(q.queue, it)
			}
			cmp := less
			if policy == QueueFIFO {
				cmp = lessFIFO
			}
			pop := func(eng *engine, q *exploreState) (workItem, bool) {
				eng.reloadForPop(q)
				if len(q.queue) == 0 {
					return workItem{}, false
				}
				best := 0
				for i := 1; i < len(q.queue); i++ {
					if cmp(q.queue[i], q.queue[best]) {
						best = i
					}
				}
				it := q.queue[best]
				q.queue = append(q.queue[:best], q.queue[best+1:]...)
				return it, true
			}

			rng := rand.New(rand.NewSource(7))
			seq := 0
			for round := 0; round < 600; round++ {
				switch op := rng.Intn(10); {
				case op < 6:
					seq++
					it := workItem{
						score: rng.Intn(12), // narrow range: plenty of seq tiebreaks
						seq:   seq,
						input: map[string]int64{"x": int64(seq)},
					}
					e.pushFrontier(st, it)
					origPush(rst, it)
				case op < 8:
					e.spillFrontier(st, 4) // the reference never spills
				default:
					got, gok := pop(e, st)
					want, wok := pop(ref, rst)
					if gok != wok || got.seq != want.seq || got.score != want.score {
						t.Fatalf("round %d: pop diverged: spilled=(%d,%d,%v) ref=(%d,%d,%v)",
							round, got.score, got.seq, gok, want.score, want.seq, wok)
					}
				}
			}
			// Drain both completely: the full multisets must match.
			for {
				got, gok := pop(e, st)
				want, wok := pop(ref, rst)
				if gok != wok {
					t.Fatalf("drain length diverged: spilled=%v ref=%v", gok, wok)
				}
				if !gok {
					break
				}
				if got.seq != want.seq || got.score != want.score {
					t.Fatalf("drain diverged: spilled=(%d,%d) ref=(%d,%d)", got.score, got.seq, want.score, want.seq)
				}
			}
			if e.mem.MemSpills == 0 || e.mem.MemReloads == 0 {
				t.Fatalf("spill machinery not exercised: spills=%d reloads=%d", e.mem.MemSpills, e.mem.MemReloads)
			}
			if e.mem.MemSpillLoadFailures != 0 {
				t.Fatalf("%d spill load failures on a healthy disk", e.mem.MemSpillLoadFailures)
			}
			// Payloads must round-trip, not just keys: verify a known item.
			if st.frontierLen() != 0 || rst.frontierLen() != 0 {
				t.Fatal("frontier not fully drained")
			}
		})
	}
}

// TestFrontierSpillPayloadRoundTrip spills items with rich payloads and
// checks the reloaded items carry them intact (keys prove ordering; this
// proves the codec).
func TestFrontierSpillPayloadRoundTrip(t *testing.T) {
	e := &engine{opts: Options{MaxQueue: 64, SpillDir: t.TempDir()}.withDefaults()}
	st := &exploreState{}
	defer st.dropSpill()
	for i := 1; i <= 30; i++ {
		e.pushFrontier(st, workItem{
			score:  i % 5,
			seq:    i,
			input:  map[string]int64{"x": int64(i), "y": int64(-i)},
			params: map[string]int64{"a": int64(2 * i)},
			bound:  i % 3,
		})
	}
	e.spillFrontier(st, 2)
	if e.mem.MemSpills != 1 {
		t.Fatalf("spills = %d, want 1", e.mem.MemSpills)
	}
	if len(st.queue) != 2 {
		t.Fatalf("hot set = %d items, want 2", len(st.queue))
	}
	e.reloadAllSpilled(st)
	if len(st.queue) != 30 {
		t.Fatalf("reloaded frontier = %d items, want 30", len(st.queue))
	}
	byseq := make(map[int]workItem, len(st.queue))
	for _, it := range st.queue {
		byseq[it.seq] = it
	}
	for i := 1; i <= 30; i++ {
		it, ok := byseq[i]
		if !ok {
			t.Fatalf("item seq=%d lost in spill round-trip", i)
		}
		if it.score != i%5 || it.input["x"] != int64(i) || it.input["y"] != int64(-i) ||
			it.params["a"] != int64(2*i) || it.bound != i%3 {
			t.Fatalf("item seq=%d corrupted: %+v", i, it)
		}
	}
}
