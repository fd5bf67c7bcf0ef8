package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cpr/internal/cancel"
	"cpr/internal/concolic"
	"cpr/internal/expr"
	"cpr/internal/faultinject"
	"cpr/internal/govern"
	"cpr/internal/journal"
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
				if len(q.queue) >= maxQueue {
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
			pop := func(q *exploreState) (workItem, bool) {
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
			seq, atCap := 0, 0
			for round := 0; round < 600; round++ {
				if rng.Intn(8) < 6 {
					seq++
					it := workItem{
						score: rng.Intn(12), // narrow range: plenty of seq tiebreaks
						seq:   seq,
						input: map[string]int64{"x": int64(seq)},
					}
					if len(st.queue) == maxQueue {
						atCap++
					}
					st.push(it, maxQueue)
					refPush(rst, it)
				} else {
					got, gok := pop(st)
					want, wok := pop(rst)
					if gok != wok || got.seq != want.seq || got.score != want.score {
						t.Fatalf("round %d: pop diverged: got=(%d,%d,%v) ref=(%d,%d,%v)",
							round, got.score, got.seq, gok, want.score, want.seq, wok)
					}
				}
				if len(st.queue) != len(rst.queue) || len(st.queue) > maxQueue {
					t.Fatalf("round %d: frontier holds %d items, reference %d, cap %d",
						round, len(st.queue), len(rst.queue), maxQueue)
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
				if got.seq != want.seq || got.score != want.score || got.input["x"] != int64(got.seq) {
					t.Fatalf("drain diverged: got=(%d,%d) ref=(%d,%d)", got.score, got.seq, want.score, want.seq)
				}
			}
		})
	}
}

// TestWorkItemCodecRoundTrip round-trips frontier items through the item
// codec every checkpoint carries them in, and compares every field: plain
// (input, patch) items, a seed, and a retry item whose flip has a prefix
// and hole-hit snapshots.
func TestWorkItemCodecRoundTrip(t *testing.T) {
	x, y, out := expr.IntVar("x"), expr.IntVar("y"), expr.IntVar("__hole_out0")
	flip := &concolic.Flip{
		Prefix:  []*expr.Term{expr.Gt(x, expr.Int(0)), expr.Ne(out, expr.Int(0))},
		Negated: expr.Eq(y, expr.Int(0)),
		Depth:   2,
		OnPatch: true,
		HoleHits: []concolic.HoleHit{{
			Out:      out,
			Snapshot: map[string]*expr.Term{"x": x, "y": expr.Add(y, expr.Int(1))},
			Concrete: expr.Model{"x": 7, "y": -1},
			AtBranch: 1,
		}},
		PinFlip:        true,
		ParentHitPatch: true,
		ParentHitBug:   true,
	}
	items := []workItem{
		{input: map[string]int64{"x": 7, "y": 0}, patchID: 3, params: expr.Model{"a": 2, "b": -5}, score: 1 << 20, seq: 1, seed: true},
		{input: map[string]int64{"x": -3, "y": 9}, patchID: 11, params: expr.Model{"a": 0}, score: 350, bound: 4, seq: 17},
		{flip: flip, retry: true, score: flip.Score() - 1000, bound: flip.Depth + 1, seq: 42},
	}
	te := journal.NewTermEncoder()
	var body, framed journal.Encoder
	for _, it := range items {
		encodeItem(&body, te, it)
	}
	framed.Raw(te.Table())
	framed.Append(body.Bytes())

	d := journal.NewDecoder(framed.Bytes())
	td, err := journal.DecodeTermTable(journal.NewDecoder(d.Raw()))
	if err != nil {
		t.Fatalf("term table: %v", err)
	}
	for i, want := range items {
		got, err := decodeItem(d, td)
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("item %d did not round-trip:\n got %+v\nwant %+v", i, got, want)
		}
		if want.flip != nil && (got.flip.Negated != want.flip.Negated || got.flip.HoleHits[0].Snapshot["y"] != want.flip.HoleHits[0].Snapshot["y"]) {
			t.Fatalf("item %d: decoded terms are not the interned originals", i)
		}
	}
}
