package core

import (
	"fmt"
	"sync/atomic"

	"cpr/internal/govern"
	"cpr/internal/patch"
)

// Governor integration: the engine polls Options.Govern at every
// generation barrier (coordinator thread, no fan-out in flight) and
// applies the rung's degradation actions, every one of which reuses a
// result-neutral mechanism:
//
//	soft     → shrink the verdict cache to half, retire incremental
//	           solver contexts (both pure acceleration structures)
//	high     → shrink the cache to a quarter, retire contexts
//	critical → empty the cache, retire contexts; pressure sustained
//	           across CriticalStopPolls consecutive polls cancels the
//	           engine's own token — the run ends with its anytime
//	           best-so-far result, exactly like a budget expiry
//
// The frontier is not a rung action: path reduction (§3.4) keeps it
// small — at most 22 items (under 5 KB) on every benchmark subject — and
// MaxQueue caps it regardless.
//
// Between barriers the engine also refreshes byte gauges (frontier, seen
// set, pool, solver contexts) that it registers as governor sources, so a
// daemon's background ticker sees per-job accounting without touching
// engine-owned state: sources read only these atomics.

// seenEntryBytes approximates one seen-set entry (uint64 key + map bucket
// share); itemBaseBytes and friends approximate workItem payloads.
const (
	seenEntryBytes    = 24
	itemBaseBytes     = 120
	mapEntryI64Bytes  = 40
	termRefBytes      = 8
	holeHitBytes      = 64
	snapshotVarBytes  = 56
	patchBaseBytes    = 112
	paramNameBytes    = 24
	boxPerDimBytes    = 16
	poolScorePadBytes = 32
)

// governSourceSeq makes source names unique across concurrent engines
// sharing one governor (a daemon running many jobs).
var governSourceSeq atomic.Uint64

// registerGovernSources registers this engine's byte gauges with the
// governor, returning an unregister-all. Names are unique per engine so a
// daemon running many jobs sees one source set per job.
func (e *engine) registerGovernSources() func() {
	g := e.opts.Govern
	if g == nil {
		return func() {}
	}
	prefix := fmt.Sprintf("core/run%d", governSourceSeq.Add(1))
	unregs := []func(){
		g.Register(prefix+"/frontier", e.gFrontierBytes.Load),
		g.Register(prefix+"/seen", e.gSeenBytes.Load),
		g.Register(prefix+"/pool", e.gPoolBytes.Load),
		g.Register(prefix+"/solver", e.gSolverBytes.Load),
	}
	if e.ownCache {
		unregs = append(unregs, g.Register(prefix+"/cache", e.opts.SMT.Cache.ApproxBytes))
	}
	return func() {
		for _, u := range unregs {
			u()
		}
	}
}

// governAtBarrier runs at every generation barrier: refresh the gauges,
// poll the governor, apply the rung's actions. With Options.Govern nil it
// only refreshes the gauges (the size stats are reported regardless).
func (e *engine) governAtBarrier(st *exploreState) {
	e.updateMemGauges(st)
	g := e.opts.Govern
	if g == nil {
		return
	}
	rung := g.Poll()
	e.mem.GovernPolls++
	if rung != e.lastRung {
		e.mem.GovernTransitions++
		e.lastRung = rung
	}
	if rung == govern.RungNone {
		return
	}
	switch rung {
	case govern.RungSoft:
		e.mem.MemRungSoft++
	case govern.RungHigh:
		e.mem.MemRungHigh++
	case govern.RungCritical:
		e.mem.MemRungCritical++
	}

	// Shrink the verdict cache: to half under soft, quarter under high,
	// empty under critical. Pure memoization — result-neutral by design.
	if c := e.opts.SMT.Cache; c != nil {
		var target uint64
		switch rung {
		case govern.RungSoft:
			target = c.ApproxBytes() / 2
		case govern.RungHigh:
			target = c.ApproxBytes() / 4
		}
		if n, freed := c.Shrink(target); n > 0 {
			e.mem.MemCacheShrinks++
			e.mem.MemCacheShrinkBytes += freed
		}
	}
	// Retire incremental solver contexts (workers are idle at a barrier).
	// The next query rebuilds; same mechanism as the context clause cap.
	for _, w := range e.workers {
		r, f := w.solver.TrimMemory()
		r2, f2 := w.retrySolver.TrimMemory()
		e.mem.MemContextRetires += uint64(r + r2)
		e.mem.MemContextRetireBytes += f + f2
	}
	// Sustained critical: fall back to the anytime result. Cancelling the
	// engine-owned token is byte-for-byte the budget-expiry path.
	if rung == govern.RungCritical && !e.mem.MemStopped && g.ShouldStop() {
		e.mem.MemStopped = true
		e.tok.Cancel()
	}
	e.updateMemGauges(st)
}

// updateMemGauges recomputes the byte gauges and peaks. Coordinator-only;
// the atomics exist so governor source callbacks (possibly on a daemon's
// ticker goroutine) can read them without locks.
func (e *engine) updateMemGauges(st *exploreState) {
	var fb uint64
	for i := range st.queue {
		fb += approxItemBytes(&st.queue[i])
	}
	sb := uint64(len(st.seen)) * seenEntryBytes
	pb := approxPoolBytes(e.pool)
	var solv uint64
	for _, w := range e.workers {
		solv += w.solver.ApproxMemBytes() + w.retrySolver.ApproxMemBytes()
	}
	e.gFrontierBytes.Store(fb)
	e.gSeenBytes.Store(sb)
	e.gPoolBytes.Store(pb)
	e.gSolverBytes.Store(solv)
	m := &e.mem
	m.FrontierPeak = max(m.FrontierPeak, len(st.queue))
	m.FrontierPeakBytes = max(m.FrontierPeakBytes, fb)
	m.SeenPeak = max(m.SeenPeak, len(st.seen))
	m.SeenPeakBytes = max(m.SeenPeakBytes, sb)
	m.PoolPeakBytes = max(m.PoolPeakBytes, pb)
}

// approxItemBytes estimates one work item's retained heap: maps, the flip
// prefix, and hole-hit snapshots dominate.
func approxItemBytes(it *workItem) uint64 {
	n := uint64(itemBaseBytes)
	n += uint64(len(it.input)+len(it.params)) * mapEntryI64Bytes
	if f := it.flip; f != nil {
		n += uint64(len(f.Prefix)+1) * termRefBytes
		for _, h := range f.HoleHits {
			n += holeHitBytes
			n += uint64(len(h.Snapshot)) * snapshotVarBytes
		}
	}
	return n
}

// approxPoolBytes estimates the patch pool's retained heap (regions
// dominate once refinement splits boxes).
func approxPoolBytes(pl *patch.Pool) uint64 {
	if pl == nil {
		return 0
	}
	var n uint64
	for _, p := range pl.Patches {
		n += patchBaseBytes + poolScorePadBytes
		n += uint64(len(p.Params)) * paramNameBytes
		n += uint64(len(p.Constraint.Boxes)) * uint64(p.Constraint.Dim+1) * boxPerDimBytes
	}
	return n
}
