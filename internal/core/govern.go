package core

import "cpr/internal/govern"

// Governor integration: the engine polls Options.Govern at every
// generation barrier (coordinator thread, no fan-out in flight) and
// applies the rung's one action, a verdict-cache shrink — pure
// memoization, so result-neutral:
//
//	high     → shrink the cache to a quarter of its entries
//	critical → empty the cache; pressure sustained across
//	           CriticalStopPolls consecutive polls cancels the engine's
//	           own token — the run ends with its anytime best-so-far
//	           result, exactly like a budget expiry
//
// The frontier is not a rung action: path reduction (§3.4) keeps it
// small — at most 22 items (under 5 KB) on every benchmark subject — and
// maxQueue caps it regardless.

// governAtBarrier runs at every generation barrier: track the structure
// peaks, poll the governor, apply the rung's action. With Options.Govern
// nil it only tracks the peaks (they are reported regardless).
func (e *engine) governAtBarrier(st *exploreState) {
	e.mem.FrontierPeak = max(e.mem.FrontierPeak, len(st.Queue))
	e.mem.SeenPeak = max(e.mem.SeenPeak, len(st.Seen))
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
	keep := 0
	switch rung {
	case govern.RungNone:
		return
	case govern.RungHigh:
		e.mem.MemRungHigh++
		keep = e.opts.SMT.Cache.Len() / 4
	case govern.RungCritical:
		e.mem.MemRungCritical++
	}
	if e.opts.SMT.Cache.Shrink(keep) > 0 {
		e.mem.MemCacheShrinks++
	}
	// Sustained critical: fall back to the anytime result. Cancelling the
	// engine-owned token is byte-for-byte the budget-expiry path.
	if rung == govern.RungCritical && !e.mem.MemStopped && g.ShouldStop() {
		e.mem.MemStopped = true
		e.tok.Cancel()
	}
}
