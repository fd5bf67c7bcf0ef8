// Package govern is the memory governor: it samples the Go runtime's heap
// figures (runtime/metrics) and classifies them against two watermarks:
//
//	high     → the engine shrinks its verdict cache to a quarter; cprd
//	           sheds new submits while a retry backlog drains
//	critical → the engine empties its verdict cache and cprd sheds every
//	           new submit; sustained critical makes the engine fall back
//	           to its anytime best-so-far result, exactly like a budget
//	           expiry
//
// Every action below the sustained-critical stop is a verdict-cache
// shrink, and the cache is pure memoization, so forcing either rung
// produces a bit-identical repair result. The governor itself decides
// nothing about *what* to shrink — it only classifies pressure; the
// owners act.
//
// Determinism: the engine polls the governor only at generation barriers
// (a single coordinator goroutine), and tests force rungs through
// faultinject.MemRung, so a forced-pressure run is exactly reproducible.
// A background Ticker (used by cprd) additionally refreshes the rung for
// admission decisions between barriers; it only reads.
package govern

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"cpr/internal/faultinject"
)

// Rung is a pressure level on the watermark ladder.
type Rung int32

// Ladder rungs, in increasing severity. The numeric values are part of
// the faultinject contract (Plan.MemRung uses them directly).
const (
	RungNone Rung = iota
	RungHigh
	RungCritical
)

// String names a rung for logs and stats payloads.
func (r Rung) String() string {
	switch r {
	case RungHigh:
		return "high"
	case RungCritical:
		return "critical"
	default:
		return "none"
	}
}

// Config sets the watermarks. All-zero watermarks disable real-pressure
// classification (the governor then reports RungNone unless a faultinject
// plan forces a rung — which is exactly what the differential tests use).
type Config struct {
	// HighBytes/CriticalBytes are the ladder watermarks, compared against
	// sampled heap bytes (runtime/metrics heap objects + unused spans) plus
	// any faultinject spike. Unset watermarks are derived from MemLimit
	// when it is set: 70% / 85%.
	HighBytes     uint64
	CriticalBytes uint64
	// MemLimit is the process memory ceiling the watermarks defend
	// (typically the value handed to debug.SetMemoryLimit). Used only to
	// derive unset watermarks.
	MemLimit uint64
	// CriticalStopPolls is how many *consecutive* critical polls it takes
	// before ShouldStop reports true and the engine falls back to its
	// anytime result. Transient critical polls fire the critical rung's
	// cache shrink (result-neutral) without stopping the run.
	// Zero means 4.
	CriticalStopPolls int
	// Warn, when non-nil, receives one line per rung transition.
	Warn func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.MemLimit > 0 {
		if c.HighBytes == 0 {
			c.HighBytes = c.MemLimit / 10 * 7
		}
		if c.CriticalBytes == 0 {
			c.CriticalBytes = c.MemLimit / 100 * 85
		}
	}
	if c.CriticalStopPolls == 0 {
		c.CriticalStopPolls = 4
	}
	return c
}

// Counters is a snapshot of the governor's own activity. Owners count
// their rung *actions* (shrinks, sheds) in their own stats; the governor
// counts polls and classifications.
type Counters struct {
	// Polls is the total number of Poll calls.
	Polls uint64 `json:"polls"`
	// Transitions counts rung changes (any direction).
	Transitions uint64 `json:"transitions"`
	// HighPolls/CriticalPolls count polls classified at each rung (forced
	// or real).
	HighPolls     uint64 `json:"high_polls"`
	CriticalPolls uint64 `json:"critical_polls"`
	// ForcedPolls counts polls whose rung came from a faultinject plan.
	ForcedPolls uint64 `json:"forced_polls"`
	// Stops counts critical streaks that reached CriticalStopPolls.
	Stops uint64 `json:"stops"`
	// HeapBytes is the sampled runtime heap figure (spike included) from
	// the most recent poll.
	HeapBytes uint64 `json:"heap_bytes"`
}

// Governor classifies memory pressure. The zero value is unusable; use
// New. A nil *Governor is a valid "no governance" instance: every method
// is a no-op and every query reports no pressure.
type Governor struct {
	cfg  Config
	rung atomic.Int32

	mu          sync.Mutex
	criticalRun int
	counters    Counters

	// heapSample is replaceable for tests (and nil-safe defaults to the
	// runtime/metrics read).
	heapSample func() uint64

	tickStop chan struct{}
	tickDone chan struct{}
}

// New returns a governor with the given watermarks. A governor with
// all-zero watermarks is still useful: faultinject plans can force rungs
// through it deterministically.
func New(cfg Config) *Governor {
	return &Governor{
		cfg:        cfg.withDefaults(),
		heapSample: sampleHeap,
	}
}

// heapMetrics are the runtime/metrics samples the governor reads: bytes
// occupied by live + unswept heap objects, plus heap memory reserved but
// currently unused. Together they track what GOGC/GOMEMLIMIT manage.
var heapMetrics = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/free:bytes",
	"/memory/classes/heap/unused:bytes",
}

func sampleHeap() uint64 {
	samples := make([]metrics.Sample, len(heapMetrics))
	for i, name := range heapMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var total uint64
	for _, s := range samples {
		if s.Value.Kind() == metrics.KindUint64 {
			total += s.Value.Uint64()
		}
	}
	return total
}

// Poll samples memory and reclassifies the rung. The classification
// consults faultinject first (forced rungs bypass the real figures), then
// compares heap + spike bytes against the watermarks. Returns the new
// rung. RungNone on a nil governor.
func (g *Governor) Poll() Rung {
	if g == nil {
		return RungNone
	}
	rung := RungNone
	forced := false
	if fr, ok := faultinject.MemRung(); ok {
		rung, forced = Rung(fr), true
	}
	var heap uint64
	if !forced {
		if g.cfg.CriticalBytes > 0 || g.cfg.HighBytes > 0 {
			heap = g.heapSample() + faultinject.MemSpike()
			switch {
			case g.cfg.CriticalBytes > 0 && heap >= g.cfg.CriticalBytes:
				rung = RungCritical
			case g.cfg.HighBytes > 0 && heap >= g.cfg.HighBytes:
				rung = RungHigh
			}
		}
	}

	g.mu.Lock()
	g.counters.Polls++
	if forced {
		g.counters.ForcedPolls++
	}
	g.counters.HeapBytes = heap
	switch rung {
	case RungHigh:
		g.counters.HighPolls++
	case RungCritical:
		g.counters.CriticalPolls++
	}
	if rung == RungCritical {
		g.criticalRun++
		if g.criticalRun == g.cfg.CriticalStopPolls {
			g.counters.Stops++
		}
	} else {
		g.criticalRun = 0
	}
	prev := Rung(g.rung.Swap(int32(rung)))
	if prev != rung {
		g.counters.Transitions++
		if g.cfg.Warn != nil {
			g.cfg.Warn("govern: rung %s -> %s (heap %d B)", prev, rung, heap)
		}
	}
	g.mu.Unlock()
	return rung
}

// Rung returns the most recently polled rung without sampling.
// RungNone on a nil governor.
func (g *Governor) Rung() Rung {
	if g == nil {
		return RungNone
	}
	return Rung(g.rung.Load())
}

// ShouldStop reports whether the current critical streak has lasted
// CriticalStopPolls consecutive polls. A poll below critical ends the
// streak, so one governor can outlive many episodes (cprd shares one
// across every job); a stopped run stays stopped through its own latch.
// False on a nil governor.
func (g *Governor) ShouldStop() bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.criticalRun >= g.cfg.CriticalStopPolls
}

// Snapshot returns the governor's counters. Zero on a nil governor.
func (g *Governor) Snapshot() Counters {
	if g == nil {
		return Counters{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.counters
}

// StartTicker polls every interval on a background goroutine until
// StopTicker; cprd uses it so admission decisions see fresh pressure even
// when no engine barrier has polled recently. No-op on a nil governor or
// if a ticker is already running.
func (g *Governor) StartTicker(interval time.Duration) {
	if g == nil || interval <= 0 {
		return
	}
	g.mu.Lock()
	if g.tickStop != nil {
		g.mu.Unlock()
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	g.tickStop, g.tickDone = stop, done
	g.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				g.Poll()
			}
		}
	}()
}

// StopTicker stops the background poller and waits for it to exit.
func (g *Governor) StopTicker() {
	if g == nil {
		return
	}
	g.mu.Lock()
	stop, done := g.tickStop, g.tickDone
	g.tickStop, g.tickDone = nil, nil
	g.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
