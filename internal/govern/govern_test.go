package govern

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cpr/internal/faultinject"
)

// fixedHeap installs a deterministic heap sampler.
func fixedHeap(g *Governor, bytes uint64) { g.heapSample = func() uint64 { return bytes } }

func TestNilGovernorIsInert(t *testing.T) {
	var g *Governor
	if r := g.Poll(); r != RungNone {
		t.Fatalf("nil Poll = %v", r)
	}
	if g.Rung() != RungNone || g.ShouldStop() {
		t.Fatal("nil governor reported pressure")
	}
	g.StartTicker(time.Millisecond)
	g.StopTicker()
	if (g.Snapshot() != Counters{}) {
		t.Fatal("nil Snapshot non-zero")
	}
}

func TestWatermarkLadder(t *testing.T) {
	g := New(Config{HighBytes: 200, CriticalBytes: 300})
	for _, tc := range []struct {
		heap uint64
		want Rung
	}{{50, RungNone}, {199, RungNone}, {200, RungHigh}, {299, RungHigh}, {300, RungCritical}, {50, RungNone}} {
		fixedHeap(g, tc.heap)
		if got := g.Poll(); got != tc.want {
			t.Errorf("heap %d: rung %v, want %v", tc.heap, got, tc.want)
		}
		if g.Rung() != tc.want {
			t.Errorf("heap %d: cached rung %v, want %v", tc.heap, g.Rung(), tc.want)
		}
	}
	c := g.Snapshot()
	if c.Polls != 6 || c.HighPolls != 2 || c.CriticalPolls != 1 {
		t.Fatalf("counters %+v", c)
	}
	// none→high, high→critical, critical→none.
	if c.Transitions != 3 {
		t.Fatalf("transitions %d, want 3", c.Transitions)
	}
}

func TestDerivedWatermarks(t *testing.T) {
	g := New(Config{MemLimit: 1000})
	if g.cfg.HighBytes != 700 || g.cfg.CriticalBytes != 850 {
		t.Fatalf("derived watermarks %d/%d", g.cfg.HighBytes, g.cfg.CriticalBytes)
	}
	// Explicit values win over derivation.
	g = New(Config{MemLimit: 1000, HighBytes: 600})
	if g.cfg.HighBytes != 600 {
		t.Fatalf("explicit HighBytes overridden: %d", g.cfg.HighBytes)
	}
}

func TestUnconfiguredGovernorSkipsSampling(t *testing.T) {
	g := New(Config{})
	g.heapSample = func() uint64 { t.Fatal("sampled heap with no watermarks"); return 0 }
	if r := g.Poll(); r != RungNone {
		t.Fatalf("rung %v", r)
	}
}

func TestForcedRungBypassesHeap(t *testing.T) {
	faultinject.Activate(&faultinject.Plan{MemRungEvery: 2, MemRung: int(RungHigh)})
	defer faultinject.Deactivate()
	g := New(Config{}) // no watermarks: only forcing can raise the rung
	if r := g.Poll(); r != RungNone {
		t.Fatalf("poll 1 rung %v", r)
	}
	if r := g.Poll(); r != RungHigh {
		t.Fatalf("poll 2 rung %v, want high", r)
	}
	c := g.Snapshot()
	if c.ForcedPolls != 1 || c.HighPolls != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestSustainedCriticalStops(t *testing.T) {
	g := New(Config{HighBytes: 2, CriticalBytes: 3, CriticalStopPolls: 3})
	fixedHeap(g, 10)
	for i := 1; i <= 2; i++ {
		g.Poll()
		if g.ShouldStop() {
			t.Fatalf("stopped after %d critical polls", i)
		}
	}
	g.Poll()
	if !g.ShouldStop() {
		t.Fatal("not stopped after 3 consecutive critical polls")
	}
	// A run of critical polls broken by recovery resets the streak.
	g2 := New(Config{CriticalBytes: 3, CriticalStopPolls: 3})
	fixedHeap(g2, 10)
	g2.Poll()
	g2.Poll()
	fixedHeap(g2, 0)
	g2.Poll() // recovery
	fixedHeap(g2, 10)
	g2.Poll()
	g2.Poll()
	if g2.ShouldStop() {
		t.Fatal("stopped despite broken critical streak")
	}
	g2.Poll()
	if !g2.ShouldStop() {
		t.Fatal("not stopped after re-sustained critical")
	}
	if c := g2.Snapshot(); c.Stops != 1 {
		t.Fatalf("Stops = %d", c.Stops)
	}
	// The stop belongs to the streak, not to the governor: once pressure
	// falls below critical, a later episode needs a full streak again
	// (cprd shares one governor across every job it runs).
	fixedHeap(g2, 0)
	if g2.Poll(); g2.ShouldStop() {
		t.Fatal("stop outlived the critical streak")
	}
	fixedHeap(g2, 10)
	for i := 1; i <= 2; i++ {
		if g2.Poll(); g2.ShouldStop() {
			t.Fatalf("stopped after %d critical polls of a new episode", i)
		}
	}
	if g2.Poll(); !g2.ShouldStop() {
		t.Fatal("not stopped after the new episode's 3 consecutive critical polls")
	}
	if c := g2.Snapshot(); c.Stops != 2 {
		t.Fatalf("Stops = %d after two sustained episodes, want 2", c.Stops)
	}
}

func TestMemSpikeRaisesSample(t *testing.T) {
	faultinject.Activate(&faultinject.Plan{MemSpikeEvery: 2, MemSpikeBytes: 1000})
	defer faultinject.Deactivate()
	g := New(Config{CriticalBytes: 500})
	fixedHeap(g, 10)
	if r := g.Poll(); r != RungNone {
		t.Fatalf("poll 1 rung %v", r)
	}
	if r := g.Poll(); r != RungCritical {
		t.Fatalf("poll 2 rung %v, want critical (spiked)", r)
	}
}

func TestWarnOnTransition(t *testing.T) {
	var lines []string
	g := New(Config{HighBytes: 100, Warn: func(f string, a ...interface{}) {
		lines = append(lines, fmt.Sprintf(f, a...))
	}})
	fixedHeap(g, 200)
	g.Poll()
	g.Poll() // same rung: no second line
	fixedHeap(g, 0)
	g.Poll()
	if len(lines) != 2 {
		t.Fatalf("warn lines %q", lines)
	}
}

func TestTickerPolls(t *testing.T) {
	g := New(Config{HighBytes: 1})
	fixedHeap(g, 10)
	g.StartTicker(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for g.Snapshot().Polls < 3 {
		if time.Now().After(deadline) {
			t.Fatal("ticker never polled")
		}
		time.Sleep(time.Millisecond)
	}
	g.StopTicker()
	g.StopTicker() // idempotent
	if g.Rung() != RungHigh {
		t.Fatalf("rung %v after ticker", g.Rung())
	}
}

// TestConcurrentPoll races every reader against Poll; run it under -race.
func TestConcurrentPoll(t *testing.T) {
	g := New(Config{HighBytes: 1, CriticalBytes: 8, CriticalStopPolls: 2})
	fixedHeap(g, 10)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g.Poll()
				g.Rung()
				g.Snapshot()
				g.ShouldStop()
			}
		}()
	}
	wg.Wait()
	if c := g.Snapshot(); c.Polls != 800 || c.CriticalPolls != 800 || c.Stops != 1 {
		t.Fatalf("counters after 800 concurrent critical polls: %+v", c)
	}
}

func TestSampleHeapReadsMetrics(t *testing.T) {
	if sampleHeap() == 0 {
		t.Fatal("sampleHeap returned 0 — metric names wrong?")
	}
}
