package guard

import (
	"testing"
	"time"

	"cpr/internal/expr"
	"cpr/internal/interval"
)

var def = interval.New(-1000, 1000)

func TestValidateModelAccepts(t *testing.T) {
	g := New(Config{})
	x, y := expr.IntVar("x"), expr.IntVar("y")
	f := expr.And(expr.Gt(x, expr.Int(3)), expr.Lt(y, expr.Int(0)))
	ok := g.ValidateModel(f, map[string]interval.Interval{"x": interval.New(0, 10)}, def,
		expr.Model{"x": 5, "y": -2})
	if !ok {
		t.Fatal("valid model rejected")
	}
	c := g.Counters()
	if c.Validations != 1 || c.ValidationFailures != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestValidateModelRejectsFalseModel(t *testing.T) {
	g := New(Config{})
	x := expr.IntVar("x")
	f := expr.Gt(x, expr.Int(3))
	if g.ValidateModel(f, nil, def, expr.Model{"x": 1}) {
		t.Fatal("model violating the term accepted")
	}
	if c := g.Counters(); c.ValidationFailures != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestValidateModelRejectsOutOfBounds(t *testing.T) {
	g := New(Config{})
	x := expr.IntVar("x")
	f := expr.Gt(x, expr.Int(3))
	// Satisfies the term but escapes the explicit domain — exactly the shape
	// of a bit-flipped model.
	if g.ValidateModel(f, map[string]interval.Interval{"x": interval.New(0, 10)}, def,
		expr.Model{"x": 5 + (1 << 40)}) {
		t.Fatal("out-of-domain model accepted")
	}
	// The default domain must catch unbounded variables too.
	if g.ValidateModel(f, nil, def, expr.Model{"x": 5 + (1 << 40)}) {
		t.Fatal("model outside the default domain accepted")
	}
}

func TestValidateModelEvalErrorInconclusive(t *testing.T) {
	g := New(Config{})
	x, y := expr.IntVar("x"), expr.IntVar("y")
	// Division by zero under the model: the strict evaluator errors, which
	// must count as inconclusive (accept), not as a failure.
	f := expr.Eq(expr.Div(x, y), expr.Int(0))
	if !g.ValidateModel(f, nil, def, expr.Model{"x": 1, "y": 0}) {
		t.Fatal("inconclusive evaluation treated as failure")
	}
	if c := g.Counters(); c.ValidationFailures != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestShouldCrossCheckSampling(t *testing.T) {
	t.Setenv("CPR_PARANOID", "") // the test pins the rate; a paranoid env would force 1
	g := New(Config{CrossCheckEvery: 4})
	got := 0
	for i := 0; i < 8; i++ {
		if g.ShouldCrossCheck() {
			got++
			if i != 0 && i != 4 {
				t.Fatalf("sampled unsat #%d; want #0 and #4", i)
			}
		}
	}
	if got != 2 {
		t.Fatalf("sampled %d of 8; want 2", got)
	}
}

func TestShouldCrossCheckEvery(t *testing.T) {
	g := New(Config{CrossCheckEvery: 1})
	for i := 0; i < 5; i++ {
		if !g.ShouldCrossCheck() {
			t.Fatalf("unsat #%d not sampled at rate 1", i)
		}
	}
}

func TestParanoidForcesFullSampling(t *testing.T) {
	g := New(Config{Paranoid: true, CrossCheckEvery: 16})
	if g.Config().CrossCheckEvery != 1 {
		t.Fatalf("paranoid CrossCheckEvery = %d; want 1", g.Config().CrossCheckEvery)
	}
}

func TestParanoidEnv(t *testing.T) {
	t.Setenv("CPR_PARANOID", "1")
	if !ParanoidEnv() {
		t.Fatal("CPR_PARANOID=1 not detected")
	}
	g := New(Config{})
	if g.Config().CrossCheckEvery != 1 {
		t.Fatalf("env paranoid CrossCheckEvery = %d; want 1", g.Config().CrossCheckEvery)
	}
	t.Setenv("CPR_PARANOID", "0")
	if ParanoidEnv() {
		t.Fatal("CPR_PARANOID=0 treated as paranoid")
	}
}

func TestQuarantineBackoffAndReadmission(t *testing.T) {
	g := New(Config{RebuildBackoff: 5 * time.Millisecond, BreakerThreshold: 10})
	if !g.RungAvailable() {
		t.Fatal("fresh rung unavailable")
	}
	g.QuarantineRung()
	if g.RungAvailable() {
		t.Fatal("rung available immediately after quarantine")
	}
	deadline := time.Now().Add(2 * time.Second)
	for !g.RungAvailable() {
		if time.Now().After(deadline) {
			t.Fatal("rung never readmitted after backoff")
		}
		time.Sleep(time.Millisecond)
	}
	c := g.Counters()
	if c.Quarantines != 1 || c.RebuildRetries != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	g := New(Config{RebuildBackoff: 10 * time.Millisecond, RebuildBackoffMax: 20 * time.Millisecond, BreakerThreshold: 100})
	// Consume three quarantines; the third backoff would be 40ms uncapped.
	for i := 0; i < 3; i++ {
		g.QuarantineRung()
		g.backoff = time.Time{} // skip the wait; we only probe the durations below
	}
	g.failStreak = 2
	g.QuarantineRung() // failStreak 3 → 10ms<<2 = 40ms, capped to 20ms
	start := time.Now()
	deadline := start.Add(2 * time.Second)
	for !g.RungAvailable() {
		if time.Now().After(deadline) {
			t.Fatal("rung never readmitted")
		}
		time.Sleep(time.Millisecond)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("backoff %v exceeds cap by far", waited)
	}
}

func TestBreakerTripsAndPins(t *testing.T) {
	g := New(Config{BreakerThreshold: 3, RebuildBackoff: time.Nanosecond})
	for i := 0; i < 3; i++ {
		if g.BreakerOpen() {
			t.Fatalf("breaker open after %d failures; threshold 3", i)
		}
		for !g.RungAvailable() {
			time.Sleep(time.Millisecond)
		}
		g.QuarantineRung()
	}
	if !g.BreakerOpen() {
		t.Fatal("breaker not open at threshold")
	}
	if g.RungAvailable() {
		t.Fatal("rung available with breaker open")
	}
	// Pinned for good: no backoff expiry readmits it.
	time.Sleep(2 * time.Millisecond)
	if g.RungAvailable() {
		t.Fatal("breaker-pinned rung readmitted")
	}
	c := g.Counters()
	if c.BreakerTrips != 1 || !c.BreakerOpen {
		t.Fatalf("counters = %+v", c)
	}
	// Further failures must not re-trip.
	g.QuarantineRung()
	if c := g.Counters(); c.BreakerTrips != 1 {
		t.Fatalf("breaker re-tripped: %+v", c)
	}
}
