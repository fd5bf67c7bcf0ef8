package fuzz

import (
	"context"
	"testing"
	"time"

	"cpr/internal/expr"
	"cpr/internal/faultinject"
	"cpr/internal/interval"
	"cpr/internal/lang"
	"cpr/internal/lang/interp"
)

func TestFindsDivideByZero(t *testing.T) {
	prog := lang.MustParse(`
void main(int x, int y) {
    if (__HOLE__) { return; }
    __BUG__;
    int c = 100 / y;
}`)
	camp := FindFailing(prog, Options{Seed: 1, Original: expr.False()})
	if camp.Failing == nil {
		t.Fatalf("no failing input found in %d runs", camp.Runs)
	}
	if camp.Failing["y"] != 0 {
		t.Fatalf("failing input %v should have y=0", camp.Failing)
	}
	// Confirm it actually crashes.
	out := interp.Run(prog, camp.Failing, interp.Options{Hole: expr.False()})
	if !out.Crashed() {
		t.Fatalf("reported failing input does not crash: %+v", out)
	}
}

func TestFindsGuardedAssertViolation(t *testing.T) {
	// The bug needs a narrow path: x must land in [40, 60] to reach the
	// assert; directedness (bug-location score) should find it.
	prog := lang.MustParse(`
void main(int x) {
    if (x >= 40) {
        if (x <= 60) {
            __BUG__;
            assert(x != 50);
        }
    }
}`)
	camp := FindFailing(prog, Options{Seed: 7, InputBounds: map[string]interval.Interval{
		"x": interval.New(-100, 100),
	}})
	if camp.Failing == nil {
		t.Fatalf("no failing input found in %d runs (bug hits %d)", camp.Runs, camp.BugHits)
	}
	if camp.Failing["x"] != 50 {
		t.Fatalf("failing input %v, want x=50", camp.Failing)
	}
	if camp.BugHits == 0 {
		t.Fatal("bug location never reached before the crash")
	}
}

func TestNoBugWithinBudget(t *testing.T) {
	prog := lang.MustParse(`void main(int x) { int y = x + 1; }`)
	camp := FindFailing(prog, Options{Seed: 3, MaxRuns: 500})
	if camp.Failing != nil {
		t.Fatalf("found a crash in a crash-free program: %v", camp.Failing)
	}
	if camp.Runs != 500 {
		t.Fatalf("budget not honored: %d runs", camp.Runs)
	}
}

func TestDeterministic(t *testing.T) {
	prog := lang.MustParse(`
void main(int x, int y) {
    if (x * x + y * y == 25) {
        assert(false);
    }
}`)
	a := FindFailing(prog, Options{Seed: 11})
	b := FindFailing(prog, Options{Seed: 11})
	if (a.Failing == nil) != (b.Failing == nil) || a.Runs != b.Runs {
		t.Fatalf("campaigns diverge: %+v vs %+v", a, b)
	}
	if a.Failing != nil {
		for k, v := range a.Failing {
			if b.Failing[k] != v {
				t.Fatalf("failing inputs differ: %v vs %v", a.Failing, b.Failing)
			}
		}
	}
}

func TestBoolInputs(t *testing.T) {
	prog := lang.MustParse(`
void main(bool flag, int x) {
    if (flag) {
        assert(x != 3);
    }
}`)
	camp := FindFailing(prog, Options{Seed: 2, InputBounds: map[string]interval.Interval{
		"x": interval.New(0, 10),
	}})
	if camp.Failing == nil {
		t.Fatal("no failing input found")
	}
	if camp.Failing["flag"] != 1 || camp.Failing["x"] != 3 {
		t.Fatalf("failing input %v", camp.Failing)
	}
}

// TestFindFailingTimedOut: a context deadline stops an otherwise long
// campaign with TimedOut set.
func TestFindFailingTimedOut(t *testing.T) {
	prog := lang.MustParse(`void main(int x) { int y = x + 1; }`) // never crashes
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	camp := FindFailing(prog, Options{Seed: 1, MaxRuns: 1 << 30, Context: ctx})
	if !camp.TimedOut {
		t.Fatalf("TimedOut not set after %d runs", camp.Runs)
	}
	if camp.Failing != nil {
		t.Fatalf("crash-free program reported failing input %v", camp.Failing)
	}
}

// TestFindFailingCancelled: a pre-cancelled context stops the campaign
// before any run.
func TestFindFailingCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prog := lang.MustParse(`void main(int x) { int y = x + 1; }`)
	camp := FindFailing(prog, Options{Seed: 1, Context: ctx})
	if !camp.TimedOut || camp.Runs != 0 {
		t.Fatalf("cancelled campaign ran: %+v", camp)
	}
}

// TestFindFailingSurvivesInterpPanics: injected interpreter panics are
// recovered per run and counted; the campaign still terminates cleanly.
func TestFindFailingSurvivesInterpPanics(t *testing.T) {
	faultinject.Activate(&faultinject.Plan{ExecPanicEvery: 2})
	defer faultinject.Deactivate()
	prog := lang.MustParse(`void main(int x) { int y = x + 1; }`)
	camp := FindFailing(prog, Options{Seed: 1, MaxRuns: 50})
	if camp.Panics == 0 {
		t.Fatalf("panics not counted: %+v", camp)
	}
	if camp.Failing != nil {
		t.Fatalf("panicked runs must not count as subject crashes: %+v", camp)
	}
}
