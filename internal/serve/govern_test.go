// Memory-governance tests for the daemon: admission sheds under
// pressure, and a GOMEMLIMIT-constrained process survives a memory
// storm — sheds new work with 503 + Retry-After, finishes everything it
// accepted, and shows the episode in /stats.
package serve

import (
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"cpr/internal/faultinject"
	"cpr/internal/govern"
)

// stormWatermarks are unreachable by the test's real heap; only the
// faultinject allocation spike crosses them, so every rung transition in
// these tests is deterministic.
func stormWatermarks() govern.Config {
	return govern.Config{
		HighBytes:     1 << 41,
		CriticalBytes: 1 << 42,
		// Transient critical must not stop accepted jobs mid-test.
		CriticalStopPolls: 1 << 30,
	}
}

// spike forces the governor's next polls to classify at the given rung
// by inflating the sampled heap past the matching watermark.
func spike(t *testing.T, g *govern.Governor, bytes uint64, want govern.Rung) {
	t.Helper()
	faultinject.Deactivate()
	if bytes > 0 {
		faultinject.Activate(&faultinject.Plan{MemSpikeBytes: bytes, MemSpikeEvery: 1})
	}
	if got := g.Poll(); got != want {
		t.Fatalf("forced poll classified %s, want %s", got, want)
	}
}

// TestMemoryStormShedsAndSurvives is the storm suite's headline: a daemon
// running under a hard Go memory limit accepts a batch of real repair
// jobs, gets hit by a storm that drives the governor critical, sheds
// every new submit with 503 + Retry-After while the accepted jobs keep
// running governed, and — once pressure clears — finishes all of them.
// Zero OOM by construction: the process runs the whole episode under
// debug.SetMemoryLimit.
func TestMemoryStormShedsAndSurvives(t *testing.T) {
	prev := debug.SetMemoryLimit(1 << 30)
	defer debug.SetMemoryLimit(prev)
	defer faultinject.Deactivate()

	g := govern.New(stormWatermarks())
	s := newTestServer(t, Config{Runners: 2, Govern: g, GovernTick: -1, Incremental: true})
	s.Start()
	defer s.Drain(30 * time.Second)

	// Phase 1: healthy daemon admits real work.
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, mustSubmit(t, s, quickSpec("acme", fmt.Sprintf("storm-%d", i))).ID)
	}

	// Phase 2: the storm. The spike pushes the sampled heap far past the
	// critical watermark; every submit must shed with 503 + Retry-After.
	spike(t, g, 1<<43, govern.RungCritical)
	const stormSubmits = 8
	for i := 0; i < stormSubmits; i++ {
		_, aerr := s.Submit(quickSpec("acme", fmt.Sprintf("shed-%d", i)))
		if aerr == nil {
			t.Fatal("critical-rung submit was admitted")
		}
		if aerr.Status != 503 {
			t.Fatalf("shed status = %d, want 503", aerr.Status)
		}
		if aerr.RetryAfter <= 0 {
			t.Fatal("memory shed carries no Retry-After")
		}
	}

	// Phase 3: pressure clears; everything accepted still finishes.
	spike(t, g, 0, govern.RungNone)
	for _, id := range ids {
		v := waitTerminal(t, s, id, 60*time.Second)
		if v.State != StateDone || v.Result == nil {
			t.Fatalf("accepted job %s did not survive the storm: %+v", id, v)
		}
	}

	sv := s.Stats()
	if sv.Jobs.RejectedMemory != stormSubmits {
		t.Errorf("global RejectedMemory = %d, want %d", sv.Jobs.RejectedMemory, stormSubmits)
	}
	if sv.Tenants["acme"].RejectedMemory != stormSubmits {
		t.Errorf("tenant RejectedMemory = %d, want %d", sv.Tenants["acme"].RejectedMemory, stormSubmits)
	}
	if sv.Jobs.Done != 3 {
		t.Errorf("Done = %d, want all 3 accepted jobs", sv.Jobs.Done)
	}
	if sv.Mem == nil || sv.Mem.Polls == 0 {
		t.Fatal("/stats carries no governor counters")
	}
	if sv.Mem.CriticalPolls == 0 {
		t.Error("the critical episode left no CriticalPolls in /stats")
	}
	if sv.MemRung != govern.RungNone.String() {
		t.Errorf("mem_rung = %q after the storm, want %q", sv.MemRung, govern.RungNone)
	}
}

// TestMemShedHighAdmitsCriticalSheds: the high rung only shrinks the
// running jobs' caches, so submits are admitted there; the critical rung
// sheds every submit with 503 + Retry-After, and pressure clearing to
// none admits again.
func TestMemShedHighAdmitsCriticalSheds(t *testing.T) {
	defer faultinject.Deactivate()
	g := govern.New(stormWatermarks())
	s := newTestServer(t, Config{Runners: -1, Govern: g, GovernTick: -1})
	defer s.Drain(time.Second)

	spike(t, g, 1<<41, govern.RungHigh)
	mustSubmit(t, s, quickSpec("t1", "high"))

	spike(t, g, 1<<43, govern.RungCritical)
	for _, tenant := range []string{"t1", "t2"} {
		_, aerr := s.Submit(quickSpec(tenant, "critical"))
		if aerr == nil || aerr.Status != 503 || aerr.RetryAfter <= 0 {
			t.Fatalf("critical rung, tenant %s: got %+v, want 503 with Retry-After", tenant, aerr)
		}
	}

	spike(t, g, 0, govern.RungNone)
	mustSubmit(t, s, quickSpec("t2", "cleared"))

	sv := s.Stats()
	if sv.Jobs.RejectedMemory != 2 || sv.Jobs.Accepted != 2 {
		t.Errorf("RejectedMemory = %d, Accepted = %d; want 2 and 2", sv.Jobs.RejectedMemory, sv.Jobs.Accepted)
	}
	if sv.Tenants["t1"].RejectedMemory != 1 || sv.Tenants["t2"].RejectedMemory != 1 {
		t.Errorf("per-tenant RejectedMemory: t1 %d, t2 %d; want 1 each",
			sv.Tenants["t1"].RejectedMemory, sv.Tenants["t2"].RejectedMemory)
	}
}

// TestGovernedDaemonBitIdentical: the same job through a governed daemon
// under forced high pressure and a plain one — identical repair results
// (patches, repaired program, and the deterministic stats; the byte-level
// claim is the core differential suite's), with the governance episode
// visible in the aggregated engine stats.
func TestGovernedDaemonBitIdentical(t *testing.T) {
	plain := newTestServer(t, Config{Runners: 1, Incremental: true})
	plain.Start()
	defer plain.Drain(30 * time.Second)
	pv := mustSubmit(t, plain, divZeroSpec("acme", "plain"))
	want := waitTerminal(t, plain, pv.ID, 60*time.Second)

	faultinject.Activate(&faultinject.Plan{MemRungEvery: 1, MemRung: int(govern.RungHigh)})
	defer faultinject.Deactivate()
	g := govern.New(govern.Config{CriticalStopPolls: 1 << 30})
	governed := newTestServer(t, Config{Runners: 1, Incremental: true, Govern: g, GovernTick: -1})
	governed.Start()
	defer governed.Drain(30 * time.Second)
	gv := mustSubmit(t, governed, divZeroSpec("acme", "governed"))
	got := waitTerminal(t, governed, gv.ID, 60*time.Second)

	if stableFingerprint(got.Result) != stableFingerprint(want.Result) {
		t.Fatalf("governed daemon diverged:\n--- want ---\n%s\n--- got ---\n%s",
			stableFingerprint(want.Result), stableFingerprint(got.Result))
	}
	eng := governed.Stats().Engine
	if eng.GovernPolls == 0 || eng.MemRungHigh == 0 {
		t.Fatalf("governance episode missing from aggregated stats: %+v", eng)
	}
	if eng.MemCacheShrinks == 0 {
		t.Error("no cache shrinks aggregated under forced high pressure")
	}
}

// TestShedSubmitsBuildNothing: a submit shed at the critical rung or by a
// drain is refused before the job is built — no parse, lowering or term
// interning — so all it allocates is its AdmissionError.
func TestShedSubmitsBuildNothing(t *testing.T) {
	defer faultinject.Deactivate()
	g := govern.New(stormWatermarks())
	critical := newTestServer(t, Config{Runners: -1, Govern: g, GovernTick: -1})
	spike(t, g, 1<<43, govern.RungCritical)
	draining := newTestServer(t, Config{Runners: -1})
	if err := draining.Drain(time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	spec := divZeroSpec("acme", "shed")
	for _, tc := range []struct {
		name string
		s    *Server
	}{{"critical", critical}, {"draining", draining}} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, aerr := tc.s.Submit(spec); aerr == nil || aerr.Status != 503 {
				t.Fatalf("%s submit: %+v, want 503", tc.name, aerr)
			}
		})
		if allocs > 1 {
			t.Errorf("%s shed allocated %.0f times per submit, want at most 1 (the AdmissionError)", tc.name, allocs)
		}
	}
	if err := critical.Drain(time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
