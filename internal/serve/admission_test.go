package serve

import (
	"sync"
	"testing"
	"time"
)

// fakeClock drives Config.Now so rate-limit tests are deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestTenantQuota429(t *testing.T) {
	s := newTestServer(t, Config{Runners: -1, TenantMaxOutstanding: 2, QueueMax: 100})
	defer s.Drain(time.Second)
	mustSubmit(t, s, quickSpec("alice", "a"))
	mustSubmit(t, s, quickSpec("alice", "b"))
	_, aerr := s.Submit(quickSpec("alice", "c"))
	if aerr == nil || aerr.Status != 429 || aerr.RetryAfter <= 0 {
		t.Fatalf("third submit: %+v, want 429 with Retry-After", aerr)
	}
	// The quota is per tenant: another tenant is unaffected.
	mustSubmit(t, s, quickSpec("bob", "a"))
	sv := s.Stats()
	if sv.Tenants["alice"].RejectedQuota != 1 || sv.Jobs.RejectedQuota != 1 {
		t.Fatalf("quota rejection not counted: %+v", sv.Jobs)
	}
	if sv.Tenants["bob"].RejectedQuota != 0 {
		t.Fatal("bob charged for alice's rejection")
	}
}

// TestQueueFullStorm: a submit storm against a small queue sheds load with
// 503 and never grows the queue past its bound; every accepted job is
// accounted, every rejected one counted, nothing is lost.
func TestQueueFullStorm(t *testing.T) {
	s := newTestServer(t, Config{Runners: -1, QueueMax: 4, TenantMaxOutstanding: 1000})
	defer s.Drain(time.Second)
	var accepted, shed int
	for i := 0; i < 50; i++ {
		_, aerr := s.Submit(quickSpec("storm", "x"))
		switch {
		case aerr == nil:
			accepted++
		case aerr.Status == 503:
			shed++
			if aerr.RetryAfter <= 0 {
				t.Fatal("503 without Retry-After")
			}
		default:
			t.Fatalf("unexpected rejection: %+v", aerr)
		}
	}
	if accepted != 4 || shed != 46 {
		t.Fatalf("accepted=%d shed=%d, want 4/46", accepted, shed)
	}
	sv := s.Stats()
	if sv.Queued != 4 {
		t.Fatalf("queued=%d, want 4", sv.Queued)
	}
	if sv.Jobs.Accepted != 4 || sv.Jobs.RejectedQueueFull != 46 {
		t.Fatalf("accounting: %+v", sv.Jobs)
	}
	if got := len(s.List("")); got != 4 {
		t.Fatalf("job table has %d entries, want only the accepted 4", got)
	}
}

func TestRateLimit429WithRetryAfter(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := newTestServer(t, Config{
		Runners: -1, RatePerSec: 1, Burst: 2,
		TenantMaxOutstanding: 1000, QueueMax: 1000,
		Now: clk.now,
	})
	defer s.Drain(time.Second)

	mustSubmit(t, s, quickSpec("alice", "a"))
	mustSubmit(t, s, quickSpec("alice", "b"))
	_, aerr := s.Submit(quickSpec("alice", "c"))
	if aerr == nil || aerr.Status != 429 {
		t.Fatalf("burst exceeded: %+v, want 429", aerr)
	}
	if aerr.RetryAfter <= 0 || aerr.RetryAfter > time.Second {
		t.Fatalf("Retry-After %v, want (0, 1s]", aerr.RetryAfter)
	}
	// Buckets are per tenant.
	mustSubmit(t, s, quickSpec("bob", "a"))

	// After the advertised wait, the submit goes through.
	clk.advance(aerr.RetryAfter)
	mustSubmit(t, s, quickSpec("alice", "c"))

	sv := s.Stats()
	if sv.Tenants["alice"].RejectedRate != 1 || sv.Jobs.RejectedRate != 1 {
		t.Fatalf("rate rejection not counted: %+v", sv.Jobs)
	}
}

func TestDrainingRejectsSubmits(t *testing.T) {
	s := newTestServer(t, Config{Runners: -1})
	if err := s.Drain(time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if s.Ready() {
		t.Fatal("Ready() true after drain")
	}
	_, aerr := s.Submit(quickSpec("alice", "late"))
	if aerr == nil || aerr.Status != 503 {
		t.Fatalf("submit while draining: %+v, want 503", aerr)
	}
	if sv := s.Stats(); sv.Jobs.RejectedDraining != 1 || !sv.Draining {
		t.Fatalf("draining rejection not counted: %+v", sv)
	}
}
