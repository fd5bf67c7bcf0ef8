package serve

import (
	"math"
	"time"

	"cpr/internal/core"
)

// tokenBucket is the per-tenant submit rate limiter: capacity burst,
// refilled at rate tokens/second. take either consumes a token or reports
// how long until one is available (the 429 Retry-After value).
type tokenBucket struct {
	rate   float64 // tokens per second; <= 0 disables the limiter
	burst  float64
	tokens float64
	last   time.Time
}

func (b *tokenBucket) take(now time.Time) (ok bool, wait time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	if b.last.IsZero() {
		b.tokens = b.burst
	} else {
		b.tokens = math.Min(b.burst, b.tokens+now.Sub(b.last).Seconds()*b.rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / b.rate
	return false, time.Duration(need * float64(time.Second))
}

// TenantStats is one tenant's slice of the /stats payload. Counters only
// move forward within one daemon process; they restart at zero after a
// restart (the journal carries job outcomes, not rejection tallies).
type TenantStats struct {
	// Admission outcomes.
	Accepted          uint64 `json:"accepted"`
	RejectedRate      uint64 `json:"rejected_rate"`
	RejectedQuota     uint64 `json:"rejected_quota"`
	RejectedQueueFull uint64 `json:"rejected_queue_full"`
	RejectedDraining  uint64 `json:"rejected_draining"`
	RejectedMemory    uint64 `json:"rejected_memory"`
	// Lifecycle outcomes.
	Done      uint64 `json:"done"`
	Cancelled uint64 `json:"cancelled"`
	Failed    uint64 `json:"failed"`
	Expired   uint64 `json:"expired"`
	// Engine sums the core.Stats of this tenant's completed attempts, so
	// one tenant's solver traffic and quarantine storms are visible as
	// theirs; TimedOutRuns counts those attempts that ended on a budget.
	Engine       core.Stats `json:"engine"`
	TimedOutRuns uint64     `json:"timed_out_runs"`
}

// tenantState is the scheduler's per-tenant record: its FIFO of queued
// jobs, its live counts against the quotas, its rate limiter, and its
// stats. Guarded by the server mutex.
type tenantState struct {
	name    string
	q       []*job // FIFO of queued jobs
	queued  int    // == len(q)
	running int
	bucket  tokenBucket
	stats   TenantStats
}

// outstanding is the tenant's admission-control load: jobs the daemon is
// still obligated to run.
func (ts *tenantState) outstanding() int { return ts.queued + ts.running }

func (s *Server) tenantLocked(name string) *tenantState {
	ts := s.tenants[name]
	if ts == nil {
		ts = &tenantState{
			name:   name,
			bucket: tokenBucket{rate: s.cfg.RatePerSec, burst: float64(s.cfg.Burst)},
		}
		s.tenants[name] = ts
		s.order = append(s.order, name)
	}
	return ts
}
