// Package serve turns the repair library into a long-lived, fault-isolated,
// multi-tenant daemon: an HTTP/JSON job API over a shared scheduler that
// runs repair jobs on the internal/core engine.
//
// The robustness surface is the point of the package:
//
//   - Admission control: per-tenant token-bucket rate limits and
//     outstanding-job quotas answer 429 with Retry-After; a bounded global
//     queue sheds load with 503. A job is journaled (fsync) before its 202
//     is sent — an accepted job is never silently dropped.
//   - Fault isolation: each attempt runs panic-recovered on a runner; a
//     failed attempt retries with jittered exponential backoff until a
//     bounded attempt count, then parks in a dead-letter state with its
//     error recorded. One tenant's poison job cannot take the daemon down,
//     and the PR 4 self-healing ladder's health counters are attributed to
//     the tenant whose job incurred them.
//   - Graceful drain: SIGTERM (via Drain) stops admission, cooperatively
//     cancels in-flight jobs — each resumes later from its last clean
//     periodic checkpoint — and leaves interrupted jobs non-terminal in the
//     journal.
//     A restarted daemon (Config.Resume) replays the journal and resumes
//     them to the same repair (ranked pool and exploration stats; the
//     solver-work counters restart with a cold verdict cache), the same
//     guarantee a SIGKILL gets from the periodic checkpoints.
package serve

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cpr/internal/cancel"
	"cpr/internal/core"
	"cpr/internal/faultinject"
	"cpr/internal/govern"
)

// Config tunes the daemon. The zero value of every field gets a sane
// default from withDefaults, so tests and main can set only what they mean.
type Config struct {
	// StateDir is the daemon's durable root: the job journal plus one
	// engine checkpoint directory per live job. Required.
	StateDir string
	// Resume replays the journal in StateDir on construction: finished
	// jobs keep serving their recorded results, unfinished ones re-enqueue
	// and resume from their engine checkpoints.
	Resume bool

	// Runners is the number of concurrently running jobs (default 2).
	// Negative means zero runners — jobs queue but never run — which only
	// admission tests want.
	Runners int
	// EngineWorkers sizes each job's exploration worker pool (default 1).
	// Results are bit-identical for any value; see internal/core.
	EngineWorkers int

	// QueueMax bounds the global queued-job count (default 64); submits
	// beyond it are shed with 503.
	QueueMax int
	// TenantMaxOutstanding bounds one tenant's queued+running+retrying
	// jobs (default 8); submits beyond it get 429.
	TenantMaxOutstanding int
	// TenantRunning bounds one tenant's concurrently running jobs
	// (default max(1, Runners/2)), so a single tenant cannot monopolize
	// the runner pool while others queue.
	TenantRunning int
	// RatePerSec and Burst shape each tenant's submit token bucket
	// (default: no rate limit; Burst defaults to 4 when a rate is set).
	RatePerSec float64
	Burst      int

	// MaxAttempts bounds a job's attempts before dead-lettering
	// (default 3).
	MaxAttempts int
	// RetryBase and RetryMax shape the jittered exponential backoff
	// between attempts (defaults 200ms and 10s).
	RetryBase time.Duration
	RetryMax  time.Duration

	// QueueTimeout expires jobs that waited in the queue longer than this
	// (0 = never): stale work is shed instead of running long after the
	// client gave up.
	QueueTimeout time.Duration
	// RunTimeout hard-bounds one attempt's wall clock (0 = none). The
	// engine's anytime contract still yields a best-so-far result.
	RunTimeout time.Duration

	// CheckpointInterval is the engine's generation-barrier snapshot
	// interval for each job (default 4 — denser than the CLI default,
	// since daemon jobs must survive arbitrary interruption cheaply).
	CheckpointInterval int
	// Incremental and Paranoid configure the per-job solver stack as the
	// CLIs do.
	Incremental bool
	Paranoid    bool

	// NewDistributor, when set, becomes every job attempt's
	// core.Options.NewDistributor (internal/perf wires traced in-process
	// replicas here). Results are bit-identical with or without it, so it
	// is purely a wall-clock lever, like EngineWorkers.
	NewDistributor func(core.Job, core.Options) (core.Distributor, error)

	// Govern, when non-nil, makes the daemon memory-aware: submits are
	// shed with 503 + Retry-After under pressure (every submit at the
	// critical rung; at the high rung while a retry backlog is still
	// draining — finishing accepted work beats admitting new work), and
	// every job attempt runs governed (core.Options.Govern: verdict-cache
	// shrinks and the anytime stop). cmd/cprd builds one from its -mem-*
	// flags. Every shrink and shed is result-neutral:
	// a shed client retries later to the same answer an unpressured daemon
	// would have produced.
	Govern *govern.Governor
	// GovernTick is the governor's background polling interval, keeping
	// admission decisions fresh even when no engine barrier has polled
	// recently (default 250ms when Govern is set; negative disables the
	// ticker — tests poll deterministically instead).
	GovernTick time.Duration

	// Seed seeds the retry jitter (0 = seeded from the clock).
	Seed int64
	// RetryAfterHint is the Retry-After value for quota and queue-full
	// rejections, where no natural token-refill time exists (default 1s).
	RetryAfterHint time.Duration
	// Warn receives non-fatal diagnostics (journal/checkpoint trouble).
	Warn func(msg string)
	// Now overrides the clock for tests.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Runners == 0 {
		c.Runners = 2
	}
	if c.Runners < 0 {
		c.Runners = 0
	}
	if c.EngineWorkers == 0 {
		c.EngineWorkers = 1
	}
	if c.QueueMax == 0 {
		c.QueueMax = 64
	}
	if c.TenantMaxOutstanding == 0 {
		c.TenantMaxOutstanding = 8
	}
	if c.TenantRunning == 0 {
		c.TenantRunning = c.Runners / 2
		if c.TenantRunning < 1 {
			c.TenantRunning = 1
		}
	}
	if c.Burst == 0 {
		c.Burst = 4
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBase == 0 {
		c.RetryBase = 200 * time.Millisecond
	}
	if c.RetryMax == 0 {
		c.RetryMax = 10 * time.Second
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 4
	}
	if c.RetryAfterHint == 0 {
		c.RetryAfterHint = time.Second
	}
	if c.Govern != nil && c.GovernTick == 0 {
		c.GovernTick = 250 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

func (c Config) warnf(format string, args ...any) {
	if c.Warn != nil {
		c.Warn(fmt.Sprintf(format, args...))
	}
}

// GlobalStats is the daemon-wide slice of the /stats payload.
type GlobalStats struct {
	Accepted          uint64 `json:"accepted"`
	Resumed           uint64 `json:"resumed"`
	Done              uint64 `json:"done"`
	Cancelled         uint64 `json:"cancelled"`
	DeadLetter        uint64 `json:"dead_letter"`
	Expired           uint64 `json:"expired"`
	AttemptsFailed    uint64 `json:"attempts_failed"`
	Retries           uint64 `json:"retries"`
	RejectedInvalid   uint64 `json:"rejected_invalid"`
	RejectedRate      uint64 `json:"rejected_rate"`
	RejectedQuota     uint64 `json:"rejected_quota"`
	RejectedQueueFull uint64 `json:"rejected_queue_full"`
	RejectedDraining  uint64 `json:"rejected_draining"`
	// RejectedMemory counts submits shed under memory pressure (503 +
	// Retry-After); MemStoppedRuns counts attempts the governor stopped
	// into their anytime best-so-far result.
	RejectedMemory uint64 `json:"rejected_memory,omitempty"`
	MemStoppedRuns uint64 `json:"mem_stopped_runs,omitempty"`
}

// StatsView is the GET /stats payload.
type StatsView struct {
	UptimeMS     int64                  `json:"uptime_ms"`
	Ready        bool                   `json:"ready"`
	Draining     bool                   `json:"draining"`
	Queued       int                    `json:"queued"`
	Running      int                    `json:"running"`
	RetryWaiting int                    `json:"retry_waiting"`
	Jobs         GlobalStats            `json:"jobs"`
	Tenants      map[string]TenantStats `json:"tenants"`
	// Engine sums the core.Stats of every completed attempt with
	// core.Stats.Add, under the same keys as a job's result.stats.
	Engine core.Stats `json:"engine"`
	// Memory governance (present only when a governor is configured): the
	// last polled rung and the governor's poll/transition counters.
	MemRung string           `json:"mem_rung,omitempty"`
	Mem     *govern.Counters `json:"mem,omitempty"`
}

// AdmissionError is a rejected submit: an HTTP status, an optional
// Retry-After, and a client-safe message.
type AdmissionError struct {
	Status     int
	RetryAfter time.Duration
	Msg        string
}

func (e *AdmissionError) Error() string { return e.Msg }

// Server is the repair daemon: scheduler, job table, journal, and HTTP
// handler (see http.go). Construct with New, launch runners with Start,
// shut down with Drain.
type Server struct {
	cfg Config
	jl  *jobJournal

	mu          sync.Mutex
	cond        *sync.Cond
	jobs        map[string]*job
	tenants     map[string]*tenantState
	order       []string // tenant round-robin rotation, first-seen order
	rrCursor    int
	queued      int // total queued across tenants
	nextSeq     uint64
	draining    bool
	stopRunners bool
	rng         *rand.Rand
	global      GlobalStats
	agg         core.Stats

	start time.Time
	wg    sync.WaitGroup
}

// New opens (or creates) the daemon state in cfg.StateDir and, with
// cfg.Resume, replays the job journal: jobs with recorded outcomes serve
// them from memory, unfinished jobs re-enqueue and resume from their
// engine checkpoints where they have one. Runners do not start until Start.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("serve: Config.StateDir is required")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	s := &Server{
		cfg:     cfg,
		jobs:    map[string]*job{},
		tenants: map[string]*tenantState{},
		rng:     rand.New(rand.NewSource(seed)),
		start:   cfg.Now(),
	}
	s.cond = sync.NewCond(&s.mu)

	if cfg.Resume {
		replayed, err := replayJobLog(cfg.StateDir, cfg.Warn)
		if err != nil {
			return nil, fmt.Errorf("serve: journal replay: %w", err)
		}
		for _, rj := range replayed {
			s.restoreJob(rj)
		}
	}
	jl, err := openJobJournal(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	s.jl = jl
	return s, nil
}

// restoreJob installs one replayed job: terminal ones keep serving their
// recorded outcome, live ones re-enqueue (their next attempt resumes if
// they wrote a checkpoint).
func (s *Server) restoreJob(rj *replayedJob) {
	if rj.seq >= s.nextSeq {
		s.nextSeq = rj.seq + 1
	}
	j := &job{
		id:        rj.id,
		spec:      rj.spec,
		submitSeq: rj.seq,
		attempts:  rj.attempts,
		lastErr:   rj.lastErr,
		result:    rj.result,
	}
	ts := s.tenantLocked(rj.spec.Tenant)
	if rj.state != "" {
		j.state = rj.state
		s.jobs[j.id] = j
		return
	}
	cj, err := buildJob(rj.spec)
	if err != nil {
		// The spec was validated at admission; failing now means the
		// catalog or language changed under the journal. Dead-letter it
		// in memory (the journal stays as-is; a later replay with the
		// original build would still see it live).
		s.cfg.warnf("serve: replayed job %s no longer buildable, dead-lettered: %v", j.id, err)
		j.state = StateDeadLetter
		j.lastErr = fmt.Sprintf("replay: %v", err)
		s.jobs[j.id] = j
		return
	}
	j.core = cj
	j.state = StateQueued
	j.enqueuedAt = s.cfg.Now()
	s.jobs[j.id] = j
	ts.q = append(ts.q, j)
	ts.queued++
	s.queued++
	s.global.Resumed++
	s.armQueueTimeout(j)
}

// Start launches the runner pool. Separate from New so a resuming process
// can finish wiring (HTTP listener, signal handlers) before jobs move, and
// so tests can submit a deterministic backlog first.
func (s *Server) Start() {
	if s.cfg.GovernTick > 0 {
		s.cfg.Govern.StartTicker(s.cfg.GovernTick)
	}
	for i := 0; i < s.cfg.Runners; i++ {
		s.wg.Add(1)
		go s.runner()
	}
}

// Submit admits one job. On success the job is durably journaled and
// queued, and its initial view is returned; on rejection the AdmissionError
// carries the HTTP status and Retry-After for the transport layer.
func (s *Server) Submit(spec JobSpec) (StatusView, *AdmissionError) {
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	cj, err := buildJob(spec)
	if err != nil {
		s.mu.Lock()
		s.global.RejectedInvalid++
		s.mu.Unlock()
		return StatusView{}, &AdmissionError{Status: 400, Msg: err.Error()}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.tenantLocked(spec.Tenant)
	if s.draining || s.stopRunners {
		ts.stats.RejectedDraining++
		s.global.RejectedDraining++
		return StatusView{}, &AdmissionError{Status: 503, RetryAfter: s.cfg.RetryAfterHint, Msg: "draining"}
	}
	// Memory shed: at the critical rung every new submit is refused; at
	// the high rung new submits are refused while a retry backlog exists —
	// the daemon prefers draining work it already owes over taking on
	// more. 503 + Retry-After, like queue-full: the condition is the
	// daemon's, not the client's.
	if rung := s.cfg.Govern.Rung(); rung == govern.RungCritical ||
		(rung == govern.RungHigh && s.retryBacklogLocked() > 0) {
		ts.stats.RejectedMemory++
		s.global.RejectedMemory++
		return StatusView{}, &AdmissionError{Status: 503, RetryAfter: s.cfg.RetryAfterHint, Msg: "memory pressure"}
	}
	if ok, wait := ts.bucket.take(s.cfg.Now()); !ok {
		ts.stats.RejectedRate++
		s.global.RejectedRate++
		return StatusView{}, &AdmissionError{Status: 429, RetryAfter: wait, Msg: "rate limit exceeded"}
	}
	if ts.outstanding() >= s.cfg.TenantMaxOutstanding {
		ts.stats.RejectedQuota++
		s.global.RejectedQuota++
		return StatusView{}, &AdmissionError{Status: 429, RetryAfter: s.cfg.RetryAfterHint, Msg: "tenant quota exhausted"}
	}
	if s.queued >= s.cfg.QueueMax {
		ts.stats.RejectedQueueFull++
		s.global.RejectedQueueFull++
		return StatusView{}, &AdmissionError{Status: 503, RetryAfter: s.cfg.RetryAfterHint, Msg: "queue full"}
	}

	seq := s.nextSeq
	s.nextSeq++
	j := &job{
		id:         fmt.Sprintf("j-%06d", seq),
		spec:       spec,
		core:       cj,
		submitSeq:  seq,
		state:      StateQueued,
		enqueuedAt: s.cfg.Now(),
	}
	// Durability before acknowledgment: the accepted record hits stable
	// storage before the job becomes visible. The fsync runs under the
	// server lock, which serializes admissions — acceptable at repair-job
	// request rates, and it keeps journal order identical to seq order.
	if err := s.jl.accepted(j); err != nil {
		return StatusView{}, &AdmissionError{Status: 500, Msg: fmt.Sprintf("journal: %v", err)}
	}
	s.jobs[j.id] = j
	ts.q = append(ts.q, j)
	ts.queued++
	s.queued++
	ts.stats.Accepted++
	s.global.Accepted++
	s.armQueueTimeout(j)
	s.cond.Signal()
	return j.view(), nil
}

// Status returns a job's current view.
func (s *Server) Status(id string) (StatusView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return StatusView{}, false
	}
	return j.view(), true
}

// List returns every job's view (optionally one tenant's), in submit order.
func (s *Server) List(tenant string) []StatusView {
	s.mu.Lock()
	defer s.mu.Unlock()
	views := make([]StatusView, 0, len(s.jobs))
	for _, j := range s.jobs {
		if tenant == "" || j.spec.Tenant == tenant {
			views = append(views, j.view())
		}
	}
	// Submit order, recovered from ids (j-%06d sorts with seq).
	for i := 1; i < len(views); i++ {
		for k := i; k > 0 && views[k].ID < views[k-1].ID; k-- {
			views[k], views[k-1] = views[k-1], views[k]
		}
	}
	return views
}

// Cancel cancels a job: queued and retry-waiting jobs terminate
// immediately, a running job's attempt is cooperatively cancelled and
// finalized by its runner. Terminal jobs are left as they are. The second
// return is false when the id is unknown.
func (s *Server) Cancel(id string) (StatusView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return StatusView{}, false
	}
	ts := s.tenantLocked(j.spec.Tenant)
	switch j.state {
	case StateQueued:
		s.removeQueuedLocked(ts, j)
		s.finishLocked(j, ts, StateCancelled, "")
	case StateRetryWait:
		ts.retrying--
		s.finishLocked(j, ts, StateCancelled, "")
	case StateRunning:
		j.cancelRequested = true
		j.tok.Cancel()
	}
	return j.view(), true
}

// Watch subscribes to a job's state transitions. The channel receives the
// current view immediately and a view per transition after; it is closed
// once the job is terminal. Unknown ids return nil.
func (s *Server) Watch(id string) <-chan StatusView {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil
	}
	// Capacity for a worst-case burst of transitions; a subscriber that
	// still falls behind loses intermediate events, never blocks a runner.
	ch := make(chan StatusView, 16)
	ch <- j.view()
	if j.state.Terminal() {
		close(ch)
		return ch
	}
	j.watchers = append(j.watchers, ch)
	return ch
}

// Ready reports whether the daemon accepts work (readyz).
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining && !s.stopRunners
}

// Stats assembles the /stats payload.
func (s *Server) Stats() StatsView {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv := StatsView{
		UptimeMS: s.cfg.Now().Sub(s.start).Milliseconds(),
		Ready:    !s.draining && !s.stopRunners,
		Draining: s.draining,
		Queued:   s.queued,
		Jobs:     s.global,
		Tenants:  make(map[string]TenantStats, len(s.tenants)),
		Engine:   s.agg,
	}
	for name, ts := range s.tenants {
		sv.Tenants[name] = ts.stats
		sv.Running += ts.running
		sv.RetryWaiting += ts.retrying
	}
	if g := s.cfg.Govern; g != nil {
		c := g.Snapshot()
		sv.MemRung = g.Rung().String()
		sv.Mem = &c
	}
	return sv
}

// retryBacklogLocked is the count of jobs parked in retry-wait across all
// tenants — the "work the daemon still owes" that memory-pressure
// admission prefers to drain before accepting new jobs.
func (s *Server) retryBacklogLocked() int {
	n := 0
	for _, ts := range s.tenants {
		n += ts.retrying
	}
	return n
}

// Drain is the graceful shutdown: stop admitting, cooperatively cancel
// running attempts (each job's periodic engine checkpoints stay on disk),
// keep interrupted and queued jobs non-terminal in the journal, and
// release the runners. After Drain returns, a new process started on the
// same state directory with Config.Resume finishes every outstanding job
// with the repair an uninterrupted run produces.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	if s.stopRunners {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.stopRunners = true
	for _, j := range s.jobs {
		if j.state == StateRunning && j.tok != nil {
			j.drained = true
			j.tok.Cancel()
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if timeout > 0 {
		select {
		case <-done:
		case <-time.After(timeout):
			return fmt.Errorf("serve: drain timed out after %v with attempts still running", timeout)
		}
	} else {
		<-done
	}
	s.cfg.Govern.StopTicker()
	return s.jl.close()
}

// --- scheduler ---

func (s *Server) runner() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// next blocks until a job is eligible (its tenant below its running quota,
// picked round-robin across tenants so no tenant starves another) or the
// server is shutting down.
func (s *Server) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopRunners {
			return nil
		}
		if j := s.pickLocked(); j != nil {
			return j
		}
		s.cond.Wait()
	}
}

func (s *Server) pickLocked() *job {
	n := len(s.order)
	for i := 0; i < n; i++ {
		ts := s.tenants[s.order[(s.rrCursor+i)%n]]
		if len(ts.q) > 0 && ts.running < s.cfg.TenantRunning {
			j := ts.q[0]
			ts.q = ts.q[1:]
			ts.queued--
			s.queued--
			ts.running++
			s.rrCursor = (s.rrCursor + i + 1) % n
			return j
		}
	}
	return nil
}

// runJob executes one attempt and finalizes its outcome.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	j.state = StateRunning
	j.attempts++
	attempt := j.attempts
	base := cancel.New()
	j.tok = base
	run := base
	if s.cfg.RunTimeout > 0 {
		run = cancel.WithTimeout(base, s.cfg.RunTimeout)
	}
	s.notifyLocked(j)
	s.mu.Unlock()

	res, err := s.attempt(j, run)

	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.tenantLocked(j.spec.Tenant)
	ts.running--
	j.tok = nil
	defer s.cond.Broadcast()

	switch {
	case j.drained:
		// Drain cut this attempt. Its partial result is discarded; the job
		// stays non-terminal in the journal and resumes (from its last
		// clean periodic checkpoint) in the next process.
		j.state = StateInterrupted
		s.notifyLocked(j)
	case j.cancelRequested:
		s.finishLocked(j, ts, StateCancelled, "")
	case err != nil:
		j.lastErr = err.Error()
		ts.stats.AttemptsFailed++
		s.global.AttemptsFailed++
		if jerr := s.jl.attemptFailed(j.id, attempt, j.lastErr); jerr != nil {
			s.cfg.warnf("serve: journal attempt-failed for %s: %v", j.id, jerr)
		}
		if attempt >= s.cfg.MaxAttempts {
			s.finishLocked(j, ts, StateDeadLetter, j.lastErr)
			return
		}
		delay := s.backoffLocked(attempt)
		j.state = StateRetryWait
		j.retryAt = s.cfg.Now().Add(delay)
		ts.retrying++
		ts.stats.Retries++
		s.global.Retries++
		s.notifyLocked(j)
		time.AfterFunc(delay, func() { s.requeueRetry(j) })
	default:
		out := buildResult(j.core, res, j.spec.Top)
		j.result = out
		s.agg = s.agg.Add(res.Stats)
		ts.stats.Engine = ts.stats.Engine.Add(res.Stats)
		if res.Stats.TimedOut {
			ts.stats.TimedOutRuns++
		}
		if res.Stats.MemStopped {
			s.global.MemStoppedRuns++
		}
		s.finishLocked(j, ts, StateDone, "")
	}
}

// finishLocked journals and applies a terminal transition, updates the
// tenant and global tallies, drops the job's checkpoint directory, and
// notifies watchers.
func (s *Server) finishLocked(j *job, ts *tenantState, state State, msg string) {
	var jerr error
	switch state {
	case StateDone:
		jerr = s.jl.done(j.id, j.result)
		ts.stats.Done++
		s.global.Done++
	case StateCancelled:
		jerr = s.jl.terminal(recCancelled, j.id, msg)
		ts.stats.Cancelled++
		s.global.Cancelled++
	case StateDeadLetter:
		jerr = s.jl.terminal(recDeadLetter, j.id, msg)
		ts.stats.DeadLetter++
		s.global.DeadLetter++
	case StateExpired:
		jerr = s.jl.terminal(recExpired, j.id, msg)
		ts.stats.Expired++
		s.global.Expired++
	}
	if jerr != nil {
		// The in-memory transition still happens: clients get their
		// answer now; after a restart the job would re-run (at-least-once).
		s.cfg.warnf("serve: journal terminal record for %s: %v", j.id, jerr)
	}
	j.state = state
	if msg != "" {
		j.lastErr = msg
	}
	if err := os.RemoveAll(s.ckptDir(j.id)); err != nil {
		s.cfg.warnf("serve: checkpoint cleanup for %s: %v", j.id, err)
	}
	s.notifyLocked(j)
}

// attempt runs the engine once, panic-isolated at the job boundary. It
// resumes exactly when the job's checkpoint directory exists: a previous
// attempt, in this process or one before a drain or crash, got far enough
// to write a snapshot. A job that never started simply starts.
func (s *Server) attempt(j *job, tok *cancel.Token) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: job attempt panicked: %v", r)
		}
	}()
	if faultinject.JobStart(j.spec.Key()) {
		panic(faultinject.PanicMsg)
	}
	cj := j.core
	if j.spec.TimeoutMS > 0 {
		// Through Budget (not a bare token) so a resumed attempt re-bases
		// the remaining wall clock on the time already spent.
		cj.Budget.MaxDuration = time.Duration(j.spec.TimeoutMS) * time.Millisecond
	}
	opts := core.Options{Workers: s.cfg.EngineWorkers, Cancel: tok}
	opts.NewDistributor = s.cfg.NewDistributor
	opts.SMT.Incremental = s.cfg.Incremental
	opts.SMT.Guard.Paranoid = s.cfg.Paranoid
	opts.Govern = s.cfg.Govern
	dir := s.ckptDir(j.id)
	_, statErr := os.Stat(dir)
	opts.Checkpoint = core.CheckpointOptions{
		Dir:      dir,
		Interval: s.cfg.CheckpointInterval,
		Resume:   statErr == nil,
		Warn:     s.cfg.Warn,
	}
	return core.Repair(cj, opts)
}

func (s *Server) ckptDir(id string) string {
	return filepath.Join(s.cfg.StateDir, "ckpt", id)
}

// backoffLocked computes the jittered exponential delay before the next
// attempt: base·2^(attempt−1) capped at RetryMax, then jittered to
// [½d, 1½d) so synchronized failures do not retry in lockstep.
func (s *Server) backoffLocked(attempt int) time.Duration {
	d := s.cfg.RetryBase
	for i := 1; i < attempt && d < s.cfg.RetryMax; i++ {
		d *= 2
	}
	if d > s.cfg.RetryMax {
		d = s.cfg.RetryMax
	}
	return d/2 + time.Duration(s.rng.Int63n(int64(d)))
}

// requeueRetry moves a retry-waiting job back into its tenant queue when
// its backoff expires. During a drain it does nothing: the job stays
// non-terminal and the next process picks it up.
func (s *Server) requeueRetry(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != StateRetryWait || s.draining || s.stopRunners {
		return
	}
	ts := s.tenantLocked(j.spec.Tenant)
	ts.retrying--
	j.state = StateQueued
	j.enqueuedAt = s.cfg.Now()
	ts.q = append(ts.q, j)
	ts.queued++
	s.queued++
	s.armQueueTimeout(j)
	s.notifyLocked(j)
	s.cond.Signal()
}

// armQueueTimeout schedules queue-wait expiry for a just-enqueued job.
func (s *Server) armQueueTimeout(j *job) {
	if s.cfg.QueueTimeout <= 0 {
		return
	}
	at := j.enqueuedAt
	time.AfterFunc(s.cfg.QueueTimeout, func() { s.expireQueued(j, at) })
}

// expireQueued sheds a job that sat in the queue past QueueTimeout. The
// enqueue timestamp disambiguates re-enqueues: a retry that re-entered the
// queue later is not expired by the earlier timer.
func (s *Server) expireQueued(j *job, enqueuedAt time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != StateQueued || !j.enqueuedAt.Equal(enqueuedAt) || s.draining || s.stopRunners {
		return
	}
	ts := s.tenantLocked(j.spec.Tenant)
	s.removeQueuedLocked(ts, j)
	s.finishLocked(j, ts, StateExpired, "queue-wait timeout")
}

func (s *Server) removeQueuedLocked(ts *tenantState, j *job) {
	for i, q := range ts.q {
		if q == j {
			ts.q = append(ts.q[:i], ts.q[i+1:]...)
			ts.queued--
			s.queued--
			return
		}
	}
}

// notifyLocked pushes the job's current view to its watchers. Sends are
// non-blocking — a stalled client's channel fills and loses intermediate
// transitions, but the scheduler never waits on a client. Terminal
// transitions close the channels.
func (s *Server) notifyLocked(j *job) {
	v := j.view()
	for _, ch := range j.watchers {
		select {
		case ch <- v:
		default:
		}
	}
	if v.State.Terminal() {
		for _, ch := range j.watchers {
			close(ch)
		}
		j.watchers = nil
	}
}
