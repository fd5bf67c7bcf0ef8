package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cpr/internal/faultinject"
	"cpr/internal/journal"
)

// divZeroProgram mirrors the paper's §2 example (and the core test suite):
// synthesize a guard so the divisions cannot divide by zero.
const divZeroProgram = `
void main(int x, int y) {
    if (__HOLE__) {
        return;
    }
    __BUG__;
    int c = 100 / x;
    int d = c / y;
}
`

// divZeroSpec is a full-size repair job (~0.5s of engine work), the same
// shape the core differential tests use.
func divZeroSpec(tenant, label string) JobSpec {
	cmp := []string{"=", ">=", "<"}
	boolOps := []string{"or"}
	arith := []string{}
	return JobSpec{
		Tenant:           tenant,
		Label:            label,
		Program:          divZeroProgram,
		Spec:             "(and (distinct x 0) (distinct y 0))",
		Failing:          []map[string]int64{{"x": 7, "y": 0}},
		CmpOps:           &cmp,
		BoolOps:          &boolOps,
		ArithOps:         &arith,
		MaxTemplates:     40,
		Budget:           25,
		ValidationBudget: 8,
	}
}

// quickSpec is a small-budget variant for scheduling-behavior tests that
// only need a job to run, not to converge.
func quickSpec(tenant, label string) JobSpec {
	s := divZeroSpec(tenant, label)
	s.Budget = 6
	s.ValidationBudget = 2
	return s
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	if cfg.Warn == nil {
		cfg.Warn = func(msg string) { t.Logf("warn: %s", msg) }
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func mustSubmit(t *testing.T, s *Server, spec JobSpec) StatusView {
	t.Helper()
	v, aerr := s.Submit(spec)
	if aerr != nil {
		t.Fatalf("Submit(%s): %d %s", spec.Key(), aerr.Status, aerr.Msg)
	}
	return v
}

func waitState(t *testing.T, s *Server, id string, within time.Duration, want func(StatusView) bool) StatusView {
	t.Helper()
	deadline := time.Now().Add(within)
	var last StatusView
	for time.Now().Before(deadline) {
		v, ok := s.Status(id)
		if ok {
			last = v
			if want(v) {
				return v
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached wanted state within %v; last: %+v", id, within, last)
	return StatusView{}
}

func waitTerminal(t *testing.T, s *Server, id string, within time.Duration) StatusView {
	t.Helper()
	return waitState(t, s, id, within, func(v StatusView) bool { return v.State.Terminal() })
}

// stableFingerprint renders the scheduling-independent slice of a result:
// the ranked patches, the repaired program, and the deterministic stats
// (cache hit/miss splits vary across worker schedules, exactly as in the
// core parallel tests).
func stableFingerprint(r *Result) string {
	if r == nil {
		return "<nil>"
	}
	st := r.Stats
	b, _ := json.Marshal(r.TopPatches)
	return fmt.Sprintf("patches=%s repaired=%q P %d->%d pool %d->%d phiE=%d phiS=%d gen=%d ref=%d rem=%d",
		b, r.Repaired, st.PInit, st.PFinal, st.PoolInit, st.PoolFinal,
		st.PathsExplored, st.PathsSkipped, st.InputsGenerated, st.Refinements, st.Removals)
}

func fullFingerprint(t *testing.T, r *Result) string {
	t.Helper()
	if r == nil {
		return "<nil>"
	}
	// The wall-time breakdown measures this machine's clock, not run
	// state; zero it before the bit-identical comparison. The structure
	// peaks likewise measure the process's observation window — a
	// resumed run only sees post-resume peaks. Snapshots do not carry the
	// verdict cache, so a resumed job re-solves what the drained or killed
	// process had cached: CacheHits, CacheMisses, TheoryRounds and
	// Validations count that work as it was done (same as core's
	// resumedStats). Everything else compares exactly.
	c := *r
	c.Stats.SatTime, c.Stats.LIATime, c.Stats.ValidateTime = 0, 0, 0
	c.Stats.FrontierPeak, c.Stats.SeenPeak = 0, 0
	c.Stats.CacheHits, c.Stats.CacheMisses, c.Stats.TheoryRounds, c.Stats.Validations = 0, 0, 0, 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

func TestSubmitRunsToDone(t *testing.T) {
	s := newTestServer(t, Config{Runners: 1})
	s.Start()
	defer s.Drain(10 * time.Second)

	v := mustSubmit(t, s, divZeroSpec("alice", "divzero"))
	if v.State != StateQueued || v.ID == "" {
		t.Fatalf("submit view: %+v", v)
	}
	final := waitTerminal(t, s, v.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("final state %s (err %q), want done", final.State, final.Error)
	}
	if final.Result == nil || len(final.Result.TopPatches) == 0 {
		t.Fatalf("done without patches: %+v", final)
	}
	if final.Result.Repaired == "" {
		t.Fatal("done without a repaired program rendering")
	}

	sv := s.Stats()
	if sv.Jobs.Accepted != 1 || sv.Jobs.Done != 1 {
		t.Fatalf("global stats: %+v", sv.Jobs)
	}
	ten := sv.Tenants["alice"]
	if ten.Done != 1 || ten.Engine.SolverQueries == 0 {
		t.Fatalf("tenant stats not attributed: %+v", ten)
	}
	if sv.Engine.SolverQueries == 0 || sv.Engine.PInit == 0 {
		t.Fatalf("engine aggregate empty: %+v", sv.Engine)
	}
}

// uninterruptedResults runs the given specs on a fresh daemon with no
// interference and returns each job's result by label.
func uninterruptedResults(t *testing.T, specs []JobSpec, workers int) map[string]*Result {
	t.Helper()
	s := newTestServer(t, Config{Runners: 1, EngineWorkers: workers})
	s.Start()
	out := map[string]*Result{}
	var ids []string
	for _, spec := range specs {
		ids = append(ids, mustSubmit(t, s, spec).ID)
	}
	for i, id := range ids {
		v := waitTerminal(t, s, id, 60*time.Second)
		if v.State != StateDone {
			t.Fatalf("baseline job %s: state %s (err %q)", id, v.State, v.Error)
		}
		out[specs[i].Label] = v.Result
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatalf("baseline drain: %v", err)
	}
	return out
}

// TestDrainResumeBitIdentical is the tentpole differential: a daemon
// drained mid-job (graceful SIGTERM path) and restarted with Resume
// finishes every outstanding job with results bit-identical to an
// uninterrupted daemon — at one engine worker and at four.
func TestDrainResumeBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("engineWorkers=%d", workers), func(t *testing.T) {
			specs := []JobSpec{
				divZeroSpec("alice", "one"),
				divZeroSpec("bob", "two"),
			}
			base := uninterruptedResults(t, specs, workers)

			dir := t.TempDir()
			s1 := newTestServer(t, Config{StateDir: dir, Runners: 1, EngineWorkers: workers, CheckpointInterval: 2})
			var ids []string
			for _, spec := range specs {
				ids = append(ids, mustSubmit(t, s1, spec).ID)
			}
			s1.Start()
			// Drain once the first job has written a checkpoint: it is cut
			// mid-exploration (it resumes from its last periodic
			// checkpoint), the second never leaves the queue.
			for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				v, _ := s1.Status(ids[0])
				if _, err := os.Stat(filepath.Join(dir, "ckpt", ids[0])); err == nil || v.State.Terminal() {
					break
				}
			}
			if err := s1.Drain(30 * time.Second); err != nil {
				t.Fatalf("drain: %v", err)
			}
			var interrupted int
			for _, id := range ids {
				v, _ := s1.Status(id)
				if v.State.Terminal() {
					continue
				}
				interrupted++
			}
			if interrupted == 0 {
				t.Log("note: both jobs finished before the drain; differential still checked")
			}

			// The second job never started, so it has no checkpoint and
			// must simply start: no "resume unavailable" warning.
			warns := &warnLog{t: t}
			s2 := newTestServer(t, Config{StateDir: dir, Resume: true, Runners: 1, EngineWorkers: workers, CheckpointInterval: 2, Warn: warns.warn})
			s2.Start()
			for i, id := range ids {
				v := waitTerminal(t, s2, id, 60*time.Second)
				if v.State != StateDone {
					t.Fatalf("resumed job %s: state %s (err %q)", id, v.State, v.Error)
				}
				label := specs[i].Label
				if workers == 1 {
					if got, want := fullFingerprint(t, v.Result), fullFingerprint(t, base[label]); got != want {
						t.Fatalf("job %s diverged after drain+resume:\n--- resumed\n%s\n--- baseline\n%s", label, got, want)
					}
				} else if got, want := stableFingerprint(v.Result), stableFingerprint(base[label]); got != want {
					t.Fatalf("job %s diverged after drain+resume:\n--- resumed\n%s\n--- baseline\n%s", label, got, want)
				}
			}
			if err := s2.Drain(10 * time.Second); err != nil {
				t.Fatalf("second drain: %v", err)
			}
			warns.refuse("resume unavailable")

			// A third process sees only terminal jobs and serves their
			// recorded results without re-running anything.
			s3 := newTestServer(t, Config{StateDir: dir, Resume: true, Runners: -1})
			for i, id := range ids {
				v, ok := s3.Status(id)
				if !ok || v.State != StateDone {
					t.Fatalf("job %s not done after replay: %+v", id, v)
				}
				if got, want := fullFingerprint(t, v.Result), fullFingerprint(t, func() *Result {
					v2, _ := s2.Status(id)
					return v2.Result
				}()); got != want {
					t.Fatalf("job %s result drifted through the journal:\n%s\nvs\n%s", specs[i].Label, got, want)
				}
			}
			if err := s3.Drain(time.Second); err != nil {
				t.Fatalf("replay-only drain: %v", err)
			}
		})
	}
}

// warnLog collects a server's warnings (runners warn concurrently) and
// logs each one.
type warnLog struct {
	t    *testing.T
	mu   sync.Mutex
	msgs []string
}

func (w *warnLog) warn(msg string) {
	w.t.Logf("warn: %s", msg)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.msgs = append(w.msgs, msg)
}

// refuse fails the test if any warning so far contains substr.
func (w *warnLog) refuse(substr string) {
	w.t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, msg := range w.msgs {
		if strings.Contains(msg, substr) {
			w.t.Fatalf("unexpected warning: %s", msg)
		}
	}
}

// TestReplayedQueuedJobStartsFresh: a job journaled by a daemon that never
// ran it has no checkpoint, so after a restart with Resume it starts fresh
// without a "resume unavailable" warning and still finishes.
func TestReplayedQueuedJobStartsFresh(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Config{StateDir: dir, Runners: -1})
	id := mustSubmit(t, s1, divZeroSpec("alice", "queued")).ID
	if err := s1.Drain(time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	warns := &warnLog{t: t}
	s2 := newTestServer(t, Config{StateDir: dir, Resume: true, Runners: 1, CheckpointInterval: 2, Warn: warns.warn})
	s2.Start()
	if v := waitTerminal(t, s2, id, 60*time.Second); v.State != StateDone {
		t.Fatalf("replayed job %s: state %s (err %q)", id, v.State, v.Error)
	}
	if err := s2.Drain(10 * time.Second); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	warns.refuse("resume unavailable")
}

// TestJobLogVersionOneRefused: a state directory whose job log was
// written as record-log version 1 (varint-encoded records) must be
// refused with journal.ErrVersion, with and without Resume, rather than
// replayed record by record: such a directory is finished by the build
// that wrote it.
func TestJobLogVersionOneRefused(t *testing.T) {
	dir := t.TempDir()
	spec, err := json.Marshal(divZeroSpec("alice", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	// A version-1 accepted record: id, submit seq, spec JSON.
	body := []byte{recAccepted}
	body = binary.AppendUvarint(body, uint64(len("j-000000")))
	body = append(body, "j-000000"...)
	body = binary.AppendUvarint(body, 0)
	body = binary.AppendUvarint(body, uint64(len(spec)))
	body = append(body, spec...)
	log := append([]byte("CPRJRNL"), 1)
	log = binary.LittleEndian.AppendUint32(log, uint32(len(body)))
	log = append(log, body...)
	log = binary.LittleEndian.AppendUint32(log, crc32.ChecksumIEEE(body))
	if err := os.WriteFile(filepath.Join(dir, jobLogName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, resume := range []bool{false, true} {
		var warns []string
		s, err := New(Config{StateDir: dir, Resume: resume, Warn: func(msg string) { warns = append(warns, msg) }})
		if !errors.Is(err, journal.ErrVersion) {
			t.Errorf("resume=%v: New err = %v, want journal.ErrVersion", resume, err)
		}
		if s != nil {
			s.Drain(time.Second)
		}
		if len(warns) != 0 {
			t.Errorf("resume=%v: version-1 log replayed with warnings %q", resume, warns)
		}
	}
}

// TestJobLogRetryRecordsReplay: a version-2 job log written while failed
// attempts still retried replays. Its retired kind-2 (attempt-failed)
// record is skipped with a warning, so a job with nothing after it is
// still owed and re-enqueued; a kind-5 (dead-letter) record replays as
// failed with its error.
func TestJobLogRetryRecordsReplay(t *testing.T) {
	dir := t.TempDir()
	spec, err := json.Marshal(quickSpec("alice", "old"))
	if err != nil {
		t.Fatal(err)
	}
	const panicked = "serve: job attempt panicked: faultinject: injected panic"
	w, err := journal.OpenLog(filepath.Join(dir, jobLogName))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		kind    uint8
		payload string
	}{
		{1, `{"id":"j-000000","spec":` + string(spec) + `}`},
		{2, `{"id":"j-000000","attempt":1,"msg":"` + panicked + `"}`},
		{1, `{"id":"j-000001","seq":1,"spec":` + string(spec) + `}`},
		{5, `{"id":"j-000001","msg":"` + panicked + `"}`},
	} {
		if err := w.Append(r.kind, []byte(r.payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	warns := &warnLog{t: t}
	s := newTestServer(t, Config{StateDir: dir, Resume: true, Runners: -1, Warn: warns.warn})
	defer s.Drain(time.Second)
	if v, ok := s.Status("j-000000"); !ok || v.State != StateQueued {
		t.Fatalf("job with a retired attempt-failed record: %+v, want re-enqueued", v)
	}
	if v, ok := s.Status("j-000001"); !ok || v.State != StateFailed || v.Error != panicked {
		t.Fatalf("dead-lettered job: %+v, want failed with its error", v)
	}
	if sv := s.Stats(); sv.Jobs.Resumed != 1 || sv.Queued != 1 {
		t.Fatalf("replay re-enqueued %d jobs (%d queued), want 1", sv.Jobs.Resumed, sv.Queued)
	}
	warns.mu.Lock()
	defer warns.mu.Unlock()
	if len(warns.msgs) != 1 || !strings.Contains(warns.msgs[0], "unknown journal record kind 2 for job j-000000") {
		t.Fatalf("replay warnings %q, want one for the kind-2 record", warns.msgs)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{StateDir: dir, Runners: 1})
	s.Start()

	running := mustSubmit(t, s, divZeroSpec("alice", "running"))
	queued := mustSubmit(t, s, divZeroSpec("alice", "queued"))
	waitState(t, s, running.ID, 10*time.Second, func(v StatusView) bool { return v.State == StateRunning })

	if v, ok := s.Cancel(queued.ID); !ok || v.State != StateCancelled {
		t.Fatalf("cancel queued: ok=%v view=%+v", ok, v)
	}
	if _, ok := s.Cancel(running.ID); !ok {
		t.Fatal("cancel running: unknown id")
	}
	v := waitTerminal(t, s, running.ID, 15*time.Second)
	if v.State != StateCancelled {
		t.Fatalf("running job after cancel: %s", v.State)
	}
	sv := s.Stats()
	if sv.Jobs.Cancelled != 2 {
		t.Fatalf("cancelled count %d, want 2", sv.Jobs.Cancelled)
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Cancellations are durable: a restart does not resurrect the jobs.
	s2 := newTestServer(t, Config{StateDir: dir, Resume: true, Runners: -1})
	for _, id := range []string{running.ID, queued.ID} {
		if v, ok := s2.Status(id); !ok || v.State != StateCancelled {
			t.Fatalf("job %s after restart: %+v", id, v)
		}
	}
	if sv := s2.Stats(); sv.Queued != 0 || sv.Jobs.Resumed != 0 {
		t.Fatalf("restart re-enqueued cancelled work: %+v", sv)
	}
	if err := s2.Drain(time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestQueueTimeoutExpiresStaleJobs(t *testing.T) {
	dir := t.TempDir()
	// No runners: nothing ever picks the job up.
	s := newTestServer(t, Config{StateDir: dir, Runners: -1, QueueTimeout: 30 * time.Millisecond})
	s.Start()
	v := mustSubmit(t, s, quickSpec("alice", "stale"))
	final := waitTerminal(t, s, v.ID, 5*time.Second)
	if final.State != StateExpired {
		t.Fatalf("state %s, want expired", final.State)
	}
	if sv := s.Stats(); sv.Jobs.Expired != 1 || sv.Tenants["alice"].Expired != 1 {
		t.Fatalf("expiry not counted: %+v", sv.Jobs)
	}
	if err := s.Drain(time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}

	s2 := newTestServer(t, Config{StateDir: dir, Resume: true, Runners: -1})
	if v2, ok := s2.Status(v.ID); !ok || v2.State != StateExpired {
		t.Fatalf("expiry not durable: %+v", v2)
	}
	if err := s2.Drain(time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestTenantFairness: with one runner, a tenant that queued three jobs
// does not starve a second tenant — round-robin picks interleave, so the
// late tenant's job runs second, not last.
func TestTenantFairness(t *testing.T) {
	s := newTestServer(t, Config{Runners: 1})
	a1 := mustSubmit(t, s, quickSpec("hog", "a1"))
	a2 := mustSubmit(t, s, quickSpec("hog", "a2"))
	a3 := mustSubmit(t, s, quickSpec("hog", "a3"))
	b1 := mustSubmit(t, s, quickSpec("meek", "b1"))

	type done struct {
		id string
		at time.Time
	}
	var order []done
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	record := func(id string, ch <-chan StatusView) {
		for v := range ch {
			if v.State == StateDone {
				<-mu
				order = append(order, done{id, time.Now()})
				mu <- struct{}{}
			}
		}
	}
	for _, id := range []string{a1.ID, a2.ID, a3.ID, b1.ID} {
		go record(id, s.Watch(id))
	}
	s.Start()
	for _, id := range []string{a1.ID, a2.ID, a3.ID, b1.ID} {
		waitTerminal(t, s, id, 60*time.Second)
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-mu
	if len(order) != 4 {
		t.Fatalf("saw %d completions, want 4", len(order))
	}
	if order[0].id != a1.ID || order[1].id != b1.ID {
		var seq []string
		for _, d := range order {
			seq = append(seq, d.id)
		}
		t.Fatalf("completion order %v: want hog's first job then meek's (round-robin), got meek starved", seq)
	}
}

func TestWatchStreamsTransitions(t *testing.T) {
	s := newTestServer(t, Config{Runners: 1})
	s.Start()
	v := mustSubmit(t, s, quickSpec("alice", "watched"))
	ch := s.Watch(v.ID)
	if ch == nil {
		t.Fatal("Watch returned nil for a known job")
	}
	var states []State
	for ev := range ch {
		states = append(states, ev.State)
	}
	if len(states) < 2 || states[0] != StateQueued || states[len(states)-1] != StateDone {
		t.Fatalf("stream %v: want queued ... done", states)
	}
	if s.Watch("j-999999") != nil {
		t.Fatal("Watch of unknown id should be nil")
	}
	// Watching an already-terminal job yields its final view, closed.
	ch2 := s.Watch(v.ID)
	ev, ok := <-ch2
	if !ok || ev.State != StateDone {
		t.Fatalf("terminal watch: %+v ok=%v", ev, ok)
	}
	if _, ok := <-ch2; ok {
		t.Fatal("terminal watch channel not closed")
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestListOrdersBySubmit(t *testing.T) {
	s := newTestServer(t, Config{Runners: -1})
	var want []string
	for i := 0; i < 5; i++ {
		tenant := "a"
		if i%2 == 1 {
			tenant = "b"
		}
		want = append(want, mustSubmit(t, s, quickSpec(tenant, fmt.Sprintf("j%d", i))).ID)
	}
	all := s.List("")
	if len(all) != 5 {
		t.Fatalf("List len %d", len(all))
	}
	for i, v := range all {
		if v.ID != want[i] {
			t.Fatalf("List order: got %s at %d, want %s", v.ID, i, want[i])
		}
	}
	bs := s.List("b")
	if len(bs) != 2 {
		t.Fatalf("tenant filter: %d jobs, want 2", len(bs))
	}
	if err := s.Drain(time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestListOrdersPastMillionthJob: List keeps submit order once job IDs
// outgrow their six zero-padded digits, where string order and submit
// order part ("j-1000000" sorts before "j-999998").
func TestListOrdersPastMillionthJob(t *testing.T) {
	s := newTestServer(t, Config{Runners: -1})
	defer s.Drain(time.Second)
	s.mu.Lock()
	s.nextSeq = 999_998
	s.mu.Unlock()
	var want []string
	for i := 0; i < 3; i++ {
		want = append(want, mustSubmit(t, s, quickSpec("a", fmt.Sprintf("j%d", i))).ID)
	}
	var got []string
	for _, v := range s.List("") {
		got = append(got, v.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("List order %v, want submit order %v", got, want)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{Runners: -1})
	defer s.Drain(time.Second)
	cases := []JobSpec{
		{Tenant: "t", Program: "void main(int x) { __BUG__; int y = 1 / x; }"},   // no hole
		{Tenant: "t", Subject: "nope"},                                           // bad subject form
		{Tenant: "t", Subject: "No/Such"},                                        // unknown subject
		{Tenant: "t"},                                                            // neither subject nor program
		{Tenant: "t", Program: divZeroProgram},                                   // no failing input
		func() JobSpec { s := divZeroSpec("t", "x"); s.Spec = "(("; return s }(), // bad spec
		func() JobSpec { s := divZeroSpec("t", "x"); bad := []string{"%%"}; s.CmpOps = &bad; return s }(), // bad op
		func() JobSpec { s := divZeroSpec("t", "x"); s.TimeoutMS = -1; return s }(),                       // negative timeout
		func() JobSpec { s := divZeroSpec("t", "x"); s.TimeoutMS = 18446744073710; return s }(),           // timeout overflows a Duration
		func() JobSpec {
			s := divZeroSpec("t", "x")
			lo, hi := int64(10), int64(-10)
			s.ParamLo, s.ParamHi = &lo, &hi
			return s
		}(), // empty parameter range
		func() JobSpec {
			s := divZeroSpec("t", "x")
			lo, hi := int64(100), int64(-100)
			s.InputLo, s.InputHi = &lo, &hi
			return s
		}(), // empty input range
	}
	for i, spec := range cases {
		if _, aerr := s.Submit(spec); aerr == nil || aerr.Status != 400 {
			t.Fatalf("case %d: want 400, got %+v", i, aerr)
		}
	}
	if sv := s.Stats(); sv.Jobs.RejectedInvalid != uint64(len(cases)) {
		t.Fatalf("invalid rejections %d, want %d", sv.Jobs.RejectedInvalid, len(cases))
	}
	if _, ok := s.Status("j-000000"); ok {
		t.Fatal("a rejected job reached the job table")
	}
}

func TestSubjectJobRuns(t *testing.T) {
	s := newTestServer(t, Config{Runners: 1})
	s.Start()
	defer s.Drain(10 * time.Second)
	v := mustSubmit(t, s, JobSpec{
		Tenant:  "alice",
		Subject: "Libtiff/CVE-2016-3623",
		Budget:  20,
	})
	final := waitTerminal(t, s, v.ID, 60*time.Second)
	if final.State != StateDone {
		t.Fatalf("subject job: %s (err %q)", final.State, final.Error)
	}
	if len(final.Result.TopPatches) == 0 {
		t.Fatal("subject job produced no patches")
	}
	// A top far beyond the ranked pool is clamped to it, and the runner
	// survives to run the next job.
	v = mustSubmit(t, s, JobSpec{
		Tenant:  "alice",
		Subject: "Libtiff/CVE-2016-3623",
		Budget:  3,
		Top:     1 << 62,
	})
	final = waitTerminal(t, s, v.ID, 60*time.Second)
	if final.State != StateDone || len(final.Result.TopPatches) == 0 {
		t.Fatalf("huge-top job: %s with %d patches (err %q)", final.State, len(final.Result.TopPatches), final.Error)
	}
	v = mustSubmit(t, s, JobSpec{
		Tenant:  "alice",
		Subject: "Libtiff/CVE-2016-3623",
		Budget:  3,
	})
	if final = waitTerminal(t, s, v.ID, 60*time.Second); final.State != StateDone {
		t.Fatalf("job after the huge-top job: %s (err %q)", final.State, final.Error)
	}
}

// TestTerminalJobsDropLoweredJob: a terminal job keeps only what its view
// shows — spec, state, error and result — and none of its lowered job
// (parsed program, spec term, inputs, components), whichever way it ended:
// done, failed, cancelled or expired.
func TestTerminalJobsDropLoweredJob(t *testing.T) {
	faultinject.Activate(&faultinject.Plan{JobPanicMatch: "poison"})
	defer faultinject.Deactivate()
	s := newTestServer(t, Config{Runners: 1})
	s.Start()
	want := map[string]State{}
	want[mustSubmit(t, s, quickSpec("alice", "done")).ID] = StateDone
	want[mustSubmit(t, s, quickSpec("alice", "poison")).ID] = StateFailed
	cancelled := mustSubmit(t, s, quickSpec("alice", "cancelled")).ID
	want[cancelled] = StateCancelled
	if _, ok := s.Cancel(cancelled); !ok {
		t.Fatal("cancel: unknown id")
	}
	idle := newTestServer(t, Config{Runners: -1, QueueTimeout: 30 * time.Millisecond})
	idle.Start()
	expired := mustSubmit(t, idle, quickSpec("alice", "stale")).ID

	check := func(s *Server, id string, state State) {
		t.Helper()
		if v := waitTerminal(t, s, id, 30*time.Second); v.State != state {
			t.Fatalf("job %s ended %s, want %s", id, v.State, state)
		}
		s.mu.Lock()
		lowered := !reflect.ValueOf(s.jobs[id].core).IsZero()
		s.mu.Unlock()
		if lowered {
			t.Errorf("%s job %s still holds its lowered job", state, id)
		}
	}
	for id, state := range want {
		check(s, id, state)
	}
	check(idle, expired, StateExpired)
	for _, srv := range []*Server{s, idle} {
		if err := srv.Drain(10 * time.Second); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
}
