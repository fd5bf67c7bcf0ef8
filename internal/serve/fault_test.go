package serve

import (
	"os"
	"os/exec"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"cpr/internal/faultinject"
)

// TestPoisonJobFails: a job whose attempt panics at the runner boundary
// ends failed after that one attempt, with the panic as its error — while
// a healthy job sharing the daemon is untouched. This is the
// fault-isolation contract: one tenant's poison cannot take the service
// down or starve the others.
func TestPoisonJobFails(t *testing.T) {
	faultinject.Activate(&faultinject.Plan{JobPanicMatch: "poison"})
	defer faultinject.Deactivate()

	dir := t.TempDir()
	s := newTestServer(t, Config{StateDir: dir, Runners: 2})
	s.Start()

	poison := mustSubmit(t, s, quickSpec("mallory", "poison"))
	healthy := mustSubmit(t, s, quickSpec("alice", "healthy"))

	// One attempt: the job's transitions are queued → running → failed,
	// or the tail of that if it moved before the watch began.
	var states []State
	for ev := range s.Watch(poison.ID) {
		states = append(states, ev.State)
	}
	want := []State{StateQueued, StateRunning, StateFailed}
	if len(states) == 0 || len(states) > len(want) || !slices.Equal(states, want[len(want)-len(states):]) {
		t.Fatalf("poison job states %v, want (a tail of) %v", states, want)
	}
	pv, _ := s.Status(poison.ID)
	if !strings.Contains(pv.Error, "injected panic") {
		t.Fatalf("failed job's error %q does not carry the panic", pv.Error)
	}
	hv := waitTerminal(t, s, healthy.ID, 30*time.Second)
	if hv.State != StateDone {
		t.Fatalf("healthy job state %s (err %q): poison leaked across jobs", hv.State, hv.Error)
	}

	sv := s.Stats()
	if mal := sv.Tenants["mallory"]; mal.Failed != 1 || mal.Done != 0 {
		t.Fatalf("mallory stats: %+v", mal)
	}
	if ali := sv.Tenants["alice"]; ali.Failed != 0 || ali.Done != 1 {
		t.Fatalf("alice stats (charged for mallory's panic?): %+v", ali)
	}
	if sv.Jobs.Failed != 1 || sv.Jobs.Done != 1 {
		t.Fatalf("global job counts: %+v", sv.Jobs)
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Failed is durable: a restart serves the job as failed and resumes
	// nothing.
	faultinject.Deactivate()
	s2 := newTestServer(t, Config{StateDir: dir, Resume: true, Runners: -1})
	v2, ok := s2.Status(poison.ID)
	if !ok || v2.State != StateFailed || !strings.Contains(v2.Error, "injected panic") {
		t.Fatalf("failed job after restart: %+v", v2)
	}
	if sv2 := s2.Stats(); sv2.Jobs.Resumed != 0 || sv2.Queued != 0 {
		t.Fatalf("restart resumed work: %+v", sv2)
	}
	if err := s2.Drain(time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// --- real-process SIGKILL harness ---

// TestServeCrashHelperProcess is the subprocess body for
// TestCrashResumeBitIdentical: a daemon that SIGKILLs its own process —
// unblockable, no drain, no final checkpoint — at a generation barrier in
// the middle of its first job.
func TestServeCrashHelperProcess(t *testing.T) {
	if os.Getenv("CPR_SERVE_CRASH_HELPER") != "1" {
		t.Skip("helper process for TestCrashResumeBitIdentical")
	}
	dir := os.Getenv("CPR_SERVE_STATE")
	s, err := New(Config{Runners: 1, StateDir: dir, CheckpointInterval: 2})
	if err != nil {
		t.Fatalf("helper New: %v", err)
	}
	for _, label := range []string{"one", "two"} {
		if _, aerr := s.Submit(divZeroSpec("crashy", label)); aerr != nil {
			t.Fatalf("helper submit %s: %v", label, aerr)
		}
	}
	faultinject.Activate(&faultinject.Plan{
		CrashAt: 7,
		Crash:   func() { syscall.Kill(os.Getpid(), syscall.SIGKILL) },
	})
	s.Start()
	time.Sleep(60 * time.Second)
	t.Fatal("helper survived: crash injection never fired")
}

// TestCrashResumeBitIdentical is the hard-kill differential: the daemon is
// SIGKILLed mid-job (no drain, no cleanup), and a restarted daemon with
// Resume finishes all jobs bit-identically to an uninterrupted one — the
// journal knows which jobs are owed, the engine checkpoints carry the
// partial exploration.
func TestCrashResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	specs := []JobSpec{divZeroSpec("crashy", "one"), divZeroSpec("crashy", "two")}
	base := uninterruptedResults(t, specs, 1)

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestServeCrashHelperProcess$", "-test.v")
	cmd.Env = append(os.Environ(),
		"CPR_SERVE_CRASH_HELPER=1",
		"CPR_SERVE_STATE="+dir,
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("helper exited cleanly; expected SIGKILL\n%s", out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("helper did not die by SIGKILL: %v\n%s", err, out)
	}

	s := newTestServer(t, Config{StateDir: dir, Resume: true, Runners: 1, CheckpointInterval: 2})
	if sv := s.Stats(); sv.Jobs.Resumed != 2 {
		t.Fatalf("resumed %d jobs, want 2 (journal lost the accepted records?)", sv.Jobs.Resumed)
	}
	s.Start()
	ids := []string{"j-000000", "j-000001"}
	for i, id := range ids {
		v := waitTerminal(t, s, id, 60*time.Second)
		if v.State != StateDone {
			t.Fatalf("resumed job %s: %s (err %q)", id, v.State, v.Error)
		}
		label := specs[i].Label
		if got, want := fullFingerprint(t, v.Result), fullFingerprint(t, base[label]); got != want {
			t.Fatalf("job %s diverged after SIGKILL+resume:\n--- resumed\n%s\n--- baseline\n%s", label, got, want)
		}
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
