package bench

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"

	"cpr/internal/core"
	"cpr/internal/faultinject"
	"cpr/internal/journal"
)

func ckptRunOptions(dir string, resume bool, lines *[]string) RunOptions {
	opts := RunOptions{Budget: fastBudget}
	opts.Checkpoint = core.CheckpointOptions{Dir: dir, Resume: resume}
	if lines != nil {
		opts.Progress = func(line string) { *lines = append(*lines, line) }
	}
	return opts
}

// TestSuiteResumeSkipsCompletedSubjects: a completed suite run journals
// every row; a resumed run replays all of them from the journal without
// re-running a single subject, and the replayed rows carry the same
// measurements.
func TestSuiteResumeSkipsCompletedSubjects(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run in -short mode")
	}
	dir := t.TempDir()
	first := runSuite(SuiteManyBugs, "resume-test", ckptRunOptions(dir, false, nil))
	if len(first) == 0 {
		t.Fatal("no rows")
	}
	if _, err := os.Stat(filepath.Join(dir, "suite-resume-test.journal")); err != nil {
		t.Fatalf("suite journal missing: %v", err)
	}
	// Completed subjects must not leave engine snapshots behind.
	if subs, _ := os.ReadDir(filepath.Join(dir, "subjects")); len(subs) != 0 {
		t.Fatalf("completed run left %d subject snapshot dirs", len(subs))
	}

	var lines []string
	second := runSuite(SuiteManyBugs, "resume-test", ckptRunOptions(dir, true, &lines))
	if len(second) != len(first) {
		t.Fatalf("row counts differ: %d vs %d", len(second), len(first))
	}
	for _, line := range lines {
		if !strings.Contains(line, "resumed from journal") {
			t.Errorf("subject re-ran on resume: %s", line)
		}
	}
	for i := range first {
		if second[i].CPR != first[i].CPR {
			t.Errorf("%s: replayed stats diverged:\nreplayed: %+v\noriginal: %+v",
				first[i].Subject.ID(), second[i].CPR, first[i].CPR)
		}
		if second[i].Rank != first[i].Rank || second[i].RankFound != first[i].RankFound {
			t.Errorf("%s: replayed rank %d/%v, original %d/%v", first[i].Subject.ID(),
				second[i].Rank, second[i].RankFound, first[i].Rank, first[i].RankFound)
		}
		if second[i].Status != first[i].Status {
			t.Errorf("%s: replayed status %q, original %q", first[i].Subject.ID(),
				second[i].Status, first[i].Status)
		}
	}

	// A fresh (non-resume) run discards the old journal and re-runs.
	var freshLines []string
	runSuite(SuiteManyBugs, "resume-test", ckptRunOptions(dir, false, &freshLines))
	for _, line := range freshLines {
		if strings.Contains(line, "resumed from journal") {
			t.Errorf("fresh run replayed a stale journal row: %s", line)
		}
	}
}

// TestSuiteResumeToleratesCorruptJournal: a torn journal tail (the state
// after a mid-append SIGKILL) loses only the torn row; intact rows before
// it still replay.
func TestSuiteResumeToleratesCorruptJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run in -short mode")
	}
	dir := t.TempDir()
	runSuite(SuiteManyBugs, "torn", ckptRunOptions(dir, false, nil))
	path := filepath.Join(dir, "suite-torn.journal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	var lines []string
	rows := runSuite(SuiteManyBugs, "torn", ckptRunOptions(dir, true, &lines))
	if len(rows) != len(Catalog(SuiteManyBugs)) {
		t.Fatalf("rows: %d", len(rows))
	}
	var replayed, reran int
	for _, line := range lines {
		if strings.Contains(line, "resumed from journal") {
			replayed++
		} else {
			reran++
		}
	}
	if replayed == 0 {
		t.Error("intact journal prefix was not replayed")
	}
	if reran == 0 {
		t.Error("torn final row was silently treated as complete")
	}
}

// TestSuiteResumeVersionOneJournalStartsFresh: a suite journal written
// as record-log version 1 is not replayed. Resuming warns that it is
// unreadable, starts the suite fresh and journals at the current version.
func TestSuiteResumeVersionOneJournalStartsFresh(t *testing.T) {
	dir := t.TempDir()
	s := Catalog(SuiteManyBugs)[0]
	row, err := json.Marshal(toRowRecord(s, SubjectResult{Subject: s}, 0))
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte{rowRecordKind}, row...)
	log := append([]byte("CPRJRNL"), 1)
	log = binary.LittleEndian.AppendUint32(log, uint32(len(body)))
	log = append(log, body...)
	log = binary.LittleEndian.AppendUint32(log, crc32.ChecksumIEEE(body))
	path := filepath.Join(dir, "suite-v1.journal")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	var warns []string
	opts := ckptRunOptions(dir, true, nil)
	opts.Checkpoint.Warn = func(msg string) { warns = append(warns, msg) }
	sj := openSuiteJournal("v1", opts)
	sj.close()
	if len(sj.done) != 0 {
		t.Errorf("replayed %d rows from a version-1 journal", len(sj.done))
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "unreadable, starting the suite fresh") {
		t.Errorf("warnings %q, want one saying the journal is unreadable", warns)
	}
	if _, err := journal.ReadLog(path); err != nil {
		t.Errorf("the fresh suite's journal: %v", err)
	}
}

// TestSuiteResumeRerunsRowsFromOtherOptions: a journaled row replays only
// into a run with the same row fingerprint. Resuming under another
// iteration budget re-runs every subject (with a warning per row) and
// reproduces a fresh run's rows, and so does resuming a journal whose
// rows carry no fingerprint at all, as journals written before row
// fingerprints do. A later resume under the new budget replays the
// re-run rows.
func TestSuiteResumeRerunsRowsFromOtherOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run in -short mode")
	}
	small := core.Budget{MaxIterations: 2, ValidationIterations: 4}
	withBudget := func(dir string, b core.Budget, resume bool, lines, warns *[]string) RunOptions {
		opts := ckptRunOptions(dir, resume, lines)
		opts.Budget = b
		opts.Core.Workers = 1
		opts.Checkpoint.Warn = func(msg string) {
			if strings.HasPrefix(msg, "bench checkpoint: journaled row") {
				*warns = append(*warns, msg)
			}
		}
		return opts
	}
	var none []string
	fresh := runSuite(SuiteManyBugs, "fp", withBudget(t.TempDir(), fastBudget, false, &none, &none))
	dir := t.TempDir()
	stale := runSuite(SuiteManyBugs, "fp", withBudget(dir, small, false, &none, &none))
	differ := false
	for i := range stale {
		differ = differ || stale[i].CPR.PFinal != fresh[i].CPR.PFinal || stale[i].CPR.PathsExplored != fresh[i].CPR.PathsExplored
	}
	if !differ {
		t.Fatal("the two budgets give the same rows; the test cannot tell a replay from a re-run")
	}

	checkRerun := func(what string) {
		t.Helper()
		var lines, warns []string
		rows := runSuite(SuiteManyBugs, "fp", withBudget(dir, fastBudget, true, &lines, &warns))
		for _, line := range lines {
			if strings.Contains(line, "resumed from journal") {
				t.Errorf("%s: row replayed: %s", what, line)
			}
		}
		if len(warns) != len(rows) {
			t.Errorf("%s: %d warnings for %d re-run rows: %q", what, len(warns), len(rows), warns)
		}
		for i := range rows {
			if got, want := sameRow(rows[i]), sameRow(fresh[i]); got != want {
				t.Errorf("%s: %s re-ran to\n%s\nwant\n%s", what, rows[i].Subject.ID(), got, want)
			}
		}
	}
	checkRerun("other budget")

	// A journal without row fingerprints: the small-budget rows, as they
	// were journaled before rows carried one.
	path := filepath.Join(dir, "suite-fp.journal")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	w, err := journal.OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range stale {
		payload, err := json.Marshal(toRowRecord(r.Subject, r, 0))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(payload), "fingerprint") {
			t.Fatalf("a zero fingerprint is written: %s", payload)
		}
		if err := w.Append(rowRecordKind, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	checkRerun("no fingerprint")

	var lines, warns []string
	runSuite(SuiteManyBugs, "fp", withBudget(dir, fastBudget, true, &lines, &warns))
	for _, line := range lines {
		if !strings.Contains(line, "resumed from journal") {
			t.Errorf("re-run row not replayed under its own budget: %s", line)
		}
	}
	if len(warns) != 0 {
		t.Errorf("warnings on a matching resume: %q", warns)
	}
}

// sameRow renders the parts of a row that a re-run must reproduce: the
// status and error, the ranks, and both stat blocks minus the wall times.
func sameRow(r SubjectResult) string {
	cprStats, cegisStats := r.CPR, r.CEGISStats
	cprStats.SatTime, cprStats.LIATime, cprStats.ValidateTime = 0, 0, 0
	cegisStats.SatTime, cegisStats.LIATime, cegisStats.ValidateTime = 0, 0, 0
	return fmt.Sprintf("%s %v %v rank=%d/%v cegis=%v/%v\ncpr:   %+v\ncegis: %+v",
		r.Status, r.NA, r.Err, r.Rank, r.RankFound, r.CEGISGenerated, r.CEGISCorrect, cprStats, cegisStats)
}

// sigkillRunOptions is the table1 configuration of the SIGKILL harness:
// fast budgets, one worker (so every counter is deterministic), and a
// snapshot at every second generation barrier.
func sigkillRunOptions(dir string, resume bool, lines *[]string) RunOptions {
	opts := ckptRunOptions(dir, resume, lines)
	opts.Core.Workers = 1
	opts.Checkpoint.Interval = 2
	return opts
}

// TestSuiteCrashHelperProcess is not a test: it is the subprocess body for
// TestSuiteResumeAfterSIGKILL. It runs table1 with a checkpoint directory
// and kills its own process with a real SIGKILL at the configured
// generation barrier. bench recovers panics per subject, so an in-process
// panic would not stop the suite.
func TestSuiteCrashHelperProcess(t *testing.T) {
	if os.Getenv("CPR_CRASH_HELPER") != "1" {
		t.Skip("helper process for TestSuiteResumeAfterSIGKILL")
	}
	crashAt := 0
	fmt.Sscanf(os.Getenv("CPR_CRASH_AT"), "%d", &crashAt)
	faultinject.Activate(&faultinject.Plan{
		CrashAt: crashAt,
		Crash:   func() { syscall.Kill(os.Getpid(), syscall.SIGKILL) },
	})
	defer faultinject.Deactivate()
	Table1(sigkillRunOptions(os.Getenv("CPR_CRASH_DIR"), false, nil))
	// Reaching here means the suite finished before the crash barrier.
	os.Exit(3)
}

// barrierSite is where one generation barrier of a table1 run falls.
type barrierSite struct {
	subject int  // index into the table1 subjects
	cegis   bool // in the subject's CEGIS half (else its CPR half)
}

// recordBarriers runs table1 with a crash func that only records where
// each generation barrier falls; the run itself is unaffected.
func recordBarriers(opts RunOptions) ([]SubjectResult, []barrierSite) {
	var sites []barrierSite
	subject := 0
	faultinject.Activate(&faultinject.Plan{
		CrashEvery: 1,
		Crash:      func() { sites = append(sites, barrierSite{subject: subject, cegis: inCEGIS()}) },
	})
	defer faultinject.Deactivate()
	progress := opts.Progress
	opts.Progress = func(line string) {
		if progress != nil {
			progress(line)
		}
		subject++
	}
	return Table1(opts), sites
}

// countBarriers returns the ordinal (from 1) of the first barrier in the
// given half of subject subj, and how many barriers that half has.
func countBarriers(sites []barrierSite, subj int, cegis bool) (first, n int) {
	for i, s := range sites {
		if s.subject == subj && s.cegis == cegis {
			if n == 0 {
				first = i + 1
			}
			n++
		}
	}
	return first, n
}

// inCEGIS reports whether the calling goroutine is inside the CEGIS
// baseline.
func inCEGIS() bool {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.HasPrefix(f.Function, "cpr/internal/cegis.") {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestSuiteResumeAfterSIGKILL kills a checkpointed table1 run with a real
// SIGKILL inside one subject's CPR half and, separately, inside another
// subject's CEGIS half, then resumes each in-process. The subjects before
// the killed one replay from the journal; the killed subject's CPR run
// continues from its engine snapshot and its CEGIS baseline runs again
// from the start. The resumed rows must equal an uninterrupted run's,
// except the wall times and, in the killed subject's CPR stats, what a
// cold verdict cache changes (CacheHits, CacheMisses, TheoryRounds,
// Validations) and the structure peaks, which cover only the barriers the
// resumed process passed. The resumed process must pass fewer barriers in
// the killed subject's CPR half than the uninterrupted run did (it did
// resume from the snapshot) and all of its CEGIS half's.
func TestSuiteResumeAfterSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess harness")
	}
	base, sites := recordBarriers(sigkillRunOptions("", false, nil))

	// Pick the fifth barrier of the first CPR half (after the first
	// subject) that has at least six, so the kill lands after a snapshot,
	// and the middle barrier of the first CEGIS half (after the first
	// subject) that has at least three.
	cprAt, cegisAt := 0, 0
	cprSubj, cegisSubj := -1, -1
	for subj := 1; subj < len(base); subj++ {
		if first, n := countBarriers(sites, subj, false); cprAt == 0 && n >= 6 {
			cprAt, cprSubj = first+4, subj
		}
		if first, n := countBarriers(sites, subj, true); cegisAt == 0 && subj != cprSubj && n >= 3 {
			cegisAt, cegisSubj = first+n/2, subj
		}
	}
	if cprAt == 0 || cegisAt == 0 {
		t.Fatalf("no CPR half with 6 barriers or CEGIS half with 3 (%d barriers in all)", len(sites))
	}
	t.Logf("%d barriers; killing at %d (%s, CPR) and at %d (%s, CEGIS)", len(sites),
		cprAt, base[cprSubj].Subject.ID(), cegisAt, base[cegisSubj].Subject.ID())

	for _, kill := range []struct {
		name    string
		at      int
		subject int
	}{{"cpr-half", cprAt, cprSubj}, {"cegis-half", cegisAt, cegisSubj}} {
		t.Run(kill.name, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run", "^TestSuiteCrashHelperProcess$", "-test.v")
			cmd.Env = append(os.Environ(),
				"CPR_CRASH_HELPER=1",
				"CPR_CRASH_DIR="+dir,
				fmt.Sprintf("CPR_CRASH_AT=%d", kill.at),
			)
			out, err := cmd.CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("helper: %v; expected death by SIGKILL\n%s", err, out)
			}
			if ws, ok := ee.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
				t.Fatalf("helper did not die by SIGKILL: %v\n%s", err, out)
			}
			killedDir := (&suiteJournal{dir: dir}).subjectDir(base[kill.subject].Subject)
			if snaps, _ := filepath.Glob(filepath.Join(killedDir, "cpr", "snap-*.ckpt")); len(snaps) == 0 {
				t.Fatalf("killed run left no engine snapshot in %s", killedDir)
			}

			// The killed subject must resume from its snapshot, and the
			// subjects after it start without a word: no warning at all.
			var lines, warns []string
			opts := sigkillRunOptions(dir, true, &lines)
			opts.Checkpoint.Warn = func(msg string) { warns = append(warns, msg) }
			rows, resumed := recordBarriers(opts)
			for _, w := range warns {
				t.Errorf("resume warning: %s", w)
			}
			_, cprFull := countBarriers(sites, kill.subject, false)
			_, cprAgain := countBarriers(resumed, kill.subject, false)
			_, cegisFull := countBarriers(sites, kill.subject, true)
			_, cegisAgain := countBarriers(resumed, kill.subject, true)
			if cprAgain >= cprFull || cegisAgain != cegisFull {
				t.Errorf("killed subject's barriers after resume: CPR %d of %d, CEGIS %d of %d; want CPR fewer, CEGIS all",
					cprAgain, cprFull, cegisAgain, cegisFull)
			}
			if len(rows) != len(base) {
				t.Fatalf("%d rows after resume, want %d", len(rows), len(base))
			}
			for i, line := range lines {
				if replayed := strings.Contains(line, "resumed from journal"); replayed != (i < kill.subject) {
					t.Errorf("subject %d (killed at subject %d): %s", i, kill.subject, line)
				}
			}
			for i := range rows {
				got, want := rows[i], base[i]
				if i == kill.subject {
					got.CPR, want.CPR = coldCacheStats(got.CPR), coldCacheStats(want.CPR)
				}
				if g, w := sameRow(got), sameRow(want); g != w {
					t.Errorf("%s diverged after SIGKILL and resume:\n%s\nwant\n%s", rows[i].Subject.ID(), g, w)
				}
			}
			if subs, _ := os.ReadDir(filepath.Join(dir, "subjects")); len(subs) != 0 {
				t.Errorf("resumed suite left %d subject snapshot directories", len(subs))
			}
		})
	}
}

// coldCacheStats zeroes what a resume from an engine snapshot legitimately
// changes: the solver-work counters that depend on the verdict cache's
// contents, and the structure peaks.
func coldCacheStats(st core.Stats) core.Stats {
	st.CacheHits, st.CacheMisses, st.TheoryRounds, st.Validations = 0, 0, 0, 0
	st.FrontierPeak, st.SeenPeak = 0, 0
	return st
}

// TestRowRecordRoundTrip: the durable row form preserves status, error
// text, and both stat blocks.
func TestRowRecordRoundTrip(t *testing.T) {
	s := Catalog(SuiteManyBugs)[0]
	in := SubjectResult{
		Subject:   s,
		Status:    StatusError,
		Err:       errors.New("boom"),
		Rank:      3,
		RankFound: true,
	}
	in.CPR.PInit = 42
	in.CEGISStats.PathsExplored = 7
	out := toRowRecord(s, in, 0).toResult(s)
	if out.Subject != s || out.Status != StatusError || out.Err == nil || out.Err.Error() != "boom" {
		t.Fatalf("round trip lost identity fields: %+v", out)
	}
	if out.CPR != in.CPR || out.CEGISStats != in.CEGISStats || out.Rank != 3 || !out.RankFound {
		t.Fatalf("round trip lost measurements: %+v", out)
	}
}
