package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"cpr/internal/faultinject"
	"cpr/internal/interval"
	"cpr/internal/journal"
	"cpr/internal/patch"
	"cpr/internal/smt/cache"
)

// crashSentinel is the panic value the in-process crash injector throws;
// a recover site in the engine must never swallow it.
type crashSentinel struct{}

// runToCrash runs Repair with checkpointing and an in-process crash
// injected at the nth generation barrier; it reports whether the crash
// fired (false means the run completed before reaching barrier n).
func runToCrash(t testing.TB, job Job, opts Options, crashAt int) (crashed bool) {
	t.Helper()
	plan := &faultinject.Plan{
		CrashAt: crashAt,
		Crash:   func() { panic(crashSentinel{}) },
	}
	faultinject.Activate(plan)
	defer faultinject.Deactivate()
	defer func() {
		switch r := recover(); r {
		case nil:
		case crashSentinel{}:
			crashed = true
		default:
			panic(r)
		}
	}()
	if _, err := Repair(job, opts); err != nil {
		t.Fatalf("Repair (crash run): %v", err)
	}
	return false
}

func ckptOptions(dir string, workers, interval int, resume bool, warns *[]string) Options {
	return Options{
		Workers: workers,
		Checkpoint: CheckpointOptions{
			Dir:      dir,
			Interval: interval,
			Resume:   resume,
			Warn: func(msg string) {
				if warns != nil {
					*warns = append(*warns, msg)
				}
			},
		},
	}
}

// dropWallTimes zeroes the wall-time breakdown and the structure-size
// peaks before a stats equality check: times are measurements of this
// machine's clock, not run state, and the peaks are observations over
// whatever barriers the run actually passed — a resumed run never sees
// the pre-crash frontier's peak. Every counting field still compares
// exactly.
func dropWallTimes(st Stats) Stats {
	st.SatTime, st.LIATime, st.ValidateTime = 0, 0, 0
	st.FrontierPeak, st.SeenPeak = 0, 0
	return st
}

// resumedStats is dropWallTimes for a run that resumed from a snapshot. It
// also zeroes exactly the solver-work counters that depend on the verdict
// cache's contents: snapshots do not carry the cache, so the resumed
// process starts it cold and re-solves queries the killed process had
// cached. CacheHits, CacheMisses, TheoryRounds and Validations count that
// work as the processes did it, the way the wall times measure it. Every
// verdict, the pool and every other counter still compare exactly.
func resumedStats(st Stats) Stats {
	st = dropWallTimes(st)
	st.CacheHits, st.CacheMisses, st.TheoryRounds, st.Validations = 0, 0, 0, 0
	return st
}

// TestResumeEquivalenceAfterCrash is the tentpole's differential contract:
// kill the run at a generation barrier, resume from the checkpoint, and
// the final result is bit-identical to the uninterrupted run — patch set,
// parameter regions, ranking, and stats. Workers=1 checks the Stats struct
// (through resumedStats); the parallel variant checks the
// scheduling-independent fingerprint (cache hit/miss split is racy across
// workers even without a crash — see parallel_test.go).
func TestResumeEquivalenceAfterCrash(t *testing.T) {
	for _, workers := range []int{1, testWorkers()} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			job := divZeroJob()
			base, err := Repair(job, Options{Workers: workers})
			if err != nil {
				t.Fatalf("Repair (baseline): %v", err)
			}

			dir := t.TempDir()
			if !runToCrash(t, divZeroJob(), ckptOptions(dir, workers, 2, false, nil), 7) {
				t.Fatal("crash injection never fired; raise the barrier budget")
			}
			snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
			if len(snaps) == 0 {
				t.Fatal("crashed run left no checkpoint")
			}
			if len(snaps) > 2 {
				t.Fatalf("prune kept %d snapshots, want <= 2", len(snaps))
			}

			var warns []string
			res, err := Repair(divZeroJob(), ckptOptions(dir, workers, 2, true, &warns))
			if err != nil {
				t.Fatalf("Repair (resume): %v", err)
			}
			for _, w := range warns {
				t.Errorf("unexpected resume warning: %s", w)
			}
			if got, want := fingerprint(res), fingerprint(base); got != want {
				t.Fatalf("resumed result diverged from uninterrupted run:\n--- resumed\n%s--- baseline\n%s", got, want)
			}
			if workers == 1 && resumedStats(res.Stats) != resumedStats(base.Stats) {
				t.Fatalf("resumed stats diverged:\nresumed:  %+v\nbaseline: %+v", res.Stats, base.Stats)
			}
		})
	}
}

// TestResumeEquivalenceRepeatedCrashes kills the run at several successive
// barriers — each resume itself crashes — before the final resume runs to
// completion. Every intermediate state must round-trip through its
// snapshot without drift.
func TestResumeEquivalenceRepeatedCrashes(t *testing.T) {
	job := divZeroJob()
	base, err := Repair(job, Options{Workers: 1})
	if err != nil {
		t.Fatalf("Repair (baseline): %v", err)
	}
	dir := t.TempDir()
	if !runToCrash(t, divZeroJob(), ckptOptions(dir, 1, 1, false, nil), 3) {
		t.Fatal("first crash never fired")
	}
	for i := 0; i < 3; i++ {
		if !runToCrash(t, divZeroJob(), ckptOptions(dir, 1, 1, true, nil), 2) {
			t.Fatalf("crash %d never fired", i+2)
		}
	}
	res, err := Repair(divZeroJob(), ckptOptions(dir, 1, 1, true, nil))
	if err != nil {
		t.Fatalf("Repair (final resume): %v", err)
	}
	if resumedStats(res.Stats) != resumedStats(base.Stats) {
		t.Fatalf("stats diverged after repeated crashes:\nresumed:  %+v\nbaseline: %+v", res.Stats, base.Stats)
	}
	if got, want := fingerprint(res), fingerprint(base); got != want {
		t.Fatalf("result diverged after repeated crashes:\n--- resumed\n%s--- baseline\n%s", got, want)
	}
}

// TestCheckpointOffIsNoOp: enabling checkpointing must not change the
// result relative to a plain run (the barrier hook and snapshot writes are
// observationally pure).
func TestCheckpointOffIsNoOp(t *testing.T) {
	base, err := Repair(divZeroJob(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Repair(divZeroJob(), ckptOptions(t.TempDir(), 1, 2, false, nil))
	if err != nil {
		t.Fatal(err)
	}
	if dropWallTimes(res.Stats) != dropWallTimes(base.Stats) || fingerprint(res) != fingerprint(base) {
		t.Fatalf("checkpointing changed the result:\nwith:    %+v\nwithout: %+v", res.Stats, base.Stats)
	}
}

// roundTripSnapshot runs a bare engine's state through the checkpoint
// codec: encode it as at a barrier, then decode the payload.
func roundTripSnapshot(t *testing.T, eng *engine, run Stats, st exploreState) *snapshot {
	t.Helper()
	eng.pool = &patch.Pool{}
	eng.opts.SMT.Cache = cache.New()
	ck := &checkpointer{eng: eng, runStats: &run}
	payload, err := ck.encode(&st, &run)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	s, err := decodeSnapshot(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return s
}

// TestResumeFreshStartFallbacks: every way a snapshot can be unusable —
// missing, zero-byte, bit-flipped, wrong engine-payload version, from a
// different job, or holding a state no run of the job can be in — must
// degrade to a warned fresh start that still produces the uninterrupted
// result, never an error, a panic or a partial load. A binary snapshot
// from before payload version 6 is rejected with a warning saying so.
func TestResumeFreshStartFallbacks(t *testing.T) {
	job := divZeroJob()
	base, err := Repair(job, Options{Workers: 1})
	if err != nil {
		t.Fatalf("Repair (baseline): %v", err)
	}
	want := fingerprint(base)

	// corrupt breaks a checkpoint directory and resumes from it; the
	// warnings must include wantWarn, if given.
	corrupt := func(t *testing.T, name string, breakDir func(t *testing.T, dir string), wantWarn ...string) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			breakDir(t, dir)
			var warns []string
			res, err := Repair(divZeroJob(), ckptOptions(dir, 1, 2, true, &warns))
			if err != nil {
				t.Fatalf("Repair after %s snapshot: %v", name, err)
			}
			if len(warns) == 0 {
				t.Errorf("%s snapshot produced no warning", name)
			}
			for _, w := range wantWarn {
				if !strings.Contains(strings.Join(warns, "\n"), w) {
					t.Errorf("%s snapshot: warnings %q do not say %q", name, warns, w)
				}
			}
			if dropWallTimes(res.Stats) != dropWallTimes(base.Stats) || fingerprint(res) != want {
				t.Fatalf("fresh-start run diverged from baseline:\n%+v\nvs\n%+v", res.Stats, base.Stats)
			}
		})
	}

	// A real checkpoint to mutilate, produced by an actual crashed run.
	seedDir := t.TempDir()
	if !runToCrash(t, divZeroJob(), ckptOptions(seedDir, 1, 2, false, nil), 5) {
		t.Fatal("seed crash never fired")
	}
	seedSnaps, _ := filepath.Glob(filepath.Join(seedDir, "snap-*.ckpt"))
	if len(seedSnaps) == 0 {
		t.Fatal("seed run left no checkpoint")
	}
	copySnaps := func(t *testing.T, dir string) {
		for _, s := range seedSnaps {
			data, err := os.ReadFile(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(s)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	corrupt(t, "missing-dir", func(t *testing.T, dir string) {
		// Dir exists but holds nothing; Resume finds no snapshot.
	})
	corrupt(t, "zero-byte", func(t *testing.T, dir string) {
		if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000008.ckpt"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	corrupt(t, "bit-flip", func(t *testing.T, dir string) {
		copySnaps(t, dir)
		snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
		for _, s := range snaps {
			data, err := os.ReadFile(s)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x10
			if err := os.WriteFile(s, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	})
	corrupt(t, "payload-version", func(t *testing.T, dir string) {
		// A well-formed container whose engine payload claims a future
		// schema version.
		payload, err := json.Marshal(snapshot{Version: 999, Barrier: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		if err := journal.WriteSnapshot(dir, 1<<30, payload); err != nil {
			t.Fatal(err)
		}
	}, "engine snapshot version 999, want 6")
	corrupt(t, "pre-v6-payload", func(t *testing.T, dir string) {
		// The varint layout of version 5: version, fingerprint, barrier, ...
		payload := binary.AppendUvarint(nil, 5)
		payload = binary.AppendUvarint(payload, RunFingerprint(divZeroJob(), Options{}))
		payload = binary.AppendUvarint(payload, 8)
		if err := journal.WriteSnapshot(dir, 8, payload); err != nil {
			t.Fatal(err)
		}
	}, "binary engine snapshot predates version 6")

	// rewrite commits the seed run's newest snapshot, edited, to dir: a
	// CRC-valid container with the job's fingerprint and the current
	// version, whose state no run of the job can be in.
	rewrite := func(edit func(t *testing.T, s *snapshot)) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			snap, err := journal.LoadLatest(seedDir)
			if err != nil {
				t.Fatal(err)
			}
			s, err := decodeSnapshot(snap.Payload)
			if err != nil {
				t.Fatal(err)
			}
			edit(t, s)
			payload, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := journal.WriteSnapshot(dir, s.Barrier, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	corrupt(t, "negative-phase", rewrite(func(t *testing.T, s *snapshot) { s.Phase = -1 }), "phase -1 outside [0, 1]")
	corrupt(t, "box-width", rewrite(func(t *testing.T, s *snapshot) {
		for _, ps := range s.Pool {
			if len(ps.Region.Boxes) > 0 {
				ps.Region.Boxes[0] = append(ps.Region.Boxes[0], interval.New(0, 1))
				return
			}
		}
		t.Fatal("seed snapshot has no region box to widen")
	}), "-wide box in a ")
	corrupt(t, "region-dim", rewrite(func(t *testing.T, s *snapshot) {
		s.Pool[0].Region = interval.EmptyRegion(s.Pool[0].Region.Dim + 1)
	}), "its region")
	corrupt(t, "negative-bound", rewrite(func(t *testing.T, s *snapshot) {
		if len(s.Explore.Queue) == 0 {
			t.Fatal("seed snapshot has an empty frontier")
		}
		s.Explore.Queue[0].Bound = -1
	}), "negative bound")
	corrupt(t, "different-job", func(t *testing.T, dir string) {
		other := divZeroJob()
		other.FailingInputs = []map[string]int64{{"x": 9, "y": 0}}
		if !runToCrash(t, other, ckptOptions(dir, 1, 2, false, nil), 5) {
			t.Fatal("other-job crash never fired")
		}
	})
}

// TestResumePrefersIntactOlderSnapshot: when the newest snapshot is
// damaged, resume falls back to the retained older one and still converges
// to the baseline result.
func TestResumePrefersIntactOlderSnapshot(t *testing.T) {
	job := divZeroJob()
	base, err := Repair(job, Options{Workers: 1})
	if err != nil {
		t.Fatalf("Repair (baseline): %v", err)
	}
	dir := t.TempDir()
	if !runToCrash(t, divZeroJob(), ckptOptions(dir, 1, 2, false, nil), 7) {
		t.Fatal("crash never fired")
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if err != nil || len(snaps) < 2 {
		t.Fatalf("want >= 2 retained snapshots, got %v (err %v)", snaps, err)
	}
	// Glob returns sorted paths and the names are zero-padded barriers,
	// so the last one is the newest. Mutilate it.
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var warns []string
	res, err := Repair(divZeroJob(), ckptOptions(dir, 1, 2, true, &warns))
	if err != nil {
		t.Fatalf("Repair (resume): %v", err)
	}
	if dropWallTimes(res.Stats) != dropWallTimes(base.Stats) || fingerprint(res) != fingerprint(base) {
		t.Fatalf("fallback resume diverged from baseline:\n%+v\nvs\n%+v", res.Stats, base.Stats)
	}
}

// FuzzResumeSnapshot feeds arbitrary engine payloads to a resume. Each
// input is committed in a CRC-valid container and, when it is a JSON
// object, stamped with the current version, the job's fingerprint and the
// container's barrier, so mutations get past the checksum and identity
// checks to validation and apply. Whatever the payload holds, Repair
// must return without an error or a panic: a snapshot the engine cannot
// use is a warned fresh start.
func FuzzResumeSnapshot(f *testing.F) {
	seedDir := f.TempDir()
	if !runToCrash(f, divZeroJob(), ckptOptions(seedDir, 1, 2, false, nil), 5) {
		f.Fatal("seed crash never fired")
	}
	snap, err := journal.LoadLatest(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Payload)
	fp := strconv.FormatUint(RunFingerprint(divZeroJob(), Options{}), 10)

	f.Fuzz(func(t *testing.T, payload []byte) {
		var doc map[string]json.RawMessage
		if json.Unmarshal(payload, &doc) == nil && doc != nil {
			doc["version"] = json.RawMessage(strconv.Itoa(coreSnapVersion))
			doc["fingerprint"] = json.RawMessage(fp)
			doc["barrier"] = json.RawMessage("8")
			var err error
			if payload, err = json.Marshal(doc); err != nil {
				t.Fatal(err)
			}
		}
		dir := t.TempDir()
		if err := journal.WriteSnapshot(dir, 8, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := Repair(divZeroJob(), ckptOptions(dir, 1, 2, true, nil)); err != nil {
			t.Fatalf("Repair: %v", err)
		}
	})
}

// --- real-process SIGKILL harness ---

// TestCrashHelperProcess is not a test: it is the subprocess body for
// TestResumeEquivalenceSIGKILL. It runs a checkpointed repair that kills
// its own process — a real, unblockable SIGKILL, not a panic — at the
// configured barrier, exercising the no-warning-possible crash mode the
// journal's atomic-rename discipline exists for.
func TestCrashHelperProcess(t *testing.T) {
	if os.Getenv("CPR_CRASH_HELPER") != "1" {
		t.Skip("helper process for TestResumeEquivalenceSIGKILL")
	}
	dir := os.Getenv("CPR_CRASH_DIR")
	crashAt := 0
	fmt.Sscanf(os.Getenv("CPR_CRASH_AT"), "%d", &crashAt)
	resume := os.Getenv("CPR_CRASH_RESUME") == "1"
	plan := &faultinject.Plan{
		CrashAt: crashAt,
		Crash:   func() { syscall.Kill(os.Getpid(), syscall.SIGKILL) },
	}
	faultinject.Activate(plan)
	defer faultinject.Deactivate()
	opts := ckptOptions(dir, 1, 1, resume, nil)
	if _, err := Repair(divZeroJob(), opts); err != nil {
		fmt.Fprintf(os.Stderr, "helper Repair: %v\n", err)
		os.Exit(2)
	}
	// Reaching here means the run finished before the crash barrier.
	os.Exit(3)
}

func TestResumeEquivalenceSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess harness")
	}
	base, err := Repair(divZeroJob(), Options{Workers: 1})
	if err != nil {
		t.Fatalf("Repair (baseline): %v", err)
	}
	dir := t.TempDir()

	runHelper := func(crashAt int, resume bool) {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashHelperProcess$", "-test.v")
		cmd.Env = append(os.Environ(),
			"CPR_CRASH_HELPER=1",
			"CPR_CRASH_DIR="+dir,
			fmt.Sprintf("CPR_CRASH_AT=%d", crashAt),
		)
		if resume {
			cmd.Env = append(cmd.Env, "CPR_CRASH_RESUME=1")
		}
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("helper exited cleanly; expected SIGKILL\n%s", out)
		}
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("helper: %v\n%s", err, out)
		}
		ws, ok := ee.Sys().(syscall.WaitStatus)
		if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
			t.Fatalf("helper did not die by SIGKILL: %v\n%s", err, out)
		}
	}

	// First life dies at barrier 4; the second life resumes and dies two
	// barriers later; the third resumes in-process and runs to completion.
	runHelper(4, false)
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.ckpt"))
	if len(snaps) == 0 {
		t.Fatal("SIGKILLed run left no checkpoint")
	}
	runHelper(2, true)

	var warns []string
	res, err := Repair(divZeroJob(), ckptOptions(dir, 1, 1, true, &warns))
	if err != nil {
		t.Fatalf("Repair (final resume): %v", err)
	}
	for _, w := range warns {
		t.Errorf("unexpected resume warning: %s", w)
	}
	if resumedStats(res.Stats) != resumedStats(base.Stats) {
		t.Fatalf("stats diverged after SIGKILLs:\nresumed:  %+v\nbaseline: %+v", res.Stats, base.Stats)
	}
	if got, want := fingerprint(res), fingerprint(base); got != want {
		t.Fatalf("result diverged after SIGKILLs:\n--- resumed\n%s--- baseline\n%s", got, want)
	}
}
