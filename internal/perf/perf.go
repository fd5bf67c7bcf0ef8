// Package perf is the repository's performance benchmark: two workloads
// that drive the repair engine and the cprd daemon through their public
// functions, check every result against a golden file, and report
// end-to-end metrics from untraced runs and per-layer metrics from a traced
// one. cmd/cpr-perf is its command; README.md explains the workloads, the
// metrics and how to compare two commits.
package perf

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cpr/internal/bench"
	"cpr/internal/concolic"
	"cpr/internal/core"
	"cpr/internal/synth"
)

// setupReps is how many times a run sets its workload up before each pass
// or round, timing each. Set-up takes about a millisecond, so one timing
// is mostly the machine's jitter, and the first after a pass runs on cold
// caches at two or three times the rest; setup_s is the median of them
// all, and spreading them over the run samples the machine as the passes
// do.
const setupReps = 15

// Workload is one set of inputs the benchmark runs.
type Workload struct {
	Name string
	// Why says what the workload stresses that the others do not.
	Why string
	run func(h *harness) error
}

// Workloads are the benchmark's workloads, in the order a full run uses.
// There are two so that each run can be long: the machine the bounds were
// set on changes speed from one second, and one minute, to the next
// (README.md, "Noise"), and only long runs average that out.
var Workloads = []Workload{
	{
		Name: "suite-solver",
		Why:  "28 ExtractFix subjects through core.Repair at 2 workers in seeded order: pool reduction is most of the time, so solver, reduce and fan-out changes show here",
		run:  func(h *harness) error { return h.runSuite(h.subjects(solverSubjects, bench.SuiteExtractFix)) },
	},
	{
		Name: "daemon-explore",
		Why:  "in-process cprd over loopback HTTP, 4 closed-loop clients in 2 tenants on the 10 SV-COMP and 5 ManyBugs subjects: serving path plus deep exploration",
		run: func(h *harness) error {
			return h.runDaemon(h.subjects(exploreSubjects, bench.SuiteSVCOMP, bench.SuiteManyBugs))
		},
	},
}

// Toy-scale subjects: the lightest runnable ones, so a smoke run of every
// workload finishes in seconds even under the race detector.
var (
	solverSubjects  = []string{"Libxml2/CVE-2016-1839", "Coreutils/GNUBug-25023"}
	exploreSubjects = []string{"gzip/f17cbd13a1", "array-examples/unique_list"}
)

// Config selects one run of one workload.
type Config struct {
	Workload string
	// Seed drives the order in which subjects are repaired or submitted.
	Seed int64
	// Seconds is how long the run measures.
	Seconds float64
	// Trace selects the traced run, which reports the per-layer metrics;
	// an untraced run reports the end-to-end metrics.
	Trace bool
	// Toy runs the workload at smoke-test scale: two subjects and one pass
	// or round.
	Toy bool
	// WorkDir holds the daemons' state directories (created and removed
	// by the run).
	WorkDir string
	// Log receives progress and mismatch lines (nil discards them).
	Log io.Writer
}

// Result is everything one run measured.
type Result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Toy       bool    `json:"toy,omitempty"`
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	Summary
	// Wrong counts jobs whose results differ from the golden file.
	Wrong int `json:"wrong_results"`
	// Extra are measured numbers outside the contract: printed and kept
	// here, but not part of the summary line.
	Extra map[string]Value `json:"extra"`
	// Samples are the per-pass or per-repetition values behind the
	// medians.
	Samples map[string][]float64 `json:"samples"`
	// Jobs lists every job of the run's untraced parts.
	Jobs []JobTiming `json:"jobs"`
	// Errors lists the first failures and mismatches.
	Errors []string `json:"errors,omitempty"`
	// Spans is the trace of a traced run; written to its own file.
	Spans []Span `json:"-"`
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Run runs one workload. A non-nil error means the run could not measure;
// failed and mismatching jobs are reported in the Result instead.
func Run(cfg Config) (*Result, error) {
	w, ok := findWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("perf: unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("perf: seconds must be positive, got %v", cfg.Seconds)
	}
	g, err := LoadGolden()
	if err != nil {
		return nil, err
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	workers := 2
	if n := runtime.NumCPU(); n < workers {
		workers = n
	}
	h := &harness{
		cfg:      cfg,
		golden:   g,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		workers:  workers,
		deadline: time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second))),
		metrics:  map[string]float64{},
		extra:    map[string]Value{},
		samples:  map[string][]float64{},
	}
	if err := w.run(h); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", cfg.Workload, err)
	}
	table := EndToEnd
	if cfg.Trace {
		table = PerLayer
	}
	vs, err := values(table, h.metrics)
	if err != nil {
		return nil, err
	}
	if h.attempted == 0 {
		return nil, fmt.Errorf("perf: %s attempted no jobs", cfg.Workload)
	}
	return &Result{
		Workload:  cfg.Workload,
		Seed:      cfg.Seed,
		Seconds:   cfg.Seconds,
		Trace:     cfg.Trace,
		Toy:       cfg.Toy,
		NProc:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Summary:   Summary{Correct: h.wrong == 0 && h.failed == 0, Attempted: h.attempted, Failed: h.failed, Metrics: vs},
		Wrong:     h.wrong,
		Extra:     h.extra,
		Samples:   h.samples,
		Jobs:      h.jobs,
		Errors:    h.errors,
		Spans:     h.spans,
	}, nil
}

// Print writes every metric line, the extra lines, and the summary JSON as
// the last line.
func (r *Result) Print(w io.Writer) error {
	printLines(w, r.Metrics)
	printLines(w, r.Extra)
	fmt.Fprintf(w, "%-28s %16d count\n", "wrong_results", r.Wrong)
	return writeSummary(w, r.Summary)
}

// WriteFiles writes the result as JSON and, for a traced run, its trace as
// ndjson into dir.
func (r *Result) WriteFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d", r.Workload, r.Seed)
	if r.Trace {
		base += "-trace"
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result-"+base+".json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if !r.Trace {
		return nil
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, r.Spans); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+base+".ndjson"), buf.Bytes(), 0o644)
}

// harness carries one run's state.
type harness struct {
	cfg     Config
	golden  Golden
	rng     *rand.Rand
	workers int
	// deadline is when the run's seconds are used up.
	deadline time.Time
	// lastCal is when the calibration kernel last ran.
	lastCal time.Time

	attempted, failed, wrong int
	errors                   []string

	metrics map[string]float64
	extra   map[string]Value
	samples map[string][]float64
	jobs    []JobTiming
	spans   []Span
	// Daemon-side counters for the serve.* metrics (zero for the suite).
	backlogMax, rejected, retries int
}

// subjects is the workload's subject list: whole suites, or the named toy
// subjects.
func (h *harness) subjects(toy []string, suites ...string) []*bench.Subject {
	var out []*bench.Subject
	if h.cfg.Toy {
		for _, id := range toy {
			out = append(out, findSubject(id))
		}
		return out
	}
	for _, s := range runnable() {
		for _, suite := range suites {
			if s.Suite == suite {
				out = append(out, s)
			}
		}
	}
	return out
}

func findSubject(id string) *bench.Subject {
	project, bug, _ := strings.Cut(id, "/")
	return bench.Find(project, bug)
}

const maxErrors = 20

func (h *harness) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(h.cfg.Log, msg)
	if len(h.errors) < maxErrors {
		h.errors = append(h.errors, msg)
	}
}

// fail records a failed job.
func (h *harness) fail(format string, args ...any) {
	h.attempted++
	h.failed++
	h.note("failed: "+format, args...)
}

// verify records a completed job and checks it against the golden file.
func (h *harness) verify(id string, got Entry, withRank bool) {
	h.attempted++
	if err := h.golden.check(id, got, withRank); err != nil {
		h.wrong++
		h.note("wrong result: %v", err)
	}
}

func (h *harness) sample(name string, vs ...float64) {
	h.samples[name] = append(h.samples[name], vs...)
}

// repeat runs passes (or rounds) until the run's seconds are used: the
// next one starts only while one as long as the last still ends before the
// deadline, so a run stays within its seconds even when the machine slows
// down halfway. It runs one at least, and a toy run exactly one. The
// calibration kernel runs before the first, whenever it is due between
// them, and after the last.
func (h *harness) repeat(run func() (part, error)) ([]part, error) {
	var parts []part
	for {
		t0 := time.Now()
		if err := h.calibrateIfDue(); err != nil {
			return nil, err
		}
		p, err := run()
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
		if h.cfg.Toy || time.Until(h.deadline) < time.Since(t0) {
			return parts, h.calibrate()
		}
	}
}

// calEvery is how often an untraced run times the calibration kernel, at
// the first point after it where no job is running: between subjects in
// suite-solver, between rounds in daemon-explore. A run's slowdown is the
// mean over 7–12 kernel children; the kernel's own noise from one child
// to the next is what this averages out.
const calEvery = 5 * time.Second

// calibrateIfDue calibrates when calEvery has passed since the last time.
func (h *harness) calibrateIfDue() error {
	if time.Since(h.lastCal) < calEvery {
		return nil
	}
	return h.calibrate()
}

// calibrate times the calibration kernel into the cal_s samples of an
// untraced run. Traced runs report no time metric it would scale, and toy
// runs skip it: under the race detector the kernel alone would take longer
// than the whole smoke run.
func (h *harness) calibrate() error {
	if h.cfg.Toy || h.cfg.Trace {
		return nil
	}
	t, err := calibrate(h.workers)
	if err != nil {
		return err
	}
	h.sample("cal_s", t)
	h.lastCal = time.Now()
	return nil
}

// slowdown is how many times slower than nominal the calibration kernel
// ran during the run, on average (1 when it did not run).
func (h *harness) slowdown() float64 {
	cal := h.samples["cal_s"]
	if len(cal) == 0 {
		return 1
	}
	return mean(cal) / calNominal
}

// jobRec is one job as the benchmark observed it.
type jobRec struct {
	subject string
	ok      bool
	// wait is from when the job was due to when it started running: for
	// daemon jobs its submit time to its first running view, for suite
	// subjects the harness's own work between two repairs.
	wait, run, latency time.Duration
	// submit is the POST round trip (daemon jobs only).
	submit time.Duration
	stats  core.Stats
}

// JobTiming is one job's timings in seconds, as written to result files.
type JobTiming struct {
	Subject string  `json:"subject"`
	Part    int     `json:"part"`
	OK      bool    `json:"ok"`
	Wait    float64 `json:"wait_s"`
	Run     float64 `json:"run_s"`
	Latency float64 `json:"latency_s"`
}

// keepJobs adds the parts' jobs to the result file's job list.
func (h *harness) keepJobs(parts []part) {
	for i, p := range parts {
		for _, j := range p.jobs {
			h.jobs = append(h.jobs, JobTiming{Subject: j.subject, Part: i, OK: j.ok,
				Wait: j.wait.Seconds(), Run: j.run.Seconds(), Latency: j.latency.Seconds()})
		}
	}
}

// part is one pass of a suite or one round of daemon jobs.
type part struct {
	jobs []jobRec
	// busy is the sum of the jobs' run times; span is what jobs_per_s
	// divides by: busy for a suite, first submit to last terminal for a
	// daemon round.
	busy, span time.Duration
	// rank is the harness's developer-patch ranking time (the suite only).
	rank time.Duration
}

func (p part) rate() float64 {
	ok := 0
	for _, j := range p.jobs {
		if j.ok {
			ok++
		}
	}
	span := p.span
	if span == 0 {
		span = p.busy
	}
	return float64(ok) / span.Seconds()
}

func (p part) durations(f func(jobRec) time.Duration) []float64 {
	var out []float64
	for _, j := range p.jobs {
		if j.ok {
			out = append(out, f(j).Seconds())
		}
	}
	return out
}

func (p part) sumStats() core.Stats {
	var s core.Stats
	for _, j := range p.jobs {
		s.SolverQueries += j.stats.SolverQueries
		s.SatTime += j.stats.SatTime
		s.LIATime += j.stats.LIATime
		s.ValidateTime += j.stats.ValidateTime
		s.CacheHits += j.stats.CacheHits
		s.CacheMisses += j.stats.CacheMisses
		s.CacheSubsumed += j.stats.CacheSubsumed
		s.EncodeCacheHits += j.stats.EncodeCacheHits
		s.EncodeCacheMisses += j.stats.EncodeCacheMisses
		s.SolverUnknowns += j.stats.SolverUnknowns
		s.FallbackSolves += j.stats.FallbackSolves
		s.ClausesKept += j.stats.ClausesKept
		s.Refinements += j.stats.Refinements
		s.Removals += j.stats.Removals
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd fills the untraced run's metrics from its passes or rounds. The
// time metrics are reported at the machine's nominal speed (calib.go); the
// measured ones are printed beside them with a _raw suffix.
func (h *harness) endToEnd(parts []part, setups []float64) {
	h.keepJobs(parts)
	var lat, rates []float64
	for _, p := range parts {
		rates = append(rates, p.rate())
		lat = append(lat, p.durations(func(j jobRec) time.Duration { return j.latency })...)
	}
	h.samples["jobs_per_s"] = rates
	h.samples["setup_s"] = setups
	rate := Median(rates)
	times := map[string]float64{
		"latency_s_p50": Quantile(lat, 0.5),
		"latency_s_p90": Quantile(lat, 0.9),
		"setup_s":       Median(setups),
	}
	// A machine running slow times long and completes few jobs per second.
	slow := h.slowdown()
	h.metrics["jobs_per_s"] = rate * slow
	h.extra["jobs_per_s_raw"] = Value{rate, "1/s"}
	for name, t := range times {
		h.metrics[name] = t / slow
		h.extra[name+"_raw"] = Value{t, "s"}
	}
	h.extra["latency_samples"] = Value{float64(len(lat)), "count"}
	h.extra["cal_slowdown"] = Value{slow, "ratio"}
	h.metrics["peak_rss_mb"] = peakRSSMB()
}

// layers fills the traced run's per-layer metrics from the traced part,
// the untraced parts (the first ran the same jobs beside the traced one),
// and the workload's subjects.
func (h *harness) layers(tr *Tracer, tl *tally, traced part, untraced []part, ps []prepared, engineWorkers int) {
	spans := tr.Spans()
	h.spans = spans
	if err := CheckTree(spans); err != nil {
		h.note("trace: %v", err)
		h.wrong++
	}
	if n := tl.fallbacks.Load(); n > 0 {
		h.note("trace: %d batches fell back to the local engine", n)
		h.wrong++
	}
	var flips, flipsBusy, reduce, reduceBusy time.Duration
	for _, s := range spans {
		switch s.Name {
		case spanFlips:
			flips += s.Dur()
		case spanFlipWorker:
			flipsBusy += s.Dur()
		case spanReduce:
			reduce += s.Dur()
		case spanReduceWorker:
			reduceBusy += s.Dur()
		}
	}
	m := h.metrics
	m["core.flips_ms"] = ms(flips)
	m["core.flips_busy_ms"] = ms(flipsBusy)
	m["core.flips_items"] = float64(tl.flipItems.Load())
	m["core.flips_feasible_ratio"] = ratio(float64(tl.flipFeasible.Load()), float64(tl.flipItems.Load()))
	m["core.flips_unknown"] = float64(tl.flipUnknown.Load())
	m["core.reduce_ms"] = ms(reduce)
	m["core.reduce_busy_ms"] = ms(reduceBusy)
	m["core.reduce_items"] = float64(tl.reduceItems.Load())
	m["core.reduce_touched_ratio"] = ratio(float64(tl.reduceTouched.Load()), float64(tl.reduceItems.Load()))
	ts := traced.sumStats()
	m["core.refinements"] = float64(ts.Refinements)
	m["core.removals"] = float64(ts.Removals)
	m["core.fanout_eff"] = ratio(ms(flipsBusy+reduceBusy), float64(engineWorkers)*ms(flips+reduce))
	m["core.coord_self_ms"] = ms(traced.busy - flips - reduce)
	m["core.trace_overhead_frac"] = traced.busy.Seconds()/untraced[0].busy.Seconds() - 1

	us := untraced[0].sumStats()
	m["smt.queries"] = float64(us.SolverQueries)
	m["smt.sat_ms"] = ms(us.SatTime)
	m["smt.lia_ms"] = ms(us.LIATime)
	m["smt.validate_ms"] = ms(us.ValidateTime)
	m["smt.other_ms"] = ms(flipsBusy + reduceBusy - ts.SatTime - ts.LIATime - ts.ValidateTime)
	m["smt.cache_hit_rate"] = ratio(float64(us.CacheHits), float64(us.CacheHits+us.CacheMisses))
	m["smt.cache_subsumed"] = float64(us.CacheSubsumed)
	m["smt.enc_cache_hit_rate"] = ratio(float64(us.EncodeCacheHits), float64(us.EncodeCacheHits+us.EncodeCacheMisses))
	m["smt.unknowns"] = float64(us.SolverUnknowns)
	m["smt.fallback_solves"] = float64(us.FallbackSolves)
	m["smt.clauses_kept"] = float64(us.ClausesKept)

	probeLayers(m, ps)

	h.keepJobs(untraced)
	var wait, run []float64
	for _, p := range untraced {
		wait = append(wait, p.durations(func(j jobRec) time.Duration { return j.wait })...)
		run = append(run, p.durations(func(j jobRec) time.Duration { return j.run })...)
	}
	m["job.wait_s_p90"] = Quantile(wait, 0.9)
	m["job.run_s_p50"] = Quantile(run, 0.5)
	m["job.run_s_p90"] = Quantile(run, 0.9)
	m["serve.backlog_max"] = float64(h.backlogMax)
	m["serve.rejected"] = float64(h.rejected)
	m["serve.retries"] = float64(h.retries)

	h.extra["core.repair_ms"] = Value{ms(traced.busy), "ms"}
	if traced.rank > 0 {
		h.extra["core.rank_ms"] = Value{ms(traced.rank), "ms"}
	}
	h.extra["trace.spans"] = Value{float64(len(spans)), "count"}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// probeReps repeats each probe so per-call timings are not one-off.
const probeReps = 3

// probeLayers times the layers the engine calls outside the traced batches,
// on the workload's own subjects: parsing, template synthesis with pool
// construction, and one concolic execution per failing input with the
// developer patch in place.
func probeLayers(m map[string]float64, ps []prepared) {
	var parse, pool, exec time.Duration
	var templates, execs int
	for _, p := range ps {
		parse += p.parse
		for r := 0; r < probeReps; r++ {
			t0 := time.Now()
			ts := synth.Synthesize(p.job.Components, p.job.Program.HoleType)
			synth.BuildPool(ts, p.job.Components)
			pool += time.Since(t0)
			if r == 0 {
				templates += len(ts)
			}
			for _, in := range p.job.FailingInputs {
				t0 := time.Now()
				concolic.Execute(p.job.Program, in, concolic.Options{Patch: p.dev})
				exec += time.Since(t0)
				execs++
			}
		}
	}
	m["lang.parse_ms"] = ms(parse)
	m["synth.pool_ms"] = ms(pool) / probeReps
	m["synth.templates"] = float64(templates)
	m["concolic.exec_us"] = float64(exec) / float64(time.Microsecond) / float64(execs)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, or the Go
// runtime's total memory obtained from the OS where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) == 2 && fields[1] == "kB" {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
