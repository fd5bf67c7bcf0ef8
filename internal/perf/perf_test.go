package perf

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"cpr/internal/bench"
	"cpr/internal/core"
)

// TestTracedMatchesUntraced repairs one subject of each suite with and
// without the traced distributor: both must reproduce the golden entry,
// and the trace must be a well-formed tree in which the Repair span's self
// time plus its batches' wall time is the Repair span's wall time.
func TestTracedMatchesUntraced(t *testing.T) {
	g, err := LoadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{solverSubjects[1], exploreSubjects[0]} {
		ps, err := prepare(toySubjects(t, id))
		if err != nil {
			t.Fatal(err)
		}
		p := ps[0]
		plain, err := repair(p.job, engineOptions(2))
		if err != nil {
			t.Fatal(err)
		}
		tr, tl := NewTracer(), &tally{}
		sp := tr.Begin(0, spanRepair, p.id)
		opts := engineOptions(2)
		opts.NewDistributor = tracedFactory(tr, tl, sp.ID(), func(core.Job) string { return p.id })
		traced, err := repair(p.job, opts)
		sp.End()
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range map[string]*core.Result{"untraced": plain, "traced": traced} {
			if err := g.check(p.id, entryOf(res, rankOf(p, res)), true); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
		if n := tl.fallbacks.Load(); n != 0 {
			t.Errorf("%s: %d batches fell back to the local engine", id, n)
		}
		spans := tr.Spans()
		if err := CheckTree(spans); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var root Span
		var batches time.Duration
		var children [][2]int64
		for _, s := range spans {
			switch {
			case s.Name == spanRepair:
				root = s
			case s.Parent == sp.ID():
				batches += s.Dur()
				children = append(children, [2]int64{s.Start, s.End})
			}
		}
		if len(children) == 0 {
			t.Fatalf("%s: no batch spans recorded", id)
		}
		self := root.Dur() - covered(children)
		if d := self + batches - root.Dur(); d < -time.Millisecond || d > time.Millisecond {
			t.Errorf("%s: self %v + batches %v differs from Repair wall %v by %v", id, self, batches, root.Dur(), d)
		}
	}
}

// covered is the total length of the union of the intervals.
func covered(iv [][2]int64) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, math.MinInt64
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return time.Duration(total)
}

func toySubjects(t *testing.T, ids ...string) []*bench.Subject {
	t.Helper()
	var out []*bench.Subject
	for _, id := range ids {
		s := findSubject(id)
		if s == nil {
			t.Fatalf("no subject %s", id)
		}
		out = append(out, s)
	}
	return out
}

func TestTraceRoundTrip(t *testing.T) {
	tr := NewTracer()
	a := tr.Begin(0, spanRepair, "x/y")
	b := tr.Begin(a.ID(), spanFlips, "x/y")
	b.End()
	a.End()
	tr.Record(0, spanJob, "j-000001 x/y", time.Now(), time.Now().Add(time.Millisecond))
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 3 {
		t.Fatalf("%d lines, want 3", n)
	}
	got, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr.Spans()) {
		t.Fatalf("round trip changed the spans:\n%v\n%v", got, tr.Spans())
	}
	if err := CheckTree(got); err != nil {
		t.Fatal(err)
	}
}

func TestCheckTreeRejectsEscapingChild(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: spanRepair, Start: 10, End: 20},
		{ID: 2, Parent: 1, Name: spanFlips, Start: 12, End: 21},
	}
	if CheckTree(spans) == nil {
		t.Fatal("a child ending after its parent was accepted")
	}
	spans[1].End = 15
	spans = append(spans, Span{ID: 3, Parent: 1, Name: spanReduce, Start: 14, End: 18})
	if CheckTree(spans) == nil {
		t.Fatal("overlapping batches were accepted")
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkContract checks BENCHMARK.json against the metric and
// workload tables the program reports from.
func TestBenchmarkContract(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) > 8 || len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8/16/128",
			len(bf.Workloads), len(bf.EndToEnd), len(bf.PerLayer))
	}
	if len(bf.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(Workloads))
	}
	for i, w := range bf.Workloads {
		checkName(w.Name)
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why {
			t.Errorf("workload %d is %q (%q), the program's %q (%q)", i, w.Name, w.Why, Workloads[i].Name, Workloads[i].Why)
		}
	}
	if len(bf.EndToEnd) != len(EndToEnd) || len(bf.PerLayer) != len(PerLayer) {
		t.Fatalf("metric counts differ: file %d/%d, program %d/%d", len(bf.EndToEnd), len(bf.PerLayer), len(EndToEnd), len(PerLayer))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		checkName(m.Name)
		p := EndToEnd[i]
		if m.Name != p.Name || m.Unit != p.Unit || m.Better != p.Better || m.Bound != p.Bound {
			t.Errorf("end-to-end %d is %+v, the program's %+v", i, m, p)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range bf.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	workloadRef := regexp.MustCompile(`(suite-solver|daemon-explore|any workload)`)
	for i, m := range bf.PerLayer {
		checkName(m.Name)
		p := PerLayer[i]
		if m.Name != p.Name || m.Unit != p.Unit || m.Better != p.Better {
			t.Errorf("per-layer %d is %+v, the program's %+v", i, m, p)
		}
		namesMetric := false
		for _, e := range EndToEnd {
			namesMetric = namesMetric || strings.Contains(p.Moves, e.Name)
		}
		if !namesMetric || !workloadRef.MatchString(p.Moves) {
			t.Errorf("%s: %q does not name the end-to-end metric and workload it should move", p.Name, p.Moves)
		}
	}
}

// TestSmoke runs every workload at toy scale, untraced and traced, through
// the whole output path: printed lines with units, the summary line, the
// result file and the trace.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			res, err := Run(Config{Workload: w.Name, Seed: 7, Seconds: 2, Trace: trace, Toy: true, WorkDir: filepath.Join(dir, "work")})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d: %v", w.Name, trace, res.Correct, res.Failed, res.Attempted, res.Errors)
			}
			var out bytes.Buffer
			if err := res.Print(&out); err != nil {
				t.Fatal(err)
			}
			checkPrinted(t, w.Name, out.String(), trace)
			if err := res.WriteFiles(dir); err != nil {
				t.Fatal(err)
			}
		}
		tf, err := os.Open(filepath.Join(dir, "trace-"+w.Name+"-seed7-trace.ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		spans, err := ReadNDJSON(tf)
		tf.Close()
		if err != nil || len(spans) == 0 {
			t.Fatalf("%s: trace has %d spans: %v", w.Name, len(spans), err)
		}
		if err := CheckTree(spans); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "work")); err != nil || len(entries) != 0 {
		t.Errorf("daemon state left behind: %v %v", entries, err)
	}
}

// checkPrinted parses a run's standard output: "name value unit" lines,
// then the summary JSON, whose metrics are exactly the run's table.
func checkPrinted(t *testing.T, workload, out string, trace bool) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var sum map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	keys := make([]string, 0, len(sum))
	for k := range sum {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("%s: summary keys %v", workload, keys)
	}
	var metrics map[string]Value
	if err := json.Unmarshal(sum["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	table := EndToEnd
	if trace {
		table = PerLayer
	}
	if len(metrics) != len(table) {
		t.Errorf("%s: %d metrics, want %d", workload, len(metrics), len(table))
	}
	printed := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(strings.Join(lines[:len(lines)-1], "\n")))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 {
			t.Errorf("%s: line %q is not name value unit", workload, sc.Text())
			continue
		}
		printed[f[0]] = f[2]
	}
	for _, m := range table {
		v, ok := metrics[m.Name]
		if !ok || v.Unit != m.Unit {
			t.Errorf("%s: summary has %s = %+v, want unit %s", workload, m.Name, v, m.Unit)
		}
		if printed[m.Name] != m.Unit {
			t.Errorf("%s: printed %s with unit %q, want %q", workload, m.Name, printed[m.Name], m.Unit)
		}
	}
}

// TestCalibration checks that the pointer chase visits every element of its
// chain before it comes back, and that the kernel times to a usable value.
func TestCalibration(t *testing.T) {
	c := newChain(1000)
	seen := make([]bool, len(c))
	j := int32(0)
	for i := range c {
		if seen[j] {
			t.Fatalf("chain closes after %d steps, want %d", i, len(c))
		}
		seen[j] = true
		j = c[j]
	}
	if j != 0 {
		t.Fatalf("chain does not return to its start after %d steps", len(c))
	}
	if s, err := calibrate(2); err != nil || !(s > 0) {
		t.Fatalf("calibrate = %v, %v", s, err)
	}
}

// TestMain lets calibrate re-execute the test binary as its calibration
// child.
func TestMain(m *testing.M) {
	if CalibrationChild() {
		return
	}
	os.Exit(m.Run())
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) and ([2, 9, 4], n=4).
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2, 9, 4}, 2, 4, 9},
	} {
		q1, q2, q3 := Quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestQuantileHarrellDavis(t *testing.T) {
	// Reference values from a direct evaluation of the Harrell–Davis sum.
	xs := []float64{0.3, 1.2, 0.05, 2.5, 0.7, 0.9, 0.15}
	for _, c := range []struct{ p, want float64 }{{0.5, 0.6590411186786846}, {0.9, 2.1494734590792657}} {
		if got := Quantile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Quantile([]float64{1, 2}, 0.5); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("median of 1, 2 = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := Metric{Name: "latency_s_p50", Better: "lower", Bound: 0.1}
	a := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scale := func(f float64) []float64 {
		out := make([]float64, len(a))
		for i, x := range a {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		b            []float64
		wins, pairs  int
		failA, failB float64
		want         string
	}{
		{scale(0.8), 10, 10, 0, 0, Improved},
		{scale(0.8), 8, 10, 0, 0, Unchanged},
		{scale(1.0), 5, 10, 0, 0, Unchanged},
		{scale(1.2), 0, 10, 0, 0, Regressed},
		{[]float64{0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3}, 3, 7, 0, 0, Unresolved},
		// Faster but failing more jobs: the failures, not the speed, decide.
		{scale(0.8), 10, 10, 0, 0.01, Regressed},
		{scale(0.8), 10, 10, 0.02, 0.01, Improved},
	} {
		if got := Verdict(lower, a, c.b, c.pairs, c.wins, c.failA, c.failB); got != c.want {
			t.Errorf("Verdict(b=%v, %d/%d, failed %v→%v) = %s, want %s", c.b, c.wins, c.pairs, c.failA, c.failB, got, c.want)
		}
	}

	// setup_s: 0.5 ms → 1 ms is twice as slow but under the 20 ms floor;
	// 0.5 ms → 30 ms is beyond it.
	setup := EndToEnd[len(EndToEnd)-1]
	if setup.Name != "setup_s" || setup.Floor == 0 {
		t.Fatalf("last end-to-end metric is %+v, want setup_s with a floor", setup)
	}
	ms := func(v float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v * (1 + 0.3*float64(i%3-1)) / 1000
		}
		return out
	}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{ms(0.5, 10), ms(1, 10), Unchanged},
		{ms(1, 10), ms(0.5, 10), Unchanged},
		{ms(0.5, 10), ms(30, 10), Regressed},
	} {
		if got := Verdict(setup, c.a, c.b, 10, 10, 0, 0); got != c.want {
			t.Errorf("setup_s Verdict(%v → %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}
