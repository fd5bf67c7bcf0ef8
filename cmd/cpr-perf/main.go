// Command cpr-perf is the repository's performance benchmark (see
// internal/perf/README.md). One run measures one workload:
//
//	cpr-perf -workload suite-solver -seed 1 -seconds 55 -trace 0
//
// prints every metric with its unit and, as its last line, a JSON summary
// ({"correct", "attempted", "failed", "metrics"}); an untraced run reports
// the end-to-end metrics, a traced run (-trace 1) the per-layer ones. It
// exits non-zero when a job fails or a result differs from the golden
// file. Without
// -workload it runs every workload, each in its own process.
//
//	cpr-perf -compare A/*.json B/*.json   # compare two sets of -out results
//	cpr-perf -write-golden internal/perf/testdata/golden.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"

	"cpr/internal/perf"
)

func main() {
	if perf.CalibrationChild() {
		return
	}
	log.SetFlags(0)
	log.SetPrefix("cpr-perf: ")
	var (
		workload    = flag.String("workload", "", "workload to run (empty = every workload, one process each)")
		seed        = flag.Int64("seed", 1, "seed for the order in which subjects are repaired or submitted")
		seconds     = flag.Float64("seconds", 55, "how long one run measures")
		trace       = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = untraced run reporting the end-to-end metrics")
		out         = flag.String("out", "", "directory to write result-<workload>-seed<n>.json (and the trace of a traced run) into")
		work        = flag.String("work", "", "directory for the daemons' state (default: a temporary directory)")
		verbose     = flag.Bool("v", false, "log failures and mismatches to stderr")
		compare     = flag.Bool("compare", false, "compare two sets of result files, given as A/*.json B/*.json")
		writeGolden = flag.String("write-golden", "", "repair every subject with one worker and write the golden file to this path")
	)
	flag.Parse()
	switch {
	case *compare:
		if err := perf.CompareFiles(os.Stdout, flag.Args()); err != nil {
			log.Fatal(err)
		}
		return
	case *writeGolden != "":
		if err := perf.WriteGolden(*writeGolden); err != nil {
			log.Fatal(err)
		}
		return
	case *workload == "":
		runAll()
		return
	}
	if *trace != 0 && *trace != 1 {
		log.Fatalf("-trace must be 0 or 1, got %d", *trace)
	}
	dir := *work
	if dir == "" {
		tmp, err := os.MkdirTemp("", "cpr-perf-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	cfg := perf.Config{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace == 1,
		WorkDir:  dir,
		Log:      os.Stderr,
	}
	if !*verbose {
		cfg.Log = nil
	}
	res, err := perf.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		if err := res.WriteFiles(*out); err != nil {
			log.Fatal(err)
		}
	}
	if err := res.Print(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if !res.Correct {
		for _, e := range res.Errors {
			log.Print(e)
		}
		os.Exit(1)
	}
}

// runAll re-executes this binary once per workload with the same flags, so
// each workload's peak RSS is its own.
func runAll() {
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	failed := false
	for _, w := range perf.Workloads {
		args := []string{"-workload", w.Name}
		flag.Visit(func(f *flag.Flag) { args = append(args, "-"+f.Name+"="+f.Value.String()) })
		fmt.Printf("== %s\n", w.Name)
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			log.Printf("%s: %v", w.Name, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
