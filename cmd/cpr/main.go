// Command cpr repairs a mini-C subject program with concolic program
// repair and prints the ranked patches.
//
// Repair a benchmark subject:
//
//	cpr -subject Libtiff/CVE-2016-3623 -budget 40 -top 5
//
// Repair a program from a file:
//
//	cpr -file prog.c -spec '(distinct y 0)' -failing 'x=7,y=0' -params a,b
//
// Fuzz for a failing input first (the §3.2 pre-processing) when none is
// known:
//
//	cpr -file prog.c -spec '(distinct y 0)' -fuzz
//
// Rank suspicious statements from a pool of inputs (spectrum-based fault
// localization; inputs separated by ';'):
//
//	cpr -file prog.c -localize 'x=1,y=0;x=2,y=3;x=0,y=5'
//
// List benchmark subjects:
//
//	cpr -list
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"cpr"
	"cpr/internal/buildinfo"
	"cpr/internal/govern"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cpr: ")
	var (
		version  = flag.Bool("version", false, "print version and exit")
		list     = flag.Bool("list", false, "list benchmark subjects and exit")
		subject  = flag.String("subject", "", "benchmark subject to repair (Project/BugID)")
		file     = flag.String("file", "", "mini-C program file to repair")
		spec     = flag.String("spec", "", "specification at the bug location (s-expression)")
		failing  = flag.String("failing", "", "failing input, e.g. 'x=7,y=0'")
		params   = flag.String("params", "a,b", "template parameter names")
		pLo      = flag.Int64("param-lo", -10, "parameter range lower bound")
		pHi      = flag.Int64("param-hi", 10, "parameter range upper bound")
		inLo     = flag.Int64("input-lo", -100, "input bound (lower) for exploration")
		inHi     = flag.Int64("input-hi", 100, "input bound (upper) for exploration")
		budget   = flag.Int("budget", 40, "repair-loop iteration budget")
		timeout  = flag.Duration("timeout", 0, "wall-clock repair budget (0 = unbounded); on expiry the best-so-far pool is printed")
		workers  = flag.Int("workers", 0, "exploration worker pool size (0 = NumCPU); 1 replays the sequential engine")
		incr     = flag.Bool("incremental", true, "use incremental solver contexts (persistent encodings, retained learned clauses); results are identical either way")
		paranoid = flag.Bool("paranoid", false, "force 100% solver verdict validation (every unsat answer cross-checked by an independent scratch solve); CPR_PARANOID=1 forces it too")
		memHigh  = flag.String("mem-high", "", "high memory watermark (e.g. 512M): shrink the verdict cache to a quarter above it; results are identical either way")
		memLimit = flag.String("mem-limit", "", "process memory ceiling: sets the Go runtime soft limit (GOMEMLIMIT) and derives unset watermarks (70/85%); sustained critical pressure ends the run with its best-so-far (anytime) pool")
		ckptDir  = flag.String("checkpoint-dir", "", "directory for crash-safe run snapshots (empty = checkpointing off)")
		ckptIvl  = flag.Int("checkpoint-interval", 0, "generation barriers between snapshots (0 = default)")
		resume   = flag.Bool("resume", false, "resume from the latest intact snapshot in -checkpoint-dir")
		top      = flag.Int("top", 5, "ranked patches to print")
		cegis    = flag.Bool("cegis", false, "also run the CEGIS baseline for comparison")
		fuzz     = flag.Bool("fuzz", false, "fuzz for a failing input when -failing is not given")
		localize = flag.String("localize", "", "';'-separated inputs: rank suspicious statements instead of repairing")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("cpr"))
		return
	}
	if *pLo > *pHi || *inLo > *inHi {
		log.Printf("empty range: -param-lo %d -param-hi %d, -input-lo %d -input-hi %d (each lo must not exceed its hi)", *pLo, *pHi, *inLo, *inHi)
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if *resume && *ckptDir == "" {
		log.Fatal("-resume requires -checkpoint-dir")
	}
	// Ctrl-C / SIGTERM cancel the run cooperatively: the engine stops at
	// the next barrier and the best-so-far pool is still printed; with
	// -checkpoint-dir set, the periodic snapshots already on disk make the
	// run resumable with -resume. The first signal releases the handler,
	// so a second one terminates immediately.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-ctx.Done()
		stopSignals()
	}()
	opts := cpr.Options{Workers: *workers, Context: ctx}
	gov, err := govern.Setup(*memHigh, *memLimit, func(format string, args ...any) { log.Printf(format, args...) })
	if err != nil {
		log.Fatal(err)
	}
	opts.Govern = gov
	opts.SMT.Incremental = *incr
	opts.SMT.Guard.Paranoid = *paranoid
	opts.Checkpoint = cpr.CheckpointOptions{
		Dir:      *ckptDir,
		Interval: *ckptIvl,
		Resume:   *resume,
		Warn:     func(msg string) { log.Print(msg) },
	}
	runBudget := cpr.Budget{MaxIterations: *budget, MaxDuration: *timeout}

	switch {
	case *list:
		for _, suite := range []string{cpr.SuiteExtractFix, cpr.SuiteManyBugs, cpr.SuiteSVCOMP} {
			fmt.Printf("%s:\n", suite)
			for _, s := range cpr.Subjects(suite) {
				note := ""
				if s.Unsupported != "" {
					note = "  [N/A: " + s.Unsupported + "]"
				}
				fmt.Printf("  %s%s\n", s.ID(), note)
			}
		}
		return
	case *subject != "":
		parts := strings.SplitN(*subject, "/", 2)
		if len(parts) != 2 {
			log.Fatalf("subject must be Project/BugID, got %q", *subject)
		}
		s := cpr.FindSubject(parts[0], parts[1])
		if s == nil {
			log.Fatalf("unknown subject %q (use -list)", *subject)
		}
		if s.Unsupported != "" {
			log.Fatalf("subject is not runnable: %s", s.Unsupported)
		}
		job, err := s.Job(runBudget)
		if err != nil {
			log.Fatal(err)
		}
		dev, err := s.DevPatchTerm()
		if err != nil {
			log.Fatal(err)
		}
		runJob(job, dev, *top, *cegis, opts)
		return
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			log.Fatal(err)
		}
		prog, err := cpr.ParseProgram(string(src))
		if err != nil {
			log.Fatal(err)
		}
		if *localize != "" {
			localizeFile(prog, *localize)
			return
		}
		if *spec == "" {
			log.Fatal("-file requires -spec")
		}
		if *failing == "" && !*fuzz {
			log.Fatal("-file requires -failing (or -fuzz to generate one)")
		}
		var names []string
		for _, p := range prog.Inputs() {
			names = append(names, p.Name)
		}
		specTerm, err := cpr.ParseSpec(*spec, names...)
		if err != nil {
			log.Fatalf("spec: %v", err)
		}
		var in map[string]int64
		if *failing != "" {
			in, err = parseInput(*failing)
			if err != nil {
				log.Fatal(err)
			}
		} else {
			falseTerm, err := cpr.ParseSpec("false")
			if err != nil {
				log.Fatal(err)
			}
			bounds := map[string]cpr.Interval{}
			for _, p := range prog.Inputs() {
				bounds[p.Name] = cpr.NewInterval(*inLo, *inHi)
			}
			camp := cpr.FindFailingInput(prog, falseTerm, cpr.FuzzOptions{Seed: 1, InputBounds: bounds})
			if camp.Failing == nil {
				log.Fatalf("fuzzer found no failing input in %d runs", camp.Runs)
			}
			fmt.Printf("fuzzer: failing input %v after %d runs\n", camp.Failing, camp.Runs)
			in = camp.Failing
		}
		vars := map[string]cpr.LangType{}
		bounds := map[string]cpr.Interval{}
		for _, p := range prog.Inputs() {
			vars[p.Name] = p.Type
			bounds[p.Name] = cpr.NewInterval(*inLo, *inHi)
		}
		job := cpr.Job{
			Program:       prog,
			Spec:          specTerm,
			FailingInputs: []map[string]int64{in},
			Components: cpr.Components{
				Vars:       vars,
				Params:     strings.Split(*params, ","),
				ParamRange: cpr.NewInterval(*pLo, *pHi),
			},
			InputBounds: bounds,
			Budget:      runBudget,
		}
		runJob(job, nil, *top, *cegis, opts)
		return
	}
	flag.Usage()
	os.Exit(2)
}

func runJob(job cpr.Job, dev *cpr.Term, top int, withCEGIS bool, opts cpr.Options) {
	res, err := cpr.Repair(job, opts)
	if err != nil {
		log.Fatal(err)
	}
	st := res.Stats
	if st.TimedOut {
		switch {
		case st.MemStopped:
			fmt.Println("memory pressure stayed critical: showing the best-so-far (anytime) pool; raise -mem-limit or narrow the job to finish it")
		case opts.Context.Err() != nil:
			// A signal cancelled the CLI's own context; a -timeout expiry
			// only ends the engine's run context derived from it.
			fmt.Println("interrupted: showing the best-so-far (anytime) pool; with -checkpoint-dir the run is resumable with -resume")
		default:
			fmt.Println("wall-clock budget expired: showing the best-so-far (anytime) pool")
		}
	}
	fmt.Printf("patch space: %d → %d concrete patches (%.0f%% reduction)\n",
		st.PInit, st.PFinal, st.ReductionRatio()*100)
	fmt.Printf("paths explored: %d, skipped: %d, refinements: %d, removals: %d\n",
		st.PathsExplored, st.PathsSkipped, st.Refinements, st.Removals)
	fmt.Printf("workers: %d, solver queries: %d, cache hit rate: %.1f%%\n",
		st.Workers, st.SolverQueries, st.CacheHitRate()*100)
	for _, line := range st.SummaryLines() {
		fmt.Println(line)
	}
	if dev != nil {
		if rank, ok := cpr.CorrectPatchRank(res, dev, job.InputBounds); ok {
			fmt.Printf("developer patch covered at rank %d\n", rank)
		} else {
			fmt.Println("developer patch not covered by the final pool")
		}
	}
	fmt.Println("\ntop patches:")
	for _, line := range cpr.FormatTopPatches(res, top) {
		fmt.Println("  " + line)
	}
	if len(res.Ranked) > 0 {
		best := res.Ranked[0]
		params, _ := best.AnyParams()
		fmt.Println("\nrepaired program:")
		fmt.Println(cpr.FormatProgram(job.Program, cpr.PatchText(best, params)))
	}
	if withCEGIS {
		cres, err := cpr.RepairCEGIS(job, cpr.CEGISOptions{})
		if err != nil {
			log.Fatalf("cegis: %v", err)
		}
		fmt.Printf("\nCEGIS baseline: |P| %d → %d (%.0f%%), φE=%d",
			cres.Stats.PInit, cres.Stats.PFinal, cres.Stats.ReductionRatio()*100, cres.Stats.PathsExplored)
		if e := cres.ConcreteExpr(); e != nil {
			fmt.Printf(", patch: %s", cpr.PatchText(cres.Patch, cres.Params))
		} else {
			fmt.Print(", no patch")
		}
		fmt.Println()
	}
}

func localizeFile(prog *cpr.Program, spec string) {
	var inputs []map[string]int64
	for _, one := range strings.Split(spec, ";") {
		in, err := parseInput(one)
		if err != nil {
			log.Fatal(err)
		}
		inputs = append(inputs, in)
	}
	rep, err := cpr.LocalizeFault(prog, inputs, cpr.FaultOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault localization over %d failing / %d passing runs (Ochiai):\n", rep.Failing, rep.Passing)
	for i, r := range rep.Ranked {
		if i >= 10 {
			break
		}
		fmt.Printf("  %2d. line %3d col %2d  score %.3f\n", i+1, r.Pos.Line, r.Pos.Col, r.Score)
	}
}

func parseInput(s string) (map[string]int64, error) {
	in := map[string]int64{}
	for _, kv := range strings.Split(s, ",") {
		parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad input assignment %q", kv)
		}
		v, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad input value %q: %v", kv, err)
		}
		in[parts[0]] = v
	}
	return in, nil
}
