// Command cpr-bench regenerates the tables and the figure of the paper's
// evaluation on the re-encoded benchmark, printing measured values next to
// the paper's reported ones.
//
//	cpr-bench -what all
//	cpr-bench -what table1 -budget 40
//	cpr-bench -what figure1
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"cpr"
	"cpr/internal/bench"
	"cpr/internal/buildinfo"
	"cpr/internal/core"
	"cpr/internal/govern"
	"cpr/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cpr-bench: ")
	var (
		version      = flag.Bool("version", false, "print version and exit")
		what         = flag.String("what", "all", "what to run: figure1, table1..table6, anytime, pathreduction, all")
		budget       = flag.Int("budget", 0, "override per-subject iteration budget (0 = subject defaults)")
		timeout      = flag.Duration("timeout", 0, "per-subject wall-clock cap (0 = unbounded); hung subjects become timeout rows")
		workers      = flag.Int("workers", 0, "exploration worker pool size (0 = NumCPU); 1 replays the sequential engine")
		shards       = flag.Int("shards", 0, "distribute exploration across N local shard worker processes (0 = off); results are identical at any shard count")
		shardWorker  = flag.Bool("shard-worker", false, "internal: serve as a shard worker over stdin/stdout (spawned by -shards)")
		shardHB      = flag.Duration("shard-heartbeat", time.Second, "shard liveness heartbeat interval (0 disables heartbeats)")
		shardTimeout = flag.Duration("shard-timeout", 10*time.Second, "declare a shard dead after this long without any frame (0 disables the watchdog)")
		shardHedge   = flag.Duration("shard-hedge", 500*time.Millisecond, "age floor before a straggling chunk is speculatively re-issued to an idle shard (0 disables hedging)")
		incremental  = flag.Bool("incremental", true, "use incremental solver contexts (persistent encodings, retained learned clauses); results are identical either way")
		paranoid     = flag.Bool("paranoid", false, "force 100% solver verdict validation (every unsat answer cross-checked by an independent scratch solve); CPR_PARANOID=1 forces it too")
		memSoft      = flag.String("mem-soft", "", "soft memory watermark (e.g. 512M): shrink caches and retire idle solver contexts above it; measured tables are identical either way")
		memHigh      = flag.String("mem-high", "", "high memory watermark: additionally spill frontier cold tails to disk; measured tables are identical either way")
		memLimit     = flag.String("mem-limit", "", "process memory ceiling: sets the Go runtime soft limit (GOMEMLIMIT) and derives unset watermarks (50/70/85%)")
		jsonOut      = flag.String("json", "", "write per-subject measurements (wall time, iterations, solver queries, cache hit rate) to this JSON file (committed atomically)")
		ckptDir      = flag.String("checkpoint-dir", "", "directory for crash-safe suite journals and per-subject engine snapshots (empty = off)")
		resume       = flag.Bool("resume", false, "resume a killed suite run: completed subjects replay from the journal, the interrupted one continues from its snapshot")
		quiet        = flag.Bool("q", false, "suppress progress lines")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("cpr-bench"))
		return
	}
	warnf := func(format string, args ...any) { log.Printf(format, args...) }
	if *shardWorker {
		if err := shard.ServeStdio(warnf); err != nil {
			log.Fatal(err)
		}
		return
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

	opts := bench.RunOptions{SubjectTimeout: *timeout}
	gov, err := govern.Setup(*memSoft, *memHigh, *memLimit, warnf)
	if err != nil {
		log.Fatal(err)
	}
	opts.Core.Govern = gov
	opts.Core.Workers = *workers
	opts.Core.SMT.Incremental = *incremental
	opts.CEGIS.SMT.Incremental = *incremental
	opts.Baselines.SMT.Incremental = *incremental
	opts.Core.SMT.Guard.Paranoid = *paranoid
	opts.CEGIS.SMT.Guard.Paranoid = *paranoid
	opts.Baselines.SMT.Guard.Paranoid = *paranoid
	if *shards > 0 {
		cfg := shard.Config{Heartbeat: *shardHB, Timeout: *shardTimeout, Hedge: *shardHedge}
		opts.Core.NewDistributor = shard.SpawnFactory(*shards, []string{"-shard-worker"}, cfg, warnf)
	}
	if *budget > 0 {
		opts.Budget = core.Budget{MaxIterations: *budget, ValidationIterations: 8}
	}
	if *resume && *ckptDir == "" {
		log.Fatal("-resume requires -checkpoint-dir")
	}
	opts.Checkpoint = core.CheckpointOptions{
		Dir:    *ckptDir,
		Resume: *resume,
		Warn:   func(msg string) { log.Print(msg) },
	}
	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	var t1, t3, t4 []bench.SubjectResult
	var jsonRows []bench.SubjectResult
	run := func(name string) {
		switch name {
		case "figure1":
			steps, err := bench.Figure1()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(bench.FormatFigure1(steps))
		case "table1":
			t1 = bench.Table1(opts)
			jsonRows = append(jsonRows, t1...)
			fmt.Println(bench.FormatTable1(t1))
		case "table2":
			rows := bench.Table2(opts)
			fmt.Println(bench.FormatTable2(rows))
		case "table3":
			t3 = bench.Table3(opts)
			jsonRows = append(jsonRows, t3...)
			fmt.Println(bench.FormatCPRTable("Table 3: ManyBugs subjects", t3))
		case "table4":
			t4 = bench.Table4(opts)
			jsonRows = append(jsonRows, t4...)
			fmt.Println(bench.FormatCPRTable("Table 4: SV-COMP logical errors", t4))
		case "table5":
			rows := bench.Table5(opts)
			fmt.Println(bench.FormatTable5(rows))
		case "table6":
			if t1 == nil {
				t1 = bench.Table1(opts)
			}
			if t3 == nil {
				t3 = bench.Table3(opts)
			}
			if t4 == nil {
				t4 = bench.Table4(opts)
			}
			fmt.Println(bench.FormatTable6(bench.Table6(t1, t3, t4)))
		case "anytime":
			s := cpr.FindSubject("Libtiff", "CVE-2016-3623")
			rows, err := bench.Anytime(s, []int{2, 5, 10, 20, 40}, opts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Anytime (gradual correctness) on", s.ID())
			for _, r := range rows {
				fmt.Printf("  budget %3d iterations: |P_final| = %4d (%.0f%% reduction)\n",
					r.Iterations, r.PFinal, r.Ratio*100)
			}
			fmt.Println()
		case "pathreduction":
			subjects := []*bench.Subject{
				cpr.FindSubject("Libtiff", "CVE-2016-3623"),
				cpr.FindSubject("Libtiff", "CVE-2016-10094"),
				cpr.FindSubject("loops", "linear_search"),
			}
			rows := bench.PathReductionAblation(subjects, opts)
			fmt.Println("Path-reduction ablation (§3.4): φE/φS with and without pruning")
			for _, r := range rows {
				fmt.Printf("  %-28s with: φE=%3d φS=%3d   without: φE=%3d φS=%3d\n",
					r.Subject.ID(), r.With.PathsExplored, r.With.PathsSkipped,
					r.Without.PathsExplored, r.Without.PathsSkipped)
			}
			fmt.Println()
		default:
			log.Fatalf("unknown -what %q", name)
		}
	}

	writeJSON := func() {
		if *jsonOut == "" {
			return
		}
		if err := bench.WriteJSONFile(*jsonOut, jsonRows); err != nil {
			log.Fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %d rows to %s\n", len(jsonRows), *jsonOut)
		}
	}
	if *what == "all" {
		for _, name := range []string{"figure1", "table1", "table2", "table3", "table4", "table5", "table6", "anytime", "pathreduction"} {
			run(name)
		}
		writeJSON()
		return
	}
	run(*what)
	writeJSON()
}
