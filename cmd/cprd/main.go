// Command cprd is the repair daemon: a multi-tenant HTTP/JSON service that
// queues and runs concolic-repair jobs on a shared scheduler with admission
// control, backpressure, retry, and graceful drain.
//
// Start a daemon:
//
//	cprd -state /var/lib/cprd -addr 127.0.0.1:8377
//
// Submit a job and watch it:
//
//	curl -s -X POST localhost:8377/jobs -H 'X-Tenant: alice' \
//	    -d '{"subject":"Libtiff/CVE-2016-3623","budget":40}'
//	curl -s localhost:8377/jobs/j-000000/stream
//
// On SIGTERM or SIGINT the daemon drains: admission stops (readyz flips to
// 503), running jobs stop at the next generation barrier (their periodic
// engine checkpoints stay on disk), and queued jobs stay journaled.
// Restarting with -resume finishes all of them with the repair an
// uninterrupted run produces (the same ranked pool; only the solver-work
// counters differ, since the verdict cache restarts cold). A second
// signal kills the process
// immediately — which the same -resume restart also recovers from, via the
// periodic checkpoints.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"cpr/internal/buildinfo"
	"cpr/internal/govern"
	"cpr/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cprd: ")
	var (
		version = flag.Bool("version", false, "print version and exit")
		addr    = flag.String("addr", "127.0.0.1:8377", "HTTP listen address")
		state   = flag.String("state", "", "state directory: job journal + per-job checkpoints (required)")
		resume  = flag.Bool("resume", false, "replay the journal in -state and resume unfinished jobs")

		runners = flag.Int("runners", 2, "concurrently running jobs")
		workers = flag.Int("engine-workers", 1, "exploration workers per job (results identical for any value)")

		queueMax  = flag.Int("queue-max", 64, "global queued-job bound; submits beyond it are shed with 503")
		tenantOut = flag.Int("tenant-max", 8, "per-tenant outstanding-job quota; submits beyond it get 429")
		tenantRun = flag.Int("tenant-running", 0, "per-tenant running-job bound (0 = runners/2, min 1)")
		rate      = flag.Float64("rate", 0, "per-tenant submit rate limit in jobs/second (0 = unlimited)")
		burst     = flag.Int("burst", 4, "per-tenant submit burst size (with -rate)")

		attempts  = flag.Int("max-attempts", 3, "attempts before a failing job dead-letters")
		retryBase = flag.Duration("retry-base", 200*time.Millisecond, "base backoff between attempts (jittered exponential)")
		retryMax  = flag.Duration("retry-max", 10*time.Second, "backoff cap")

		queueTO = flag.Duration("queue-timeout", 0, "expire jobs queued longer than this (0 = never)")
		runTO   = flag.Duration("run-timeout", 0, "wall-clock bound per attempt (0 = none)")

		memHigh  = flag.String("mem-high", "", "high memory watermark (e.g. 512M): jobs shrink verdict caches to a quarter, and new submits shed while a retry backlog drains")
		memLimit = flag.String("mem-limit", "", "process memory ceiling: sets the Go runtime soft limit (GOMEMLIMIT) and derives unset watermarks (70/85%); at critical pressure new submits shed with 503 + Retry-After")

		ckptIvl  = flag.Int("checkpoint-interval", 4, "generation barriers between job checkpoints")
		incr     = flag.Bool("incremental", true, "incremental solver contexts per job")
		paranoid = flag.Bool("paranoid", false, "force 100% solver verdict validation")

		drainTO = flag.Duration("drain-timeout", 30*time.Second, "max wait for running jobs to checkpoint on shutdown")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (stopped at drain)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at drain")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("cprd"))
		return
	}
	warnf := func(format string, args ...any) { log.Printf(format, args...) }
	if *state == "" {
		log.Fatal("-state is required")
	}

	// Profiles are finalized explicitly after the drain (not deferred):
	// the drain-failure path exits through log.Fatal, which would skip
	// deferred writes.
	stopProfiles := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if *memProfile != "" {
		prev := stopProfiles
		stopProfiles = func() {
			prev()
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
		}
	}

	cfg := serve.Config{
		StateDir:             *state,
		Resume:               *resume,
		Runners:              *runners,
		EngineWorkers:        *workers,
		QueueMax:             *queueMax,
		TenantMaxOutstanding: *tenantOut,
		TenantRunning:        *tenantRun,
		RatePerSec:           *rate,
		Burst:                *burst,
		MaxAttempts:          *attempts,
		RetryBase:            *retryBase,
		RetryMax:             *retryMax,
		QueueTimeout:         *queueTO,
		RunTimeout:           *runTO,
		CheckpointInterval:   *ckptIvl,
		Incremental:          *incr,
		Paranoid:             *paranoid,
		Warn:                 func(msg string) { log.Print(msg) },
	}
	gov, err := govern.Setup(*memHigh, *memLimit, warnf)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Govern = gov
	srv, err := serve.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	srv.Start()
	go func() {
		if serr := hs.Serve(ln); serr != nil && serr != http.ErrServerClosed {
			log.Fatal(serr)
		}
	}()
	log.Printf("%s listening on %s, state %s", buildinfo.String("cprd"), ln.Addr(), *state)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	// A second signal bypasses the drain and kills the process — the
	// periodic checkpoints make even that recoverable with -resume.
	signal.Reset(os.Interrupt, syscall.SIGTERM)
	log.Printf("%v: draining (timeout %v; signal again to kill)", got, *drainTO)

	derr := srv.Drain(*drainTO)
	ctx, cancelCtx := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancelCtx()
	_ = hs.Shutdown(ctx)
	stopProfiles()
	if derr != nil {
		log.Fatal(derr)
	}
	log.Print("drained cleanly; restart with -resume to finish outstanding jobs")
}
