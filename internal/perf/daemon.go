package perf

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"cpr/internal/bench"
	"cpr/internal/core"
	"cpr/internal/lang"
	"cpr/internal/serve"
)

// daemonTop asks for the whole ranked pool in every result (pools are far
// smaller), so the golden check sees every patch.
const daemonTop = 1000

var tenants = [2]string{"tenant-a", "tenant-b"}

// daemon is an in-process cprd: the serve.Server behind a loopback HTTP
// listener, and the client the benchmark submits through.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	dir    string
}

// startDaemon starts cprd with the daemon workloads' configuration and
// waits until /readyz answers 200; its duration is the daemon's set-up.
func (h *harness) startDaemon(nd func(core.Job, core.Options) (core.Distributor, error)) (*daemon, time.Duration, error) {
	t0 := time.Now()
	if err := os.MkdirAll(h.cfg.WorkDir, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(h.cfg.WorkDir, "cprd-")
	if err != nil {
		return nil, 0, err
	}
	srv, err := serve.New(serve.Config{
		StateDir:      dir,
		Runners:       h.workers,
		EngineWorkers: 1,
		// Admission limits above anything the workloads reach keep quota
		// policy out of the latency numbers.
		QueueMax:             64,
		TenantMaxOutstanding: 64,
		Incremental:          true,
		Seed:                 1,
		NewDistributor:       nd,
		Warn:                 func(msg string) { fmt.Fprintln(h.cfg.Log, "cprd:", msg) },
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(0)
		os.RemoveAll(dir)
		return nil, 0, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: h.workers, MaxIdleConnsPerHost: h.workers},
			Timeout:   time.Minute,
		},
		dir: dir,
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.close()
			return nil, 0, fmt.Errorf("cprd not ready after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(t0), nil
}

// close stops the listener, drains the server and removes its state.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if derr := d.srv.Drain(30 * time.Second); derr != nil && err == nil {
		err = derr
	}
	d.client.CloseIdleConnections()
	if rerr := os.RemoveAll(d.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// setupDaemon starts cprd setupReps times, timing each start into setups
// and closing each daemon before the next, and keeps the last one.
func (h *harness) setupDaemon(nd func(core.Job, core.Options) (core.Distributor, error), setups *[]float64) (*daemon, error) {
	var d *daemon
	for r := 0; r < setupReps; r++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		var dt time.Duration
		var err error
		if d, dt, err = h.startDaemon(nd); err != nil {
			return nil, err
		}
		*setups = append(*setups, dt.Seconds())
	}
	return d, nil
}

// submit posts one job and returns the accepted view, or the HTTP status
// of a refusal.
func (d *daemon) submit(spec serve.JobSpec) (serve.StatusView, int, error) {
	var v serve.StatusView
	body, err := json.Marshal(spec)
	if err != nil {
		return v, 0, err
	}
	resp, err := d.client.Post(d.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return v, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		_, _ = io.Copy(io.Discard, resp.Body)
		return v, resp.StatusCode, nil
	}
	return v, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&v)
}

// observed is one daemon job's outcome as the client saw it.
type observed struct {
	rec        jobRec
	due, start time.Time
	end        time.Time
	final      serve.StatusView
	err        string
}

// runJob submits a job due at due and follows it through Server.Watch to
// its terminal view. A job that ran before the watch was set up is first
// seen after its start, so its wait is overstated by at most the submit
// round trip.
func (d *daemon) runJob(spec serve.JobSpec, due time.Time) observed {
	o := observed{rec: jobRec{subject: spec.Subject}, due: due}
	t0 := time.Now()
	v, code, err := d.submit(spec)
	o.rec.submit = time.Since(t0)
	switch {
	case err != nil:
		o.err = err.Error()
		return o
	case code != http.StatusAccepted:
		o.err = fmt.Sprintf("submit answered %d", code)
		return o
	}
	ch := d.srv.Watch(v.ID)
	if ch == nil {
		o.err = "job " + v.ID + " unknown after submit"
		return o
	}
	for view := range ch {
		if o.start.IsZero() && view.State != serve.StateQueued {
			o.start = time.Now()
		}
		o.final = view
	}
	o.end = time.Now()
	if !o.final.State.Terminal() {
		// A watcher that fell behind lost the terminal event; the channel
		// still closed on it.
		o.final, _ = d.srv.Status(v.ID)
	}
	o.rec.wait = o.start.Sub(due)
	o.rec.run = o.end.Sub(o.start)
	o.rec.latency = o.end.Sub(due)
	return o
}

// collect turns observed jobs into a part, checking each result against
// the golden file and counting failures.
func (h *harness) collect(d *daemon, obs []observed, tr *Tracer) part {
	var p part
	var first, last time.Time
	var submits []float64
	for _, o := range obs {
		if first.IsZero() || o.due.Before(first) {
			first = o.due
		}
		submits = append(submits, ms(o.rec.submit))
		switch {
		case o.err != "":
			h.rejected++
			h.fail("%s: %s", o.rec.subject, o.err)
		case o.final.State != serve.StateDone || o.final.Result == nil:
			h.fail("%s: job %s ended %s: %s", o.rec.subject, o.final.ID, o.final.State, o.final.Error)
		case o.final.Result.Stats.TimedOut:
			h.fail("%s: job %s timed out", o.rec.subject, o.final.ID)
		default:
			r := o.final.Result
			h.verify(o.rec.subject, Entry{
				Pool:   r.TopPatches,
				PInit:  r.Stats.PInit,
				PFinal: r.Stats.PFinal,
				PhiE:   r.Stats.PathsExplored,
				PhiS:   r.Stats.PathsSkipped,
			}, false)
			o.rec.ok = true
			o.rec.stats = r.Stats
			p.busy += o.rec.run
			if o.end.After(last) {
				last = o.end
			}
			if tr != nil {
				job := o.final.ID + " " + o.rec.subject
				id := tr.Record(0, spanJob, job, o.due, o.end)
				tr.Record(id, spanWait, job, o.due, o.start)
				tr.Record(id, spanRun, job, o.start, o.end)
			}
		}
		p.jobs = append(p.jobs, o.rec)
	}
	p.span = last.Sub(first)
	h.retries += int(d.srv.Stats().Jobs.Retries)
	h.sample("serve.submit_ms", submits...)
	return p
}

// watchBacklog samples the daemon's queued-job count once a second until
// the returned stop is called; stop returns the largest count seen.
func watchBacklog(d *daemon) (stop func() int) {
	done := make(chan struct{})
	largest := make(chan int)
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		mx := 0
		for {
			mx = max(mx, d.srv.Stats().Queued)
			select {
			case <-done:
				largest <- mx
				return
			case <-t.C:
			}
		}
	}()
	return func() int {
		close(done)
		return <-largest
	}
}

func jobSpec(s *bench.Subject, tenant string, i int) serve.JobSpec {
	return serve.JobSpec{Tenant: tenant, Label: strconv.Itoa(i), Subject: s.ID(), Top: daemonTop}
}

// closedLoop runs one client per list; each submits its next job as soon
// as the previous one is terminal.
func (h *harness) closedLoop(d *daemon, lists [][]serve.JobSpec, tr *Tracer) part {
	obs := make([][]observed, len(lists))
	var wg sync.WaitGroup
	stopBacklog := watchBacklog(d)
	for c := range lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, spec := range lists[c] {
				obs[c] = append(obs[c], d.runJob(spec, time.Now()))
			}
		}(c)
	}
	wg.Wait()
	h.backlogMax = max(h.backlogMax, stopBacklog())
	var all []observed
	for _, o := range obs {
		all = append(all, o...)
	}
	return h.collect(d, all, tr)
}

// roundLists gives each tenant the same subjects in its own seeded order,
// dealt alternately to the tenant's two clients. cprd runs one job of a
// tenant at a time, so equal work per tenant keeps both runners busy to the
// end, and the round's makespan does not hinge on where the slowest
// subjects fall.
func (h *harness) roundLists(subjects []*bench.Subject) [][]serve.JobSpec {
	lists := make([][]serve.JobSpec, 2*len(tenants))
	i := 0
	for t, tenant := range tenants {
		for k, j := range h.rng.Perm(len(subjects)) {
			c := 2*t + k%2
			lists[c] = append(lists[c], jobSpec(subjects[j], tenant, i))
			i++
		}
	}
	return lists
}

// runDaemon is the daemon workload: rounds in which each tenant's two
// clients work through every subject of the pool once, in a new order each
// round, until the run's seconds are used. Every round runs on a cprd set
// up afresh (setupReps timed starts, the last one kept), so no round
// inherits another's journal. Traced, a first round runs on a daemon whose
// jobs go through the traced distributor, each attempt labelled with its
// subject.
func (h *harness) runDaemon(pool []*bench.Subject) error {
	if err := warm(pool); err != nil {
		return err
	}
	var setups []float64
	round := func(nd func(core.Job, core.Options) (core.Distributor, error), tr *Tracer) (part, error) {
		d, err := h.setupDaemon(nd, &setups)
		if err != nil {
			return part{}, err
		}
		p := h.closedLoop(d, h.roundLists(pool), tr)
		return p, d.close()
	}
	var tr *Tracer
	tl := &tally{}
	var traced part
	if h.cfg.Trace {
		label := make(map[*lang.Program]string, len(pool))
		for _, s := range pool {
			prog, _ := s.Program()
			label[prog] = s.ID()
		}
		tr = NewTracer()
		var err error
		if traced, err = round(tracedFactory(tr, tl, 0, func(j core.Job) string { return label[j.Program] }), tr); err != nil {
			return err
		}
	}
	parts, err := h.repeat(func() (part, error) { return round(nil, nil) })
	if err != nil {
		return err
	}
	h.daemonExtras()
	if !h.cfg.Trace {
		h.endToEnd(parts, setups)
		return nil
	}
	return h.daemonLayers(tr, tl, traced, parts)
}

// daemonLayers prepares the distinct subjects the jobs used, for the layer
// probes, and fills the per-layer metrics.
func (h *harness) daemonLayers(tr *Tracer, tl *tally, traced part, untraced []part) error {
	seen := map[string]bool{}
	var subjects []*bench.Subject
	for _, j := range untraced[0].jobs {
		if !seen[j.subject] {
			seen[j.subject] = true
			subjects = append(subjects, findSubject(j.subject))
		}
	}
	ps, err := prepare(subjects)
	if err != nil {
		return err
	}
	h.layers(tr, tl, traced, untraced, ps, 1)
	return nil
}

// daemonExtras records the daemon-only numbers printed beside the metrics.
func (h *harness) daemonExtras() {
	sub := h.samples["serve.submit_ms"]
	h.extra["serve.submit_ms_p50"] = Value{Quantile(sub, 0.5), "ms"}
	h.extra["serve.submit_ms_p90"] = Value{Quantile(sub, 0.9), "ms"}
	if !h.cfg.Trace {
		h.extra["serve.backlog_max"] = Value{float64(h.backlogMax), "count"}
	}
}
