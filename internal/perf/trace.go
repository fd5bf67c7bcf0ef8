package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one traced interval: a layer call made by the benchmark or by
// its traced distributor. Spans of one job share Job; Parent is 0 for a
// root. Times are nanoseconds since the tracer's epoch.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Job    string `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names recorded by the benchmark.
const (
	spanRepair       = "core.Repair"
	spanFlips        = "core.flips"
	spanFlipWorker   = "core.flips.worker"
	spanReduce       = "core.reduce"
	spanReduceWorker = "core.reduce.worker"
	spanRank         = "core.rank"
	spanAttempt      = "serve.attempt"
	spanJob          = "serve.job"
	spanWait         = "serve.wait"
	spanRun          = "serve.run"
)

// Tracer keeps spans in memory until the workload ends. It is safe for
// concurrent use; a nil *Tracer records nothing.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []Span
}

// NewTracer starts an empty trace whose clock starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Open is a span that has started and not yet ended.
type Open struct {
	t    *Tracer
	span Span
}

// Begin opens a span under parent (0 for a root).
func (t *Tracer) Begin(parent int64, name, job string) *Open {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &Open{t: t, span: Span{ID: id, Parent: parent, Name: name, Job: job, Start: t.now()}}
}

// ID is the open span's id, for use as a child's parent (0 on a nil span).
func (o *Open) ID() int64 {
	if o == nil {
		return 0
	}
	return o.span.ID
}

// End closes the span and records it.
func (o *Open) End() {
	if o == nil {
		return
	}
	o.span.End = o.t.now()
	o.t.record(o.span)
}

// Record adds a span whose bounds were measured elsewhere and returns its
// id.
func (t *Tracer) Record(parent int64, name, job string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, Span{ID: t.next, Parent: parent, Name: name, Job: job,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return t.next
}

func (t *Tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

func (t *Tracer) record(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns the recorded spans ordered by id.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WriteNDJSON writes one JSON object per span.
func WriteNDJSON(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNDJSON parses a trace written by WriteNDJSON.
func ReadNDJSON(r io.Reader) ([]Span, error) {
	var out []Span
	dec := json.NewDecoder(r)
	for {
		var s Span
		err := dec.Decode(&s)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: span %d: %w", len(out)+1, err)
		}
		out = append(out, s)
	}
}

// CheckTree verifies that every span ends after it starts, that every
// child lies inside its parent, and that the batch spans under each
// Repair or attempt span do not overlap: the coordinator runs one batch at
// a time, so its self time is the parent's wall minus their sum.
func CheckTree(spans []Span) error {
	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	batches := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] outside parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		if s.Name == spanFlips || s.Name == spanReduce {
			batches[s.Parent] = append(batches[s.Parent], s)
		}
	}
	for parent, bs := range batches {
		sort.Slice(bs, func(i, j int) bool { return bs[i].Start < bs[j].Start })
		for i := 1; i < len(bs); i++ {
			if bs[i].Start < bs[i-1].End {
				return fmt.Errorf("batches %d and %d under span %d overlap", bs[i-1].ID, bs[i].ID, parent)
			}
		}
	}
	return nil
}
