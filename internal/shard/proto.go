// Package shard distributes the repair engine's fan-out work — flip
// feasibility scans and pool reductions — across shard processes, with
// cross-shard knowledge sharing and a validation ladder that keeps a
// lying or corrupted peer from poisoning anyone else's verdict cache.
//
// Topology: one coordinator (the process running core.Repair) owns the
// frontier, the pool, and every merge; N workers hold engine replicas
// (core.WorkerEngine) and execute chunks on request. Chunks self-schedule
// from a shared queue, so a fast shard steals work a slow one would
// strand, and a dead shard's chunks are re-dispatched or recomputed
// locally — in every case the merged outcomes are bit-identical to a
// 1-process run, the same contract the in-process worker pool makes.
//
// The wire format is the PR 5 snapshot encoding inside length-framed,
// CRC-guarded records (journal.WriteFrame): each frame's payload opens
// with a term table and fails closed on any corruption.
package shard

import (
	"fmt"
	"io"
	"time"

	"cpr/internal/concolic"
	"cpr/internal/core"
	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/journal"
	"cpr/internal/lang"
	"cpr/internal/smt/cache"
)

// protoVersion is the shard protocol version; both ends refuse a peer
// speaking another one. Version 2 added the heartbeat interval to the
// hello and the kHeartbeat frame; version 3 dropped four retired solver
// options from the hello (leaving one paranoid bit) and six retired
// counters from the worker stats.
const protoVersion = 3

// Frame kinds. Start frames carry batch-wide state and have no reply;
// chunk frames are strict request/reply on one connection — except
// kHeartbeat, which a worker may interleave before its reply while
// computing a chunk to prove liveness; the coordinator skips them.
const (
	kHello uint8 = iota + 1
	kReady
	kFlipStart
	kFlipChunk
	kFlipReply
	kReduceStart
	kReduceChunk
	kReduceReply
	kShutdown
	kHeartbeat
)

// maxCount bounds every decoded collection length: orders of magnitude
// above any real batch, small enough to fail closed fast on corruption.
const maxCount = 1 << 20

// retraction withdraws one previously shared cache entry (see
// cache.DrainInvalidations).
type retraction struct {
	f      *expr.Term
	bounds string
}

// knowledge is one direction's share of learned results: verdict-cache
// entries (with their subsumption cores) plus retractions of entries
// shared earlier.
type knowledge struct {
	ex      cache.Export
	retract []retraction
}

func (k knowledge) empty() bool {
	return len(k.ex.Entries) == 0 && len(k.ex.Cores) == 0 && len(k.retract) == 0
}

// buildPayload assembles a frame payload: the term table for every term
// the body references, then the body.
func buildPayload(build func(m *journal.Encoder, te *journal.TermEncoder)) []byte {
	te := journal.NewTermEncoder()
	var body journal.Encoder
	build(&body, te)
	return append(te.Table(), body.Bytes()...)
}

// openPayload re-interns a frame payload's term table and positions the
// decoder at the body.
func openPayload(p []byte) (*journal.Decoder, *journal.TermDecoder, error) {
	d := journal.NewDecoder(p)
	td, err := journal.DecodeTermTable(d)
	if err != nil {
		return nil, nil, err
	}
	return d, td, nil
}

func countCheck(n uint64, what string) error {
	if n > maxCount {
		return fmt.Errorf("%w: %s count %d", journal.ErrCorrupt, what, n)
	}
	return nil
}

// --- shared field codecs ---

func encBounds(m *journal.Encoder, b map[string]interval.Interval) {
	names := make([]string, 0, len(b))
	for n := range b {
		names = append(names, n)
	}
	sortStrings(names)
	m.U64(uint64(len(names)))
	for _, n := range names {
		m.Str(n)
		m.I64(b[n].Lo)
		m.I64(b[n].Hi)
	}
}

func decBounds(d *journal.Decoder) (map[string]interval.Interval, error) {
	n := d.U64()
	if err := countCheck(n, "bounds"); err != nil {
		return nil, err
	}
	b := make(map[string]interval.Interval, n)
	for i := uint64(0); i < n; i++ {
		name := d.Str()
		b[name] = interval.Interval{Lo: d.I64(), Hi: d.I64()}
	}
	return b, d.Err()
}

func encPool(m *journal.Encoder, ps []core.PatchState) {
	m.U64(uint64(len(ps)))
	for _, p := range ps {
		m.Int(p.ID)
		m.F64(p.Score)
		m.Int(p.Deletions)
		core.EncodeRegion(m, p.Region)
	}
}

func decPool(d *journal.Decoder) ([]core.PatchState, error) {
	n := d.U64()
	if err := countCheck(n, "pool"); err != nil {
		return nil, err
	}
	ps := make([]core.PatchState, 0, n)
	for i := uint64(0); i < n; i++ {
		p := core.PatchState{ID: d.Int(), Score: d.F64(), Deletions: d.Int()}
		r, err := core.DecodeRegion(d)
		if err != nil {
			return nil, err
		}
		p.Region = r
		ps = append(ps, p)
	}
	return ps, d.Err()
}

func encKnowledge(m *journal.Encoder, te *journal.TermEncoder, k knowledge) {
	core.EncodeCacheExport(m, te, k.ex)
	m.U64(uint64(len(k.retract)))
	for _, r := range k.retract {
		m.U64(te.ID(r.f))
		m.Str(r.bounds)
	}
}

func decKnowledge(d *journal.Decoder, td *journal.TermDecoder) (knowledge, error) {
	var k knowledge
	ex, err := core.DecodeCacheExport(d, td)
	if err != nil {
		return k, err
	}
	k.ex = ex
	n := d.U64()
	if err := countCheck(n, "retractions"); err != nil {
		return k, err
	}
	for i := uint64(0); i < n; i++ {
		f, err := td.Term(d.U64())
		if err != nil {
			return k, err
		}
		k.retract = append(k.retract, retraction{f: f, bounds: d.Str()})
	}
	return k, d.Err()
}

func encReduceCtx(m *journal.Encoder, te *journal.TermEncoder, rc core.ReduceContext) {
	m.U64(te.ID(rc.Phi))
	m.U64(te.ID(rc.Sigma))
	m.U64(uint64(len(rc.HoleHits)))
	for _, h := range rc.HoleHits {
		core.EncodeHoleHit(m, te, h)
	}
	m.Bool(rc.HitBug)
	m.Bool(rc.Validation)
}

func decReduceCtx(d *journal.Decoder, td *journal.TermDecoder) (core.ReduceContext, error) {
	var rc core.ReduceContext
	var err error
	if rc.Phi, err = td.Term(d.U64()); err != nil {
		return rc, err
	}
	if rc.Sigma, err = td.Term(d.U64()); err != nil {
		return rc, err
	}
	n := d.U64()
	if err := countCheck(n, "hole hits"); err != nil {
		return rc, err
	}
	for i := uint64(0); i < n; i++ {
		h, err := core.DecodeHoleHit(d, td)
		if err != nil {
			return rc, err
		}
		rc.HoleHits = append(rc.HoleHits, h)
	}
	rc.HitBug = d.Bool()
	rc.Validation = d.Bool()
	return rc, d.Err()
}

// --- hello / ready ---

// Hello ships the whole job and the trajectory- and verdict-determining
// options, so a worker can build a bit-exact engine replica from nothing
// but this frame. The fingerprint is core.RunFingerprint over the same
// data; the worker recomputes it from what it decoded and refuses to
// serve on mismatch (a drifted replica must fail closed, not return
// plausible garbage).
//
// hb is the heartbeat interval the worker must use while computing a
// chunk (0 = no heartbeats). It rides in the hello, not the options: it
// is transport pacing, owned by the coordinator's Config, and never
// enters the run fingerprint.
func encodeHello(fp uint64, job core.Job, opts core.Options, hb time.Duration) []byte {
	return buildPayload(func(m *journal.Encoder, te *journal.TermEncoder) {
		m.U64(protoVersion)
		m.Dur(hb)
		m.U64(fp)
		m.Str(lang.Format(job.Program, "__HOLE__"))
		m.U64(te.ID(job.Spec))
		m.Int(job.Budget.MaxIterations)
		m.Int(job.Budget.ValidationIterations)
		m.U64(uint64(len(job.FailingInputs)))
		for _, in := range job.FailingInputs {
			core.EncodeI64Map(m, in)
		}
		m.U64(uint64(len(job.PassingInputs)))
		for _, in := range job.PassingInputs {
			core.EncodeI64Map(m, in)
		}
		encBounds(m, job.InputBounds)
		encComponents(m, job.Components)
		encOptions(m, opts)
	})
}

func decodeHello(p []byte) (fp uint64, job core.Job, opts core.Options, hb time.Duration, err error) {
	d, td, err := openPayload(p)
	if err != nil {
		return 0, job, opts, 0, err
	}
	if v := d.U64(); d.Err() == nil && v != protoVersion {
		return 0, job, opts, 0, fmt.Errorf("%w: shard protocol %d, want %d", journal.ErrVersion, v, protoVersion)
	}
	hb = d.Dur()
	if hb < 0 {
		return 0, job, opts, 0, fmt.Errorf("%w: negative heartbeat interval", journal.ErrCorrupt)
	}
	fp = d.U64()
	src := d.Str()
	if err := d.Err(); err != nil {
		return 0, job, opts, 0, err
	}
	if job.Program, err = lang.Parse(src); err != nil {
		return 0, job, opts, 0, fmt.Errorf("shard: hello program: %w", err)
	}
	if job.Spec, err = td.Term(d.U64()); err != nil {
		return 0, job, opts, 0, err
	}
	job.Budget.MaxIterations = d.Int()
	job.Budget.ValidationIterations = d.Int()
	nf := d.U64()
	if err := countCheck(nf, "failing inputs"); err != nil {
		return 0, job, opts, 0, err
	}
	for i := uint64(0); i < nf; i++ {
		in, err := core.DecodeI64Map(d)
		if err != nil {
			return 0, job, opts, 0, err
		}
		job.FailingInputs = append(job.FailingInputs, in)
	}
	np := d.U64()
	if err := countCheck(np, "passing inputs"); err != nil {
		return 0, job, opts, 0, err
	}
	for i := uint64(0); i < np; i++ {
		in, err := core.DecodeI64Map(d)
		if err != nil {
			return 0, job, opts, 0, err
		}
		job.PassingInputs = append(job.PassingInputs, in)
	}
	if job.InputBounds, err = decBounds(d); err != nil {
		return 0, job, opts, 0, err
	}
	if job.Components, err = decComponents(d); err != nil {
		return 0, job, opts, 0, err
	}
	if opts, err = decOptions(d); err != nil {
		return 0, job, opts, 0, err
	}
	return fp, job, opts, hb, d.Err()
}

func encodeReady(fp uint64) []byte {
	return buildPayload(func(m *journal.Encoder, te *journal.TermEncoder) {
		m.U64(protoVersion)
		m.U64(fp)
	})
}

func decodeReady(p []byte) (uint64, error) {
	d, _, err := openPayload(p)
	if err != nil {
		return 0, err
	}
	if v := d.U64(); d.Err() == nil && v != protoVersion {
		return 0, fmt.Errorf("%w: shard protocol %d, want %d", journal.ErrVersion, v, protoVersion)
	}
	fp := d.U64()
	return fp, d.Err()
}

// --- batch start ---

// A start frame re-syncs a worker to the coordinator's batch-start state:
// the phase bounds, the authoritative pool, relayed (already validated)
// peer knowledge — and for reduce batches the execution context. Every
// live shard receives the start before any chunk, which is what makes any
// chunk runnable on any shard (work-stealing, dead-shard re-dispatch).
type batchStart struct {
	bounds map[string]interval.Interval
	pool   []core.PatchState
	relay  knowledge
	isRed  bool
	rc     core.ReduceContext
}

func encodeStart(kind uint8, bs batchStart) []byte {
	return buildPayload(func(m *journal.Encoder, te *journal.TermEncoder) {
		encBounds(m, bs.bounds)
		encPool(m, bs.pool)
		encKnowledge(m, te, bs.relay)
		if kind == kReduceStart {
			encReduceCtx(m, te, bs.rc)
		}
	})
}

func decodeStart(kind uint8, p []byte) (batchStart, error) {
	var bs batchStart
	d, td, err := openPayload(p)
	if err != nil {
		return bs, err
	}
	if bs.bounds, err = decBounds(d); err != nil {
		return bs, err
	}
	if bs.pool, err = decPool(d); err != nil {
		return bs, err
	}
	if bs.relay, err = decKnowledge(d, td); err != nil {
		return bs, err
	}
	if kind == kReduceStart {
		bs.isRed = true
		if bs.rc, err = decReduceCtx(d, td); err != nil {
			return bs, err
		}
	}
	return bs, d.Err()
}

// --- flip chunks ---

func encodeFlipChunk(base int, flips []concolic.Flip) []byte {
	return buildPayload(func(m *journal.Encoder, te *journal.TermEncoder) {
		m.Int(base)
		m.U64(uint64(len(flips)))
		for i := range flips {
			core.EncodeFlip(m, te, &flips[i])
		}
	})
}

func decodeFlipChunk(p []byte) (int, []concolic.Flip, error) {
	d, td, err := openPayload(p)
	if err != nil {
		return 0, nil, err
	}
	base := d.Int()
	n := d.U64()
	if err := countCheck(n, "flips"); err != nil {
		return 0, nil, err
	}
	flips := make([]concolic.Flip, 0, n)
	for i := uint64(0); i < n; i++ {
		f, err := core.DecodeFlip(d, td)
		if err != nil {
			return 0, nil, err
		}
		flips = append(flips, *f)
	}
	return base, flips, d.Err()
}

// A chunk reply carries the outcomes, the worker's knowledge delta since
// its previous reply, and its cumulative solver stats (so the coordinator
// always holds a recent aggregate even if the shard later dies).
func encodeFlipReply(base int, outs []core.FlipOutcome, k knowledge, ws workerStats) []byte {
	return buildPayload(func(m *journal.Encoder, te *journal.TermEncoder) {
		m.Int(base)
		m.U64(uint64(len(outs)))
		for _, o := range outs {
			m.Bool(o.OK)
			m.Bool(o.Unknown)
			core.EncodeI64Map(m, o.Input)
			m.Int(o.PatchID)
			core.EncodeI64Map(m, o.Params)
			m.Int(o.Score)
			m.Int(o.Bound)
			m.I64(o.Unknowns)
			m.I64(o.Panics)
		}
		encKnowledge(m, te, k)
		encWorkerStats(m, ws)
	})
}

func decodeFlipReply(p []byte) (int, []core.FlipOutcome, knowledge, workerStats, error) {
	var k knowledge
	var ws workerStats
	d, td, err := openPayload(p)
	if err != nil {
		return 0, nil, k, ws, err
	}
	base := d.Int()
	n := d.U64()
	if err := countCheck(n, "flip outcomes"); err != nil {
		return 0, nil, k, ws, err
	}
	outs := make([]core.FlipOutcome, 0, n)
	for i := uint64(0); i < n; i++ {
		var o core.FlipOutcome
		o.OK = d.Bool()
		o.Unknown = d.Bool()
		if o.Input, err = core.DecodeI64Map(d); err != nil {
			return 0, nil, k, ws, err
		}
		o.PatchID = d.Int()
		if o.Params, err = core.DecodeI64Map(d); err != nil {
			return 0, nil, k, ws, err
		}
		o.Score = d.Int()
		o.Bound = d.Int()
		o.Unknowns = d.I64()
		o.Panics = d.I64()
		outs = append(outs, o)
	}
	if k, err = decKnowledge(d, td); err != nil {
		return 0, nil, k, ws, err
	}
	ws = decWorkerStats(d)
	return base, outs, k, ws, d.Err()
}

// --- reduce chunks ---

func encodeReduceChunk(lo, hi int) []byte {
	return buildPayload(func(m *journal.Encoder, te *journal.TermEncoder) {
		m.Int(lo)
		m.Int(hi)
	})
}

func decodeReduceChunk(p []byte) (int, int, error) {
	d, _, err := openPayload(p)
	if err != nil {
		return 0, 0, err
	}
	lo, hi := d.Int(), d.Int()
	return lo, hi, d.Err()
}

func encodeReduceReply(lo int, outs []core.ReduceOutcome, k knowledge, ws workerStats) []byte {
	return buildPayload(func(m *journal.Encoder, te *journal.TermEncoder) {
		m.Int(lo)
		m.U64(uint64(len(outs)))
		for _, o := range outs {
			m.Bool(o.Touched)
			m.Bool(o.Removed)
			m.Bool(o.Refined)
			core.EncodeRegion(m, o.Region)
			m.Int(o.Refinements)
			m.F64(o.Score)
			m.Int(o.Deletions)
			m.I64(o.Unknowns)
			m.I64(o.Panics)
		}
		encKnowledge(m, te, k)
		encWorkerStats(m, ws)
	})
}

func decodeReduceReply(p []byte) (int, []core.ReduceOutcome, knowledge, workerStats, error) {
	var k knowledge
	var ws workerStats
	d, td, err := openPayload(p)
	if err != nil {
		return 0, nil, k, ws, err
	}
	lo := d.Int()
	n := d.U64()
	if err := countCheck(n, "reduce outcomes"); err != nil {
		return 0, nil, k, ws, err
	}
	outs := make([]core.ReduceOutcome, 0, n)
	for i := uint64(0); i < n; i++ {
		var o core.ReduceOutcome
		o.Touched = d.Bool()
		o.Removed = d.Bool()
		o.Refined = d.Bool()
		if o.Region, err = core.DecodeRegion(d); err != nil {
			return 0, nil, k, ws, err
		}
		o.Refinements = d.Int()
		o.Score = d.F64()
		o.Deletions = d.Int()
		o.Unknowns = d.I64()
		o.Panics = d.I64()
		outs = append(outs, o)
	}
	if k, err = decKnowledge(d, td); err != nil {
		return 0, nil, k, ws, err
	}
	ws = decWorkerStats(d)
	return lo, outs, k, ws, d.Err()
}

// --- frame I/O ---

func writeMsg(w io.Writer, kind uint8, payload []byte) error {
	return journal.WriteFrame(w, kind, payload)
}

func readMsg(r io.Reader) (journal.Record, error) {
	return journal.ReadFrame(r)
}
