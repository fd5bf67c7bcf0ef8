package cegis

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"cpr/internal/concolic"
	"cpr/internal/core"
	"cpr/internal/expr"
	"cpr/internal/faultinject"
	"cpr/internal/journal"
	"cpr/internal/smt"
)

// cegisSnapVersion is the schema version of the baseline's snapshot
// payload; bump on any encoding change. The container format is owned by
// internal/journal.
const cegisSnapVersion = 3

// exploreState is phase 1's resumable loop state. A zero value starts the
// phase fresh; a restored value continues it. After the phase completes,
// obs carries the witnessed paths into refinement.
type exploreState struct {
	queue []exploreItem
	seen  map[uint64]bool
	obs   []pathObs
	iter  int
}

// exploreItem is one queued (input, hole-direction) pair of phase 1.
type exploreItem struct {
	input map[string]int64
	guard *expr.Term
	bound int
}

// refineState is phase 2's resumable loop state: the template cursor, the
// shared round budget, the current template's blocking constraints, and
// the per-template feasible-count ledger.
type refineState struct {
	remaining []int64
	idx       int
	rounds    int
	blocked   []*expr.Term
}

// checkpointer drives periodic snapshot writes for one baseline run. Its
// methods are nil-safe so call sites need no guards when checkpointing is
// disabled.
type checkpointer struct {
	opts        core.CheckpointOptions
	fp          uint64
	solver      *smt.Solver
	stats       *Stats
	baseSolver  smt.Stats
	start       time.Time
	elapsedBase time.Duration
	barrier     uint64
	phase       int
	ex          *exploreState
	ref         *refineState
	// body/framed are scratch buffers reused across snapshot writes (same
	// rationale as core's checkpointer: no regrowing per checkpoint).
	body   journal.Encoder
	framed journal.Encoder
}

// atBarrier is called at the top of every phase-loop iteration: the
// deterministic point where a snapshot captures a consistent state. It
// writes a due checkpoint, then gives fault injection its chance to kill
// the process — in that order, so a crash never outruns its checkpoint.
func (ck *checkpointer) atBarrier() {
	if ck != nil {
		ck.barrier++
		if ck.barrier%uint64(ck.opts.Interval) == 0 {
			ck.write()
		}
	}
	faultinject.CrashPoint()
}

func (ck *checkpointer) write() {
	elapsed := ck.elapsedBase + time.Since(ck.start)
	ck.opts.WriteSnapshot("cegis checkpoint", ck.barrier, ck.encodeSnapshot(elapsed))
}

// fingerprintRun hashes the job (shared with core) plus the baseline's
// trajectory-relevant options; wall-clock budgets are excluded. Must be
// called after option defaulting so derived iteration splits are pinned.
func fingerprintRun(job core.Job, opts Options) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "cegis|job:%x|%d:%d", core.JobFingerprint(job),
		opts.ExplorationIterations, opts.RefinementIterations)
	return h.Sum64()
}

func (ck *checkpointer) encodeSnapshot(elapsed time.Duration) []byte {
	te := journal.NewTermEncoder()
	ck.body.Reset()
	m := &ck.body

	m.U64(cegisSnapVersion)
	m.U64(ck.fp)
	m.U64(ck.barrier)
	m.Dur(elapsed)
	m.Int(ck.phase)

	encodeCegisStats(m, ck.stats)
	agg := ck.baseSolver.Add(ck.solver.Stats())
	smt.EncodeSolverStats(m, agg)

	// Witnessed paths, in observation order (both phases need them: phase
	// 1 is still collecting, phase 2 verifies candidates against them).
	m.U64(uint64(len(ck.ex.obs)))
	for _, o := range ck.ex.obs {
		m.U64(te.ID(o.phi))
		m.U64(uint64(len(o.holeHits)))
		for _, h := range o.holeHits {
			core.EncodeHoleHit(m, te, h)
		}
		m.U64(uint64(len(o.bugHits)))
		for _, b := range o.bugHits {
			encodeBugHit(m, te, b)
		}
		m.Bool(o.crashed)
	}

	switch ck.phase {
	case 0:
		m.Int(ck.ex.iter)
		keys := make([]uint64, 0, len(ck.ex.seen))
		for k := range ck.ex.seen {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		m.U64(uint64(len(keys)))
		for _, k := range keys {
			m.U64(k)
		}
		m.U64(uint64(len(ck.ex.queue)))
		for _, it := range ck.ex.queue {
			core.EncodeI64Map(m, it.input)
			m.U64(te.ID(it.guard))
			m.Int(it.bound)
		}
	case 1:
		m.U64(uint64(len(ck.ref.remaining)))
		for _, r := range ck.ref.remaining {
			m.I64(r)
		}
		m.Int(ck.ref.idx)
		m.Int(ck.ref.rounds)
		m.U64(uint64(len(ck.ref.blocked)))
		for _, b := range ck.ref.blocked {
			m.U64(te.ID(b))
		}
	}

	ck.framed.Reset()
	ck.framed.Raw(te.Table())
	ck.framed.Append(m.Bytes())
	return ck.framed.Bytes()
}

// resumeState is a decoded baseline snapshot.
type resumeState struct {
	barrier   uint64
	elapsed   time.Duration
	phase     int
	stats     Stats
	solverAgg smt.Stats
	obs       []pathObs
	iter      int
	seen      []uint64
	queue     []exploreItem
	ref       refineState
}

// exState returns the phase-1 loop state the snapshot was taken at (for a
// phase-2 snapshot, just the completed observation list).
func (rs *resumeState) exState() *exploreState {
	seen := make(map[uint64]bool, len(rs.seen))
	for _, k := range rs.seen {
		seen[k] = true
	}
	return &exploreState{queue: rs.queue, seen: seen, obs: rs.obs, iter: rs.iter}
}

// loadResume finds and decodes the latest usable snapshot, or returns nil
// (with a warning) when the run must start fresh.
func loadResume(co core.CheckpointOptions, fp uint64) *resumeState {
	snap, err := journal.LoadLatest(co.Dir)
	if err != nil {
		if !errors.Is(err, journal.ErrNoSnapshot) || co.Warn != nil {
			co.Warnf("cegis checkpoint: resume unavailable, starting fresh: %v", err)
		}
		return nil
	}
	rs, gotFP, err := decodeSnapshot(snap.Payload)
	if err != nil {
		co.Warnf("cegis checkpoint: snapshot at barrier %d rejected, starting fresh: %v", snap.Barrier, err)
		return nil
	}
	if rs.barrier != snap.Barrier {
		co.Warnf("cegis checkpoint: snapshot barrier mismatch (%d in payload, %d in container), starting fresh", rs.barrier, snap.Barrier)
		return nil
	}
	if gotFP != fp {
		co.Warnf("cegis checkpoint: snapshot belongs to a different job or configuration, starting fresh")
		return nil
	}
	return rs
}

func decodeSnapshot(payload []byte) (*resumeState, uint64, error) {
	d := journal.NewDecoder(payload)
	td, err := journal.DecodeTermTable(journal.NewDecoder(d.Raw()))
	if err != nil {
		return nil, 0, err
	}
	if v := d.U64(); d.Err() == nil && v != cegisSnapVersion {
		return nil, 0, fmt.Errorf("%w: cegis snapshot version %d, want %d", journal.ErrVersion, v, cegisSnapVersion)
	}
	fp := d.U64()
	rs := &resumeState{}
	rs.barrier = d.U64()
	rs.elapsed = d.Dur()
	rs.phase = d.Int()

	decodeCegisStats(d, &rs.stats)
	smt.DecodeSolverStats(d, &rs.solverAgg)

	no := d.U64()
	if err := core.LenCheck(d, no, "observations"); err != nil {
		return nil, 0, err
	}
	rs.obs = make([]pathObs, no)
	for i := range rs.obs {
		o := pathObs{}
		phi, err := td.Term(d.U64())
		if err != nil {
			return nil, 0, err
		}
		o.phi = phi
		nh := d.U64()
		if err := core.LenCheck(d, nh, "hole hits"); err != nil {
			return nil, 0, err
		}
		for j := uint64(0); j < nh; j++ {
			h, err := core.DecodeHoleHit(d, td)
			if err != nil {
				return nil, 0, err
			}
			o.holeHits = append(o.holeHits, h)
		}
		nb := d.U64()
		if err := core.LenCheck(d, nb, "bug hits"); err != nil {
			return nil, 0, err
		}
		for j := uint64(0); j < nb; j++ {
			b, err := decodeBugHit(d, td)
			if err != nil {
				return nil, 0, err
			}
			o.bugHits = append(o.bugHits, b)
		}
		o.crashed = d.Bool()
		rs.obs[i] = o
	}

	switch rs.phase {
	case 0:
		rs.iter = d.Int()
		ns := d.U64()
		if err := core.LenCheck(d, ns, "seen set"); err != nil {
			return nil, 0, err
		}
		rs.seen = make([]uint64, ns)
		for i := range rs.seen {
			rs.seen[i] = d.U64()
		}
		nq := d.U64()
		if err := core.LenCheck(d, nq, "queue"); err != nil {
			return nil, 0, err
		}
		rs.queue = make([]exploreItem, nq)
		for i := range rs.queue {
			input, err := core.DecodeI64Map(d)
			if err != nil {
				return nil, 0, err
			}
			guard, err := td.Term(d.U64())
			if err != nil {
				return nil, 0, err
			}
			rs.queue[i] = exploreItem{input: input, guard: guard, bound: d.Int()}
		}
	case 1:
		nr := d.U64()
		if err := core.LenCheck(d, nr, "remaining"); err != nil {
			return nil, 0, err
		}
		rs.ref.remaining = make([]int64, nr)
		for i := range rs.ref.remaining {
			rs.ref.remaining[i] = d.I64()
		}
		rs.ref.idx = d.Int()
		rs.ref.rounds = d.Int()
		nbl := d.U64()
		if err := core.LenCheck(d, nbl, "blocked constraints"); err != nil {
			return nil, 0, err
		}
		for i := uint64(0); i < nbl; i++ {
			b, err := td.Term(d.U64())
			if err != nil {
				return nil, 0, err
			}
			rs.ref.blocked = append(rs.ref.blocked, b)
		}
	default:
		return nil, 0, fmt.Errorf("%w: cegis snapshot phase %d", journal.ErrCorrupt, rs.phase)
	}
	if err := d.Err(); err != nil {
		return nil, 0, err
	}
	return rs, fp, nil
}

// --- field-level codecs: the baseline's own Stats and bug hits; the
// shared helpers are core's ---

func encodeCegisStats(m *journal.Encoder, s *Stats) {
	m.I64(s.PInit)
	m.I64(s.PFinal)
	m.Int(s.PathsExplored)
	m.Int(s.Candidates)
	m.Int(s.Counterexamples)
	m.Bool(s.TimedOut)
	m.Int(s.SolverUnknowns)
	m.Int(s.ExecPanics)
}

func decodeCegisStats(d *journal.Decoder, s *Stats) {
	s.PInit = d.I64()
	s.PFinal = d.I64()
	s.PathsExplored = d.Int()
	s.Candidates = d.Int()
	s.Counterexamples = d.Int()
	s.TimedOut = d.Bool()
	s.SolverUnknowns = d.Int()
	s.ExecPanics = d.Int()
}

func encodeBugHit(m *journal.Encoder, te *journal.TermEncoder, b concolic.BugHit) {
	core.EncodeTermMap(m, te, b.Snapshot)
	core.EncodeI64Map(m, b.Concrete)
	m.Int(b.AtBranch)
}

func decodeBugHit(d *journal.Decoder, td *journal.TermDecoder) (concolic.BugHit, error) {
	var b concolic.BugHit
	snap, err := core.DecodeTermMap(d, td)
	if err != nil {
		return b, err
	}
	b.Snapshot = snap
	conc, err := core.DecodeI64Map(d)
	if err != nil {
		return b, err
	}
	if conc != nil {
		b.Concrete = expr.Model(conc)
	}
	b.AtBranch = d.Int()
	return b, d.Err()
}
