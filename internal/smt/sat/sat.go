// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat lineage: two-watched-literal propagation, first-UIP
// conflict analysis, exponential VSIDS variable activities, phase saving,
// Luby restarts, and activity-based learned-clause deletion.
//
// The solver is the boolean engine underneath the lazy SMT solver in
// package smt: propositional skeletons of path and patch constraints are
// decided here, and theory conflicts come back as blocking clauses.
package sat

import "fmt"

// Lit is a literal: variable v as a positive literal is 2v, negated is
// 2v+1. The zero Lit is variable 0, positive.
type Lit int32

// MkLit builds a literal from a variable index and a sign (neg=true for
// the negative literal).
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negative.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal as v3 or ¬v3.
func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("¬v%d", l.Var())
	}
	return fmt.Sprintf("v%d", l.Var())
}

// Status is the result of a Solve call.
type Status int8

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

type clause struct {
	lits     []Lit
	learnt   bool
	activity float64
}

// watcher is one watch-list entry: the watched clause plus a cached
// "blocker" literal from it (MiniSat's blocking-literal optimization).
// When the blocker is already true the clause is satisfied and propagate
// skips it without touching the clause memory at all — on large retained
// databases most watch visits end here, before the cache miss.
type watcher struct {
	c       *clause
	blocker Lit
}

// Stats counts solver work, exposed for benchmarks and the smt layer.
type Stats struct {
	Decisions    uint64
	Propagations uint64
	Conflicts    uint64
	Restarts     uint64
	Learned      uint64
	Deleted      uint64
}

// Solver is a CDCL SAT solver. Create one with New, add variables with
// NewVar and clauses with AddClause, then call Solve. Clauses may be added
// between Solve calls (the incremental pattern the SMT layer relies on).
type Solver struct {
	ok       bool // false once the clause set is known unsatisfiable
	clauses  []*clause
	learnts  []*clause
	watches  [][]watcher // indexed by literal
	assigns  []lbool     // indexed by var
	level    []int       // indexed by var
	reason   []*clause   // indexed by var
	phase    []bool      // saved polarity, indexed by var
	activity []float64   // VSIDS activity, indexed by var
	varInc   float64
	claInc   float64

	// Arena-style allocation pools for the solve hot loop: clause headers
	// come from slabs, literal storage from a chunked arena, and clauses
	// dropped by reduceDB go on a freelist that newClause recycles
	// (keeping their lit capacity). Profiling shows learned-clause
	// allocation is the dominant steady-state allocator load.
	claSlab  []clause
	freeCla  []*clause
	litArena []Lit
	sortBuf  []*clause

	trail    []Lit
	trailLim []int
	qhead    int

	heap    varHeap
	seen    []bool
	model   []bool
	Statist Stats

	// assumps holds the assumption literals of the in-flight SolveUnder
	// call.
	assumps []Lit

	// Reusable scratch for AddClause (generation-stamped dedup, indexed by
	// literal) and for analyze (learned-literal and cleanup buffers): these
	// run once per clause/conflict, so per-call allocation dominates the
	// hot path without reuse.
	addMark    []uint32
	addGen     uint32
	addBuf     []Lit
	learntBuf  []Lit
	cleanupBuf []int

	// MaxConflicts bounds the total conflicts across Solve calls;
	// 0 means unbounded. Exceeding it makes Solve return Unknown.
	MaxConflicts uint64

	// Stop, when non-nil, is polled periodically during search (every few
	// dozen conflicts and every few hundred decisions); a true return
	// aborts the current Solve with Unknown. This is the check-on-conflict
	// cancellation hook the SMT layer uses for per-query deadlines.
	Stop func() bool

	polls uint64
}

// The search strategy is MiniSat's defaults: Luby restarts with a base of
// restartBase conflicts, VSIDS variable-activity decay 0.95 and
// learned-clause activity decay 0.999 per conflict (applied by growing the
// increments), and negative-first saved phases.
const (
	restartBase = 100
	varDecayF   = 1 / 0.95  // per-conflict multiplier on varInc
	claDecayF   = 1 / 0.999 // per-conflict multiplier on claInc
)

// New returns an empty solver.
func New() *Solver {
	s := &Solver{ok: true, varInc: 1, claInc: 1}
	s.heap.act = &s.activity
	return s
}

// Reset returns s to exactly the state New produces — no variables, no
// clauses, zero Statist, default MaxConflicts, Stop and activity
// increments — while keeping its storage: every live and learnt clause
// goes onto the newClause freelist with its literal capacity, and the
// per-variable slices and watch lists keep their capacity for the next
// problem. The struct is rebuilt from New's literal and only storage is
// carried over, so a field added later is reset by default.
func (s *Solver) Reset() {
	free := append(append(s.freeCla, s.clauses...), s.learnts...)
	*s = Solver{
		ok: true, varInc: 1, claInc: 1,
		clauses:    s.clauses[:0],
		learnts:    s.learnts[:0],
		watches:    s.watches[:0],
		assigns:    s.assigns[:0],
		level:      s.level[:0],
		reason:     s.reason[:0],
		phase:      s.phase[:0],
		activity:   s.activity[:0],
		claSlab:    s.claSlab,
		freeCla:    free,
		litArena:   s.litArena,
		sortBuf:    s.sortBuf[:0],
		trail:      s.trail[:0],
		trailLim:   s.trailLim[:0],
		heap:       varHeap{data: s.heap.data[:0], index: s.heap.index[:0]},
		seen:       s.seen[:0],
		addMark:    s.addMark[:0],
		addBuf:     s.addBuf[:0],
		learntBuf:  s.learntBuf[:0],
		cleanupBuf: s.cleanupBuf[:0],
	}
	s.heap.act = &s.activity
}

// NewVar adds a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assigns)
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	if n := len(s.watches); n+2 <= cap(s.watches) {
		// Reuse the watch lists a Reset left behind the slice's end.
		s.watches = s.watches[:n+2]
		s.watches[n] = s.watches[n][:0]
		s.watches[n+1] = s.watches[n+1][:0]
	} else {
		s.watches = append(s.watches, nil, nil)
	}
	s.addMark = append(s.addMark, 0, 0)
	s.heap.push(v)
	return v
}

// NumVars returns the number of variables.
func (s *Solver) NumVars() int { return len(s.assigns) }

func (s *Solver) valueLit(l Lit) lbool {
	v := s.assigns[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if (v == lTrue) != l.Neg() {
		return lTrue
	}
	return lFalse
}

// AddClause adds a clause over the given literals. It returns false if the
// clause set has become trivially unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)
	// Normalize: sort-free dedup, drop falsified (level 0), detect taut.
	// Dedup uses a generation-stamped array indexed by literal, so the
	// scratch survives across calls without clearing.
	s.addGen++
	if s.addGen == 0 { // wrapped: stale stamps could collide, wipe them
		clear(s.addMark)
		s.addGen = 1
	}
	out := s.addBuf[:0]
	for _, l := range lits {
		if l.Var() >= s.NumVars() {
			panic(fmt.Sprintf("sat: AddClause: literal %v references unknown variable", l))
		}
		switch {
		case s.addMark[l] == s.addGen:
			continue
		case s.addMark[l.Not()] == s.addGen:
			return true // tautology
		case s.valueLit(l) == lTrue:
			return true // already satisfied at level 0
		case s.valueLit(l) == lFalse:
			continue // falsified at level 0: drop
		}
		s.addMark[l] = s.addGen
		out = append(out, l)
	}
	s.addBuf = out[:0]
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		if s.propagate() != nil {
			s.ok = false
			return false
		}
		return true
	}
	c := s.newClause(out, false)
	s.clauses = append(s.clauses, c)
	s.watchClause(c)
	return true
}

// newClause copies lits into pooled storage: a recycled header from the
// reduceDB freelist when one fits, otherwise a fresh header from the slab
// with literal storage carved out of the arena.
func (s *Solver) newClause(lits []Lit, learnt bool) *clause {
	var c *clause
	if n := len(s.freeCla); n > 0 {
		c = s.freeCla[n-1]
		s.freeCla = s.freeCla[:n-1]
		if cap(c.lits) >= len(lits) {
			c.lits = c.lits[:len(lits)]
		} else {
			c.lits = s.allocLits(len(lits))
		}
	} else {
		if len(s.claSlab) == 0 {
			s.claSlab = make([]clause, 256)
		}
		c = &s.claSlab[0]
		s.claSlab = s.claSlab[1:]
		c.lits = s.allocLits(len(lits))
	}
	copy(c.lits, lits)
	c.learnt = learnt
	c.activity = 0
	return c
}

func (s *Solver) allocLits(n int) []Lit {
	if n > len(s.litArena) {
		sz := 4096
		if n > sz {
			sz = n
		}
		s.litArena = make([]Lit, sz)
	}
	out := s.litArena[:n:n]
	s.litArena = s.litArena[n:]
	return out
}

func (s *Solver) watchClause(c *clause) {
	// Watch the first two literals; on attach after backtrack to 0 any
	// two unassigned or satisfied literals work because AddClause
	// removed level-0 falsified ones. Each watcher's blocker is the
	// other watched literal.
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{c, c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{c, c.lits[0]})
}

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Neg() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assigns[v] == lTrue
		s.assigns[v] = lUndef
		s.reason[v] = nil
		s.heap.push(v)
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// propagate performs unit propagation; it returns a conflicting clause or
// nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Statist.Propagations++
		np := p.Not()
		ws := s.watches[p]
		kept := ws[:0]
		var conflict *clause
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			// Blocker already true: clause satisfied, skip without
			// touching the clause memory.
			if s.valueLit(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			// Ensure the false literal is lits[1].
			if c.lits[0] == np {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.valueLit(first) == lTrue {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.valueLit(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c, first})
			if s.valueLit(first) == lFalse {
				conflict = c
				s.qhead = len(s.trail)
				kept = append(kept, ws[i+1:]...)
				break
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = kept
		if conflict != nil {
			return conflict
		}
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (with the asserting literal first) and the backtrack level. The
// returned slice aliases a reusable buffer: it is valid until the next
// analyze call, and callers who retain it must copy.
func (s *Solver) analyze(conflict *clause) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // slot 0 reserved for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	c := conflict
	cleanup := s.cleanupBuf[:0]

	for {
		if c.learnt {
			s.bumpClause(c)
		}
		for _, q := range c.lits {
			if p != -1 && q == p {
				continue // the literal this reason clause propagated
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			cleanup = append(cleanup, v)
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal to expand from the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		c = s.reason[v]
	}
	learnt[0] = p.Not()

	// Backtrack level: maximum level among learnt[1:].
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = s.level[learnt[1].Var()]
	}
	for _, v := range cleanup {
		s.seen[v] = false
	}
	s.learntBuf = learnt[:0]
	s.cleanupBuf = cleanup[:0]
	return learnt, bt
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

func (s *Solver) bumpClause(c *clause) {
	c.activity += s.claInc
	if c.activity > 1e20 {
		for _, l := range s.learnts {
			l.activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// reduceDB removes the less active half of the learned clauses that are
// not reasons for current assignments. Removed clauses go on the
// newClause freelist.
func (s *Solver) reduceDB() {
	if len(s.learnts) < 2 {
		return
	}
	// Partial selection: simple sort by activity.
	sorted := append(s.sortBuf[:0], s.learnts...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].activity < sorted[j-1].activity; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	limit := len(sorted) / 2
	remove := make(map[*clause]bool)
	for _, c := range sorted[:limit] {
		if len(c.lits) > 2 && !s.isReason(c) {
			remove[c] = true
		}
	}
	s.sortBuf = sorted[:0]
	if len(remove) == 0 {
		return
	}
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if remove[c] {
			s.Statist.Deleted++
			// Recycling is safe: the clause is purged from every watch
			// list below and was never a reason (excluded above), and
			// newClause only runs after reduceDB returns.
			s.freeCla = append(s.freeCla, c)
			continue
		}
		kept = append(kept, c)
	}
	s.learnts = kept
	for li := range s.watches {
		ws := s.watches[li][:0]
		for _, w := range s.watches[li] {
			if !remove[w.c] {
				ws = append(ws, w)
			}
		}
		s.watches[li] = ws
	}
}

func (s *Solver) isReason(c *clause) bool {
	v := c.lits[0].Var()
	return s.assigns[v] != lUndef && s.reason[v] == c
}

// luby computes the Luby restart sequence term i (1-based).
func luby(i uint64) uint64 {
	for k := uint64(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// Solve decides satisfiability of the accumulated clauses. On Sat, Model
// reports variable values. Solve may be called repeatedly, interleaved
// with AddClause.
func (s *Solver) Solve() Status { return s.SolveUnder() }

// SolveUnder decides satisfiability of the accumulated clauses under the
// given assumption literals (MiniSat's solve-with-assumptions). An Unsat
// answer under non-empty assumptions does NOT mark the clause set
// unsatisfiable, so the solver remains usable for further calls — this is
// what makes selector-guarded assertions retractable.
func (s *Solver) SolveUnder(assumptions ...Lit) Status {
	if !s.ok {
		return Unsat
	}
	for _, l := range assumptions {
		if l.Var() >= s.NumVars() {
			panic(fmt.Sprintf("sat: SolveUnder: assumption %v references unknown variable", l))
		}
	}
	s.assumps = assumptions
	defer func() { s.assumps = nil }()
	s.cancelUntil(0)
	if s.propagate() != nil {
		s.ok = false
		return Unsat
	}
	restarts := uint64(0)
	conflictsAtStart := s.Statist.Conflicts
	maxLearnts := len(s.clauses)/3 + 100
	for {
		restarts++
		st := s.search(luby(restarts)*restartBase, &maxLearnts, conflictsAtStart)
		if st != Unknown {
			return st
		}
		if s.MaxConflicts > 0 && s.Statist.Conflicts-conflictsAtStart >= s.MaxConflicts {
			s.cancelUntil(0)
			return Unknown
		}
		if s.stopped(1) {
			s.cancelUntil(0)
			return Unknown
		}
		s.Statist.Restarts++
		s.cancelUntil(0)
	}
}

func (s *Solver) search(budget uint64, maxLearnts *int, conflictsAtStart uint64) Status {
	var conflicts uint64
	for {
		conflict := s.propagate()
		if conflict != nil {
			conflicts++
			s.Statist.Conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			if s.stopped(32) {
				return Unknown
			}
			learnt, bt := s.analyze(conflict)
			s.cancelUntil(bt)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				// analyze returns a reusable buffer; the stored clause
				// needs its own (pooled) copy.
				c := s.newClause(learnt, true)
				s.learnts = append(s.learnts, c)
				s.Statist.Learned++
				s.watchClause(c)
				s.bumpClause(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.varInc *= varDecayF
			s.claInc *= claDecayF
			continue
		}
		if conflicts >= budget {
			return Unknown
		}
		if s.MaxConflicts > 0 && s.Statist.Conflicts-conflictsAtStart >= s.MaxConflicts {
			return Unknown
		}
		if s.stopped(512) {
			return Unknown
		}
		if len(s.learnts) > *maxLearnts {
			s.reduceDB()
			*maxLearnts = *maxLearnts*11/10 + 10
		}
		// Decide: pending assumptions first, then activity order.
		var next Lit = -1
		for next < 0 && s.decisionLevel() < len(s.assumps) {
			p := s.assumps[s.decisionLevel()]
			switch s.valueLit(p) {
			case lTrue:
				// Already implied: open a dummy level so decision level
				// k always means "assumptions 0..k-1 are in force".
				s.trailLim = append(s.trailLim, len(s.trail))
			case lFalse:
				// The clause set forces ¬p under the earlier assumptions:
				// unsat under assumptions.
				return Unsat
			default:
				next = p
			}
		}
		if next < 0 {
			v := s.pickBranchVar()
			if v < 0 {
				// All variables assigned: model found.
				s.model = make([]bool, s.NumVars())
				for i := range s.model {
					s.model[i] = s.assigns[i] == lTrue
				}
				return Sat
			}
			s.Statist.Decisions++
			next = MkLit(v, !s.phase[v])
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, nil)
	}
}

// stopped rate-limits the Stop callback: it polls the callback on every
// everyth call (a power of two), so hot paths pay only a counter
// increment between real checks.
func (s *Solver) stopped(every uint64) bool {
	if s.Stop == nil {
		return false
	}
	s.polls++
	return s.polls%every == 0 && s.Stop()
}

// NumClauses returns the problem clause count (excluding learned clauses),
// exposed for budget-exhaustion diagnostics in the SMT layer.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the number of learned clauses currently retained
// (learned minus deleted), exposed for the incremental-solving counters.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

func (s *Solver) pickBranchVar() int {
	for {
		v, ok := s.heap.pop()
		if !ok {
			return -1
		}
		if s.assigns[v] == lUndef {
			return v
		}
	}
}

// Model returns the satisfying assignment found by the last successful
// Solve; index by variable.
func (s *Solver) Model() []bool { return s.model }

// VerifyModel replays the last Solve's model against the problem clause
// set: every clause must contain a satisfied literal. It is the SAT tier's
// verdict-validation hook — a false return means the solver produced a
// model that does not actually satisfy its own clauses, which the guard
// layer treats as a validation failure. Learned clauses are implied by the
// problem clauses, so replaying the problem set suffices. Returns false
// when no model is available.
func (s *Solver) VerifyModel() bool {
	if s.model == nil {
		return false
	}
	for _, c := range s.clauses {
		ok := false
		for _, l := range c.lits {
			v := l.Var()
			if v < len(s.model) && s.model[v] != l.Neg() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// varHeap is a max-heap of variables ordered by activity with lazy
// reinsertion (popped vars may be stale; pickBranchVar filters).
type varHeap struct {
	act   *[]float64
	data  []int
	index []int // position+1 in data; 0 = absent
}

func (h *varHeap) less(i, j int) bool {
	return (*h.act)[h.data[i]] > (*h.act)[h.data[j]]
}

func (h *varHeap) swap(i, j int) {
	h.data[i], h.data[j] = h.data[j], h.data[i]
	h.index[h.data[i]] = i + 1
	h.index[h.data[j]] = j + 1
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	n := len(h.data)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}

func (h *varHeap) push(v int) {
	for v >= len(h.index) {
		h.index = append(h.index, 0)
	}
	if h.index[v] != 0 {
		return
	}
	h.data = append(h.data, v)
	h.index[v] = len(h.data)
	h.up(len(h.data) - 1)
}

func (h *varHeap) pop() (int, bool) {
	if len(h.data) == 0 {
		return 0, false
	}
	v := h.data[0]
	last := len(h.data) - 1
	h.swap(0, last)
	h.data = h.data[:last]
	h.index[v] = 0
	if last > 0 {
		h.down(0)
	}
	return v, true
}

func (h *varHeap) update(v int) {
	if v < len(h.index) && h.index[v] != 0 {
		h.up(h.index[v] - 1)
	}
}
