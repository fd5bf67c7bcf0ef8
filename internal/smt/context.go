package smt

import (
	"errors"
	"fmt"
	"time"

	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/smt/cache"
	"cpr/internal/smt/guard"
	"cpr/internal/smt/lia"
	"cpr/internal/smt/sat"
)

// Context is the persistent incremental solving state a Solver keeps when
// Options.Incremental is set, and the state Solver.Decide answers
// verdict-only queries on: one CDCL instance whose clause database
// (including learned clauses) survives across queries, a Tseitin encoding
// cache keyed by interned conjunct pointer, and per-bounds-box LIA state.
//
// Retractability comes from selector literals. Each top-level conjunct C is
// encoded once as (¬sel_C ∨ root_C); a query asserts its conjuncts by
// assuming their selectors, so formulas switch on and off without touching
// the clause database. Theory conflicts become blocking clauses guarded by
// a per-bounds-box selector (¬sel_box ∨ ¬a₁ ∨ … ∨ ¬aₖ): a lemma derived
// under one bounds box is sound only there, and the guard makes every CDCL
// clause learned from it inherit the box condition, so retained lemmas stay
// sound when later queries use different bounds.
//
// A Context decides verdicts only; it never builds models, and model
// queries never reach it. Solver.Check solves every model query on the
// deterministic scratch path, which is what makes repair results identical
// with Incremental on or off.
type Context struct {
	opts  Options
	stats *solverStats

	enc     *encoder
	auxNext int // global purifier counter: aux names never collide across conjuncts

	groups map[*expr.Term]*group
	boxes  map[string]*boxState

	intVars   []string // integer variables seen so far, first-seen order
	intVarSet map[string]bool

	// Deltas already folded into stats, so clausesLearned/Deleted stay
	// monotone across decide calls.
	lastLearned, lastDeleted uint64

	// verifyTick counts sat answers for sampled model self-checks: the
	// retained clause database grows with every query, and replaying a
	// model against all of it each theory round is the single biggest
	// fixed cost of incremental solving. The check only ever catches CDCL
	// bugs (nothing downstream depends on it answering), so it runs on a
	// deterministic 1-in-16 sample — and on every round under paranoid
	// mode (see selfCheck).
	verifyTick uint64
}

// group is one prepared top-level conjunct: simplified, purified, encoded
// behind a selector. trivial short-circuits conjuncts that simplify to a
// constant (they need no encoding).
type group struct {
	sel     sat.Lit
	g       *expr.Term // purified+simplified formula; nil when trivial
	trivial int8       // 0 = encoded, 1 = true, 2 = false
}

const (
	trivNone int8 = iota
	trivTrue
	trivFalse
)

// boxState is the per-bounds-box solving state: its guard selector, the
// reusable LIA box, and how many of the context's integer variables the
// box already covers (for lazy extension).
type boxState struct {
	sel   sat.Lit
	lia   *lia.Box
	nvars int
}

func newContext(opts Options, stats *solverStats) *Context {
	return &Context{
		opts:      opts,
		stats:     stats,
		enc:       newEncoder(),
		groups:    make(map[*expr.Term]*group),
		boxes:     make(map[string]*boxState),
		intVarSet: make(map[string]bool),
	}
}

// prep returns the prepared group for a raw top-level conjunct, encoding it
// on first sight. Each conjunct gets its own purifier (a shared purifier
// cache would let one conjunct reuse aux variables whose defining
// constraints live behind another conjunct's selector — unsound when only
// one of them is active); the shared counter keeps aux names distinct.
func (c *Context) prep(cj *expr.Term) *group {
	if g, ok := c.groups[cj]; ok {
		c.stats.encodeCacheHits.Add(1)
		return g
	}
	c.stats.encodeCacheMisses.Add(1)
	g := &group{}
	pur := &purifier{next: c.auxNext}
	p := pur.purify(expr.Simplify(cj))
	c.auxNext = pur.next
	if len(pur.defs) > 0 {
		p = expr.And(append([]*expr.Term{p}, pur.defs...)...)
	}
	p = expr.Simplify(p)
	switch {
	case p.IsTrue():
		g.trivial = trivTrue
	case p.IsFalse():
		g.trivial = trivFalse
	default:
		g.g = p
		root := c.enc.encode(p)
		g.sel = sat.MkLit(c.enc.sat.NewVar(), false)
		c.enc.sat.AddClause(g.sel.Not(), root)
		for _, v := range expr.Vars(p) {
			if v.Sort == expr.SortInt && !c.intVarSet[v.Name] {
				c.intVarSet[v.Name] = true
				c.intVars = append(c.intVars, v.Name)
			}
		}
	}
	c.groups[cj] = g
	return g
}

// boxFor returns the solving state for a bounds map, creating it on first
// sight and lazily extending its domain coverage to integer variables that
// appeared since the box was last used.
func (c *Context) boxFor(bounds map[string]interval.Interval) *boxState {
	key := cache.BoundsKey(bounds, c.opts.DefaultBounds)
	b, ok := c.boxes[key]
	if !ok {
		b = &boxState{
			sel: sat.MkLit(c.enc.sat.NewVar(), false),
			lia: lia.NewBox(bounds),
		}
		c.boxes[key] = b
	}
	for _, name := range c.intVars[b.nvars:] {
		if !b.lia.Has(name) {
			b.lia.Extend(name, c.opts.DefaultBounds)
		}
	}
	b.nvars = len(c.intVars)
	return b
}

// syncClauseStats folds the CDCL clause counters into the solver stats.
func (c *Context) syncClauseStats() {
	st := c.enc.sat.Statist
	c.stats.clausesLearned.Add(st.Learned - c.lastLearned)
	c.stats.clausesDeleted.Add(st.Deleted - c.lastDeleted)
	c.lastLearned, c.lastDeleted = st.Learned, st.Deleted
	c.stats.clausesKept.Store(uint64(c.enc.sat.NumLearnts()))
}

// decide runs the DPLL(T) loop for f under bounds on the persistent state
// and returns the verdict.
func (c *Context) decide(f *expr.Term, bounds map[string]interval.Interval, query uint64) (Status, error) {
	defer c.syncClauseStats()

	f, ok := pinBools(f, bounds)
	if !ok {
		return Unsat, nil
	}
	conjs := f.Args
	if f.Op != expr.OpAnd {
		conjs = []*expr.Term{f}
	}
	groups := make([]*group, 0, len(conjs))
	for _, cj := range conjs {
		g := c.prep(cj)
		switch g.trivial {
		case trivTrue:
			continue
		case trivFalse:
			return Unsat, nil
		}
		groups = append(groups, g)
	}
	if len(groups) == 0 {
		return Sat, nil
	}

	box := c.boxFor(bounds)
	assumps := make([]sat.Lit, 0, len(groups)+1)
	assumps = append(assumps, box.sel)
	for _, g := range groups {
		assumps = append(assumps, g.sel)
	}

	done := c.opts.Context.Done()
	lopts := c.opts.LIA
	lopts.Stop = stopper(done)
	c.enc.sat.MaxConflicts, c.enc.sat.Stop = c.opts.MaxConflicts, lopts.Stop

	conflictsAtStart := c.enc.sat.Statist.Conflicts
	budgetErr := func(stage string, round int, detail error) error {
		c.stats.unknowns.Add(1)
		return &BudgetError{
			Stage:        stage,
			Query:        query,
			TheoryRounds: round,
			Conflicts:    c.enc.sat.Statist.Conflicts - conflictsAtStart,
			Clauses:      c.enc.sat.NumClauses(),
			Atoms:        len(c.enc.atomVar),
			Detail:       detail,
		}
	}

	var cons []lia.Constraint
	var block []sat.Lit
	for round := 0; round < c.opts.MaxTheoryRounds; round++ {
		if isDone(done) {
			return Unknown, budgetErr("deadline", round, c.opts.Context.Err())
		}
		c.stats.theoryRounds.Add(1)
		satStart := time.Now()
		satStatus := c.enc.sat.SolveUnder(assumps...)
		c.stats.timeSat(satStart)
		switch satStatus {
		case sat.Unsat:
			return Unsat, nil
		case sat.Unknown:
			stage := "sat-conflicts"
			if isDone(done) {
				stage = "deadline"
			}
			return Unknown, budgetErr(stage, round, nil)
		}
		if c.selfCheck() {
			if !c.enc.sat.VerifyModel() {
				// The retained clause database produced a model that does
				// not satisfy it. The solver quarantines this context and
				// retries the query on the scratch rung.
				return Unknown, fmt.Errorf("%w (incremental sat tier, query %d round %d)", guard.ErrVerdictRejected, query, round)
			}
		}
		model := c.enc.sat.Model()

		// Assert the union of the active groups' support sets to the
		// theory, under this box's domains.
		cons, block = cons[:0], append(block[:0], box.sel.Not())
		for _, g := range groups {
			for _, sl := range c.enc.support(g.g, model) {
				con, err := c.enc.constraint(sl)
				if err != nil {
					return Unknown, err
				}
				cons = append(cons, con)
				block = append(block, sat.MkLit(c.enc.atomVar[sl.atom], sl.positive))
			}
		}
		liaStart := time.Now()
		res, err := box.lia.Solve(cons, lopts)
		c.stats.timeLIA(liaStart)
		if err != nil {
			if errors.Is(err, lia.ErrBudget) {
				stage := "lia"
				if isDone(done) {
					stage = "deadline"
				}
				return Unknown, budgetErr(stage, round, err)
			}
			return Unknown, err
		}
		if res.Status == lia.Sat {
			return Sat, nil
		}
		// Theory conflict: block this support set for this bounds box.
		// AddClause dedups literals shared between groups.
		if !c.enc.sat.AddClause(block...) {
			return Unsat, nil
		}
	}
	return Unknown, budgetErr("theory-rounds", c.opts.MaxTheoryRounds, nil)
}

// selfCheck counts a sat round and reports whether its model is replayed
// against the retained clause database. Paranoid mode is the guard's
// resolved setting (Guard.Paranoid or CPR_PARANOID; NewSolver stores it in
// opts.Guard), so both switches reach this check.
func (c *Context) selfCheck() bool {
	c.verifyTick++
	return c.opts.Guard.Paranoid || c.verifyTick&15 == 0
}
