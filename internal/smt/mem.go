package smt

// Memory accounting and trimming for the governor (package govern). The
// incremental context — clause DB, learnt clauses, Tseitin maps, LIA
// constraint memo — is the solver's only structure that grows without
// bound across queries, so it is what the governor's soft rung retires.
// The scratch encoder is retained too: every scratch query resets it, and
// its cleared maps and reset sat.Solver keep their capacity up to their
// high-water mark, while its LIA constraint memo is kept whole, bounded by
// the distinct atoms of the solver's job. TrimMemory drops it with the
// context; the next scratch query builds a fresh one.
//
// Retiring a context is the same mechanism incrementalCtx already uses
// when the clause DB outgrows maxContextClauses: drop it and let the next
// query rebuild from the formula. It is proven result-neutral (the context
// is a pure acceleration structure). Note this is deliberately NOT
// quarantineCtx: no guard escalation, no epoch abort — the context is
// healthy, just big.

// Rough per-unit sizes for ApproxMemBytes. These are estimates of the
// retained heap per clause / map entry, not exact measurements; the
// governor only needs the right order of magnitude.
const (
	memClauseBytes   = 64  // clause header + average literal payload
	memMapEntryBytes = 48  // map bucket share + key/value words
	memConEntryBytes = 112 // constraint memo entry: key + compiled LIA constraint
	memBoxBytes      = 256 // boxState: bounds, selector lits, history
)

// ApproxMemBytes estimates the bytes retained by this solver's incremental
// context and scratch encoder, plus the trusted scratch child's. Zero when
// neither has been built. Call it from the goroutine that owns the solver,
// or at a barrier when no query is in flight — the same rule as Check.
func (s *Solver) ApproxMemBytes() uint64 {
	if s == nil {
		return 0
	}
	var n uint64
	if s.ctx != nil {
		n += s.ctx.approxMemBytes()
	}
	if s.enc != nil {
		n += s.enc.retainedBytes()
	}
	if s.scratch != nil {
		n += s.scratch.ApproxMemBytes()
	}
	return n
}

// TrimMemory retires the incremental context and drops the scratch
// encoder (and the scratch child's), reporting how many contexts were
// retired and an estimate of the bytes everything dropped held. The next
// query transparently rebuilds. Same concurrency rule as ApproxMemBytes.
func (s *Solver) TrimMemory() (retired int, freed uint64) {
	if s == nil {
		return 0, 0
	}
	if s.ctx != nil {
		freed += s.ctx.approxMemBytes()
		s.ctx = nil
		retired++
	}
	if s.enc != nil {
		freed += s.enc.retainedBytes()
		s.enc = nil
	}
	if s.scratch != nil {
		r, f := s.scratch.TrimMemory()
		retired += r
		freed += f
	}
	return retired, freed
}

func (c *Context) approxMemBytes() uint64 {
	if c == nil || c.enc == nil {
		return 0
	}
	n := c.enc.approxMemBytes()
	n += uint64(len(c.groups)+len(c.selGroup)) * memMapEntryBytes
	n += uint64(len(c.intVars)+len(c.intVarSet)) * memMapEntryBytes
	n += uint64(len(c.boxes)) * memBoxBytes
	return n
}

// approxMemBytes estimates the encoder's contents: clauses, Tseitin maps
// and the constraint memo.
func (e *encoder) approxMemBytes() uint64 {
	n := uint64(e.sat.NumClauses()+e.sat.NumLearnts()) * memClauseBytes
	n += uint64(len(e.atomVar)+len(e.boolVar)+len(e.nodes)+len(e.atoms)) * memMapEntryBytes
	n += uint64(len(e.cons)) * memConEntryBytes
	return n
}

// retainedBytes estimates what a reused encoder holds: its contents or
// the largest contents a reset discarded, whichever is more.
func (e *encoder) retainedBytes() uint64 { return max(e.peak, e.approxMemBytes()) }
