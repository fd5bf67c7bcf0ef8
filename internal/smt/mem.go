package smt

// Memory accounting and trimming for the governor (package govern). The
// incremental context — clause DB, learnt clauses, Tseitin maps, LIA
// constraint memo — is the solver's only structure that grows without
// bound across queries, so it is what the governor's soft rung retires.
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
	memConEntryBytes = 112 // conCache entry: key + compiled LIA constraint
	memBoxBytes      = 256 // boxState: bounds, selector lits, history
)

// ApproxMemBytes estimates the bytes retained by this solver's incremental
// machinery (its context plus the trusted scratch child's, if any). Zero
// when no context has been built. Call it from the goroutine that owns the
// solver, or at a barrier when no query is in flight — the same rule as
// Check.
func (s *Solver) ApproxMemBytes() uint64 {
	if s == nil {
		return 0
	}
	var n uint64
	if s.ctx != nil {
		n += s.ctx.approxMemBytes()
	}
	if s.scratch != nil {
		n += s.scratch.ApproxMemBytes()
	}
	return n
}

// TrimMemory retires the incremental context (and the scratch child's),
// reporting how many contexts were dropped and an estimate of the bytes
// they held. The next incremental query transparently rebuilds. Same
// concurrency rule as ApproxMemBytes.
func (s *Solver) TrimMemory() (retired int, freed uint64) {
	if s == nil {
		return 0, 0
	}
	if s.ctx != nil {
		freed += s.ctx.approxMemBytes()
		s.ctx = nil
		retired++
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
	n := uint64(c.enc.sat.NumClauses()+c.enc.sat.NumLearnts()) * memClauseBytes
	n += uint64(len(c.enc.atomVar)+len(c.enc.boolVar)+len(c.enc.cache)+len(c.enc.atoms)) * memMapEntryBytes
	n += uint64(len(c.groups)+len(c.selGroup)) * memMapEntryBytes
	n += uint64(len(c.intVars)+len(c.intVarSet)) * memMapEntryBytes
	n += uint64(len(c.conCache)) * memConEntryBytes
	n += uint64(len(c.boxes)) * memBoxBytes
	return n
}
