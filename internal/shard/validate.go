package shard

import (
	"cpr/internal/cancel"
	"cpr/internal/interval"
	"cpr/internal/smt"
	"cpr/internal/smt/cache"
	"cpr/internal/smt/guard"
)

// validator is the coordinator's trust boundary for imported knowledge.
// Every cache entry a worker ships passes through vet before it can touch
// the coordinator's cache or be relayed to other shards, so a lying,
// buggy, or corrupted peer can at worst waste the coordinator's time —
// never change a verdict. The ladder, cheapest rung first:
//
//   - sat with a model: replay the model through the guard layer
//     (bounds check + evaluation). A valid witness is self-certifying.
//   - sat without a model, or unsat: re-decide the formula on a trusted
//     scratch solver with tight budgets. Only a matching verdict is
//     accepted, and only then may an unsat entry's subsumption core be
//     rebuilt (an accepted truncated-core lie is harmless: the truncated
//     formula either fails the re-solve or is genuinely unsat).
//   - anything else — bounds-key parse failure, Unknown, solver error —
//     rejects. Imports fail closed; a rejected entry is simply dropped.
type validator struct {
	guard *guard.Guard
	tok   *cancel.Token
	// trusted scratch solvers, one per default-bounds interval seen (in
	// practice one: the run's DefaultBounds).
	solvers map[interval.Interval]*smt.Solver

	accepted uint64
	rejected uint64
}

func newValidator(tok *cancel.Token) *validator {
	return &validator{
		guard:   guard.New(guard.Config{}),
		tok:     tok,
		solvers: make(map[interval.Interval]*smt.Solver),
	}
}

// trustedOpts mirrors the smt layer's own trusted-scratch configuration:
// non-incremental and cacheless, with budgets tight enough
// that a hostile peer cannot stall the coordinator on pathological
// formulas.
func (v *validator) trusted(def interval.Interval) *smt.Solver {
	if s, ok := v.solvers[def]; ok {
		return s
	}
	s := smt.NewSolver(smt.Options{
		DefaultBounds:   def,
		Incremental:     false,
		Cache:           nil,
		MaxConflicts:    2000,
		MaxTheoryRounds: 1000,
		Cancel:          v.tok,
	})
	v.solvers[def] = s
	return s
}

// vet decides whether one imported entry may enter the coordinator's
// cache. It returns the (possibly model-stripped) value to import and
// whether the entry is trustworthy enough to carry a subsumption core.
func (v *validator) vet(e cache.ExportedEntry) (cache.Value, bool) {
	def, bounds, err := cache.ParseBoundsKey(e.Bounds)
	if err != nil || e.F == nil {
		v.rejected++
		return cache.Value{}, false
	}
	if e.Value.Sat && e.Value.Model != nil {
		if !v.guard.ValidateModel(e.F, bounds, def, e.Value.Model) {
			v.rejected++
			return cache.Value{}, false
		}
		v.accepted++
		return e.Value, true
	}
	st, err := v.trusted(def).Decide(e.F, bounds)
	if err != nil || st == smt.Unknown {
		v.rejected++
		return cache.Value{}, false
	}
	if (st == smt.Sat) != e.Value.Sat {
		v.guard.NoteFailure()
		v.rejected++
		return cache.Value{}, false
	}
	v.accepted++
	return cache.Value{Sat: e.Value.Sat}, true
}

// stats folds the validator's own solver work and guard counters into the
// run's solver aggregate, so table columns account for validation cost.
func (v *validator) stats() smt.Stats {
	var agg smt.Stats
	for _, s := range v.solvers {
		agg = agg.Add(s.Stats())
	}
	c := v.guard.Counters()
	agg.Validations += c.Validations
	agg.ValidationFailures += c.ValidationFailures
	return agg
}
