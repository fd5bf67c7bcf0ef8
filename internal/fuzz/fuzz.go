// Package fuzz implements a small directed mutational fuzzer. Its role is
// the paper's §3.2 pre-processing: when no error-exposing input is
// available, generate one failing test with regard to the specification
// before concolic repair starts (the paper uses directed greybox fuzzing
// for this step).
//
// The fuzzer runs the buggy program (the hole filled with the original,
// buggy expression) through the concrete interpreter, scoring inputs by
// how close they get to the bug location, and mutates the fittest seeds.
package fuzz

import (
	"context"
	"math/rand"

	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/lang"
	"cpr/internal/lang/interp"
)

// Options configures a fuzzing campaign.
type Options struct {
	// Seed makes the campaign deterministic.
	Seed int64
	// MaxRuns bounds executions (default 20000).
	MaxRuns int
	// Original is the expression standing in for __HOLE__ in the buggy
	// program (for inserted-guard subjects this is `false`). Programs
	// without a hole may leave it nil.
	Original *expr.Term
	// InputBounds bound the generated values (default [-1000, 1000], a
	// pragmatic fuzzing range).
	InputBounds map[string]interval.Interval
	// MaxSteps bounds a single execution.
	MaxSteps int
	// Population is the number of seeds kept (default 32).
	Population int
	// Context winds the campaign down once it is done (deadline or
	// cancellation); the campaign then returns with TimedOut set. Nil
	// means context.Background().
	Context context.Context
}

func (o Options) withDefaults() Options {
	if o.MaxRuns == 0 {
		o.MaxRuns = 20000
	}
	if o.Population == 0 {
		o.Population = 32
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 1 << 16
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	return o
}

// Campaign summarizes a fuzzing run.
type Campaign struct {
	// Failing is the discovered crash-exposing input (nil if none found).
	Failing map[string]int64
	// Runs is the number of executions performed.
	Runs int
	// BugHits counts executions that reached the bug location.
	BugHits int
	// TimedOut reports the campaign stopped because its Context was done
	// rather than on MaxRuns.
	TimedOut bool
	// Panics counts interpreter panics recovered at the run boundary
	// (the run scores zero; the campaign continues).
	Panics int
}

type seed struct {
	input map[string]int64
	score int
}

// FindFailing searches for an input whose execution crashes (divide by
// zero, out-of-bounds, assertion failure). It returns a campaign whose
// Failing field is nil when the budget is exhausted without a crash.
func FindFailing(prog *lang.Program, opts Options) Campaign {
	opts = opts.withDefaults()
	done := opts.Context.Done()
	stopped := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	bounds := func(name string) interval.Interval {
		if iv, ok := opts.InputBounds[name]; ok {
			return iv
		}
		return interval.New(-1000, 1000)
	}
	params := prog.Inputs()

	randomInput := func() map[string]int64 {
		in := make(map[string]int64, len(params))
		for _, p := range params {
			if p.Type == lang.TypeBool {
				in[p.Name] = int64(rng.Intn(2))
				continue
			}
			iv := bounds(p.Name)
			span := iv.Hi - iv.Lo + 1
			in[p.Name] = iv.Lo + rng.Int63n(span)
		}
		return in
	}

	clampTo := func(name string, v int64) int64 {
		iv := bounds(name)
		if v < iv.Lo {
			return iv.Lo
		}
		if v > iv.Hi {
			return iv.Hi
		}
		return v
	}

	mutate := func(in map[string]int64) map[string]int64 {
		out := make(map[string]int64, len(in))
		for k, v := range in {
			out[k] = v
		}
		if len(params) == 0 {
			return out
		}
		p := params[rng.Intn(len(params))]
		if p.Type == lang.TypeBool {
			out[p.Name] = 1 - out[p.Name]
			return out
		}
		v := out[p.Name]
		switch rng.Intn(6) {
		case 0:
			v++
		case 1:
			v--
		case 2:
			v = 0
		case 3:
			v = -v
		case 4:
			v += int64(rng.Intn(21) - 10)
		default:
			iv := bounds(p.Name)
			v = iv.Lo + rng.Int63n(iv.Hi-iv.Lo+1)
		}
		out[p.Name] = clampTo(p.Name, v)
		return out
	}

	camp := Campaign{}
	safeRun := func(in map[string]int64) (out interp.Outcome, panicked bool) {
		defer func() {
			if r := recover(); r != nil {
				camp.Panics++
				panicked = true
			}
		}()
		return interp.Run(prog, in, interp.Options{
			MaxSteps: opts.MaxSteps,
			Hole:     opts.Original,
			Stop:     stopped,
		}), false
	}
	run := func(in map[string]int64) (int, bool) {
		camp.Runs++
		out, panicked := safeRun(in)
		if panicked {
			return 0, false
		}
		if out.HitBug {
			camp.BugHits++
		}
		if out.Crashed() {
			return 0, true
		}
		// Directed power schedule: reaching the bug location scores
		// highest, then the patch location, then longer executions
		// (deeper penetration).
		score := 0
		if out.HitBug {
			score += 1000
		}
		if out.HitPatch {
			score += 100
		}
		score += out.Steps % 100
		return score, false
	}

	// Seed corpus: zeros, boundary values, random.
	var corpus []seed
	zero := make(map[string]int64, len(params))
	for _, p := range params {
		zero[p.Name] = 0
	}
	initial := []map[string]int64{zero}
	for i := 0; i < opts.Population-1; i++ {
		initial = append(initial, randomInput())
	}
	for _, in := range initial {
		if stopped() {
			camp.TimedOut = true
			return camp
		}
		if camp.Runs >= opts.MaxRuns {
			return camp
		}
		score, crashed := run(in)
		if crashed {
			camp.Failing = in
			return camp
		}
		corpus = append(corpus, seed{input: in, score: score})
	}

	for camp.Runs < opts.MaxRuns {
		if stopped() {
			camp.TimedOut = true
			return camp
		}
		// Pick a parent biased toward high scores.
		best := 0
		for i := 1; i < len(corpus); i++ {
			if corpus[i].score > corpus[best].score {
				best = i
			}
		}
		parent := corpus[best]
		if rng.Intn(4) == 0 { // occasional exploration
			parent = corpus[rng.Intn(len(corpus))]
		}
		child := mutate(parent.input)
		score, crashed := run(child)
		if crashed {
			camp.Failing = child
			return camp
		}
		// Replace the weakest seed when the child improves on it.
		worst := 0
		for i := 1; i < len(corpus); i++ {
			if corpus[i].score < corpus[worst].score {
				worst = i
			}
		}
		if score >= corpus[worst].score {
			corpus[worst] = seed{input: child, score: score}
		}
	}
	return camp
}
