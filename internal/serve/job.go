package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"cpr/internal/bench"
	"cpr/internal/core"
	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/lang"
	"cpr/internal/synth"
)

// JobSpec is the wire form of a repair job: the body of POST /jobs. A job
// is either a benchmark subject (Subject set to "Project/BugID") or an
// inline program (Program + Spec + Failing), mirroring the cpr CLI's two
// modes. All budgets are deterministic iteration budgets, so a job
// interrupted by a drain or crash resumes to the same repair; an
// optional wall-clock TimeoutMS adds the anytime cutoff on top (at the
// cost of that determinism, exactly as with the CLI's -timeout).
type JobSpec struct {
	// Tenant names the submitting tenant; admission control (quotas, rate
	// limits) and the /stats breakdown are per tenant. Empty defaults to
	// "default"; the X-Tenant request header overrides an empty field.
	Tenant string `json:"tenant,omitempty"`
	// Label is an optional caller-chosen name, echoed in status views and
	// usable to correlate jobs across daemon restarts.
	Label string `json:"label,omitempty"`

	// Subject selects a benchmark subject ("Project/BugID") instead of an
	// inline program.
	Subject string `json:"subject,omitempty"`

	// Program is the mini-C source with a __HOLE__ patch location.
	Program string `json:"program,omitempty"`
	// Spec is the specification at the bug location (s-expression).
	Spec string `json:"spec,omitempty"`
	// Failing are the error-exposing inputs (at least one).
	Failing []map[string]int64 `json:"failing,omitempty"`
	// Passing optionally seeds exploration with passing inputs.
	Passing []map[string]int64 `json:"passing,omitempty"`
	// Params are the template parameter names (default ["a","b"]).
	Params []string `json:"params,omitempty"`
	// ParamLo/ParamHi bound the parameter range (default [-10, 10]).
	ParamLo *int64 `json:"param_lo,omitempty"`
	ParamHi *int64 `json:"param_hi,omitempty"`
	// InputLo/InputHi bound every input during exploration
	// (default [-100, 100]).
	InputLo *int64 `json:"input_lo,omitempty"`
	InputHi *int64 `json:"input_hi,omitempty"`
	// MaxTemplates caps the synthesized template pool (0 = engine default).
	MaxTemplates int `json:"max_templates,omitempty"`
	// ArithOps, CmpOps, BoolOps restrict the synthesis operator components,
	// spelled as in SMT-LIB ("+", "div", "=", "distinct", "<=", "or", ...).
	// Absent fields mean the full default sets; an explicit empty list
	// disables that operator class.
	ArithOps *[]string `json:"arith_ops,omitempty"`
	CmpOps   *[]string `json:"cmp_ops,omitempty"`
	BoolOps  *[]string `json:"bool_ops,omitempty"`

	// Budget is the main-loop iteration budget (0 = engine default).
	Budget int `json:"budget,omitempty"`
	// ValidationBudget bounds the per-failing-input validation phase
	// (0 = engine default).
	ValidationBudget int `json:"validation_budget,omitempty"`
	// TimeoutMS is a per-attempt wall-clock cutoff in milliseconds
	// (0 = none). A timed-out attempt still completes with its best-so-far
	// pool (the engine's anytime contract), but resumed results are then
	// only best-effort identical.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Top is how many ranked patches the result carries (default 5).
	Top int `json:"top,omitempty"`
}

// Key is the identity used by fault injection and log lines:
// "tenant/label" (or "tenant/-" for unlabeled jobs).
func (s JobSpec) Key() string {
	label := s.Label
	if label == "" {
		label = "-"
	}
	return s.Tenant + "/" + label
}

func orDefault(p *int64, def int64) int64 {
	if p == nil {
		return def
	}
	return *p
}

// opsByName maps the SMT-LIB spellings accepted in JobSpec operator lists
// to the synthesizable operators.
var opsByName = map[string]expr.Op{
	"+": expr.OpAdd, "-": expr.OpSub, "*": expr.OpMul,
	"div": expr.OpDiv, "rem": expr.OpRem,
	"=": expr.OpEq, "distinct": expr.OpNe,
	"<": expr.OpLt, "<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe,
	"and": expr.OpAnd, "or": expr.OpOr, "not": expr.OpNot,
}

// parseOps lowers a JobSpec operator list: a nil pointer keeps the
// synthesizer's default set (nil slice), an explicit list — possibly
// empty — selects exactly those operators.
func parseOps(names *[]string) ([]expr.Op, error) {
	if names == nil {
		return nil, nil
	}
	ops := make([]expr.Op, 0, len(*names))
	for _, n := range *names {
		op, ok := opsByName[n]
		if !ok {
			return nil, fmt.Errorf("unknown operator %q", n)
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// maxTimeoutMS is the largest timeout_ms whose time.Duration does not
// overflow.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// buildJob validates the spec and lowers it to the engine's job form.
// Every error here is an admission-time 400: nothing invalid reaches the
// queue or the journal.
func buildJob(spec JobSpec) (core.Job, error) {
	if spec.TimeoutMS < 0 || spec.TimeoutMS > maxTimeoutMS {
		return core.Job{}, fmt.Errorf("timeout_ms must be in [0, %d], got %d", maxTimeoutMS, spec.TimeoutMS)
	}
	if spec.Subject != "" {
		parts := strings.SplitN(spec.Subject, "/", 2)
		if len(parts) != 2 {
			return core.Job{}, fmt.Errorf("subject must be Project/BugID, got %q", spec.Subject)
		}
		s := bench.Find(parts[0], parts[1])
		if s == nil {
			return core.Job{}, fmt.Errorf("unknown subject %q", spec.Subject)
		}
		if s.Unsupported != "" {
			return core.Job{}, fmt.Errorf("subject %s is not runnable: %s", spec.Subject, s.Unsupported)
		}
		return s.Job(core.Budget{
			MaxIterations:        spec.Budget,
			ValidationIterations: spec.ValidationBudget,
		})
	}
	if spec.Program == "" {
		return core.Job{}, errors.New("job needs either subject or program")
	}
	prog, err := lang.Parse(spec.Program)
	if err != nil {
		return core.Job{}, fmt.Errorf("program: %v", err)
	}
	if prog.HolePos == nil {
		return core.Job{}, core.ErrNoHole
	}
	if len(spec.Failing) == 0 {
		return core.Job{}, core.ErrNoFailingInput
	}
	var names []string
	for _, p := range prog.Inputs() {
		names = append(names, p.Name)
	}
	specTerm := expr.True()
	if spec.Spec != "" {
		specTerm, err = expr.Parse(spec.Spec, expr.IntVarsFrom(names...))
		if err != nil {
			return core.Job{}, fmt.Errorf("spec: %v", err)
		}
	}
	params := spec.Params
	if len(params) == 0 {
		params = []string{"a", "b"}
	}
	arith, err := parseOps(spec.ArithOps)
	if err != nil {
		return core.Job{}, fmt.Errorf("arith_ops: %v", err)
	}
	cmp, err := parseOps(spec.CmpOps)
	if err != nil {
		return core.Job{}, fmt.Errorf("cmp_ops: %v", err)
	}
	boolOps, err := parseOps(spec.BoolOps)
	if err != nil {
		return core.Job{}, fmt.Errorf("bool_ops: %v", err)
	}
	paramLo, paramHi := orDefault(spec.ParamLo, -10), orDefault(spec.ParamHi, 10)
	if paramLo > paramHi {
		return core.Job{}, fmt.Errorf("param_lo %d exceeds param_hi %d", paramLo, paramHi)
	}
	inLo, inHi := orDefault(spec.InputLo, -100), orDefault(spec.InputHi, 100)
	if inLo > inHi {
		return core.Job{}, fmt.Errorf("input_lo %d exceeds input_hi %d", inLo, inHi)
	}
	vars := map[string]lang.Type{}
	bounds := map[string]interval.Interval{}
	for _, p := range prog.Inputs() {
		vars[p.Name] = p.Type
		bounds[p.Name] = interval.New(inLo, inHi)
	}
	return core.Job{
		Program:       prog,
		Spec:          specTerm,
		FailingInputs: spec.Failing,
		PassingInputs: spec.Passing,
		Components: synth.Components{
			Vars:         vars,
			Params:       params,
			ParamRange:   interval.New(paramLo, paramHi),
			Arith:        arith,
			Cmp:          cmp,
			Bool:         boolOps,
			MaxTemplates: spec.MaxTemplates,
		},
		InputBounds: bounds,
		Budget: core.Budget{
			MaxIterations:        spec.Budget,
			ValidationIterations: spec.ValidationBudget,
		},
	}, nil
}

// State is a job's lifecycle state.
type State string

// Job lifecycle states. Queued, Running, and Interrupted are live; the
// rest are terminal. An accepted job always reaches a terminal state — if
// not in this daemon process, then in the one that resumes the journal.
const (
	// StateQueued: accepted, durable in the journal, waiting for a runner.
	StateQueued State = "queued"
	// StateRunning: the job's attempt is executing on a runner.
	StateRunning State = "running"
	// StateInterrupted: the attempt was cut by a drain; the job resumes
	// from its engine checkpoint after a restart.
	StateInterrupted State = "interrupted"
	// StateDone: completed with a result.
	StateDone State = "done"
	// StateCancelled: cancelled by the client.
	StateCancelled State = "cancelled"
	// StateFailed: the attempt failed (it panicked or returned an error);
	// the job keeps the error and does not run again. The engine is
	// deterministic, so a second attempt from the same checkpoint would
	// fail the same way.
	StateFailed State = "failed"
	// StateExpired: the job exceeded the queue-wait timeout before any
	// runner picked it up (load shedding of stale work).
	StateExpired State = "expired"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateCancelled, StateFailed, StateExpired:
		return true
	}
	return false
}

// Result is the wire form of a completed repair.
type Result struct {
	// TopPatches are the ranked patch lines (same rendering as the CLI).
	TopPatches []string `json:"top_patches"`
	// Repaired is the program with the best patch filled in (inline jobs
	// and subjects alike), empty when the pool emptied.
	Repaired string `json:"repaired,omitempty"`
	// Stats are the engine's run measurements.
	Stats core.Stats `json:"stats"`
}

// StatusView is the wire form of a job's state: GET /jobs/{id}, list
// entries, and stream events.
type StatusView struct {
	ID     string  `json:"id"`
	Tenant string  `json:"tenant"`
	Label  string  `json:"label,omitempty"`
	State  State   `json:"state"`
	Error  string  `json:"error,omitempty"`
	Result *Result `json:"result,omitempty"`
}

// job is the scheduler's mutable record for one accepted job. All fields
// besides the immutable identity are guarded by the server mutex.
type job struct {
	id        string
	spec      JobSpec
	core      core.Job
	submitSeq uint64

	state   State
	lastErr string
	result  *Result

	// drained marks a running attempt cut by Drain: its outcome is
	// discarded and the job is left non-terminal for the next process.
	drained bool
	// cancelRequested marks a client cancel of a running attempt.
	cancelRequested bool
	// cancel cancels the in-flight attempt's context.
	cancel context.CancelFunc
	// watchers receive state transitions for /jobs/{id}/stream. Sends are
	// non-blocking: a slow or stuck client loses intermediate events, never
	// stalls the scheduler.
	watchers []chan StatusView
}

func (j *job) view() StatusView {
	return StatusView{
		ID:     j.id,
		Tenant: j.spec.Tenant,
		Label:  j.spec.Label,
		State:  j.state,
		Error:  j.lastErr,
		Result: j.result,
	}
}

// buildResult renders the engine outcome into the wire form.
func buildResult(j core.Job, res *core.Result, top int) *Result {
	if top <= 0 {
		top = 5
	}
	out := &Result{TopPatches: core.FormatTopPatches(res, top), Stats: res.Stats}
	if len(res.Ranked) > 0 {
		best := res.Ranked[0]
		if params, ok := best.AnyParams(); ok {
			sub := make(map[string]*expr.Term, len(params))
			for k, v := range params {
				sub[k] = expr.Int(v)
			}
			out.Repaired = lang.Format(j.Program, expr.CString(expr.Simplify(expr.Subst(best.Expr, sub))))
		}
	}
	return out
}
