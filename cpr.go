// Package cpr is a Go implementation of Concolic Program Repair
// (Shariffdeen, Noller, Grunske, Roychoudhury — PLDI 2021): automated
// program repair that co-explores the input space and the patch space,
// discarding overfitting patches by checking a user-provided specification
// along concolically explored paths.
//
// Subject programs are written in a small C-like language (see package
// documentation in internal/lang): the patch location is the expression
// hole __HOLE__, the bug location is marked __BUG__, and the program
// inputs are the parameters of main. A repair Job combines the program
// with a specification, at least one failing input, and the synthesis
// components; Repair returns a ranked pool of abstract patches.
//
//	prog, _ := cpr.ParseProgram(src)
//	spec, _ := cpr.ParseSpec("(distinct y 0)", "y")
//	res, _ := cpr.Repair(cpr.Job{
//	    Program:       prog,
//	    Spec:          spec,
//	    FailingInputs: []map[string]int64{{"x": 7, "y": 0}},
//	    Components:    cpr.Components{ /* … */ },
//	}, cpr.Options{})
//	for _, line := range cpr.FormatTopPatches(res, 5) {
//	    fmt.Println(line)
//	}
package cpr

import (
	"cpr/internal/bench"
	"cpr/internal/cegis"
	"cpr/internal/core"
	"cpr/internal/expr"
	"cpr/internal/faultloc"
	"cpr/internal/fuzz"
	"cpr/internal/interval"
	"cpr/internal/lang"
	"cpr/internal/lang/interp"
	"cpr/internal/patch"
	"cpr/internal/smt"
	"cpr/internal/synth"
)

// Core repair types, re-exported for library users.
type (
	// Job describes one repair task: program, specification, failing
	// inputs, synthesis components, input bounds, and budget.
	Job = core.Job
	// Budget bounds the anytime repair loop: deterministic iteration
	// budgets plus an optional wall-clock MaxDuration. On expiry Repair
	// returns the best-so-far pool with Stats.TimedOut set.
	Budget = core.Budget
	// Options tunes the repair engine. A run stops from the outside (a
	// signal handler, a caller's deadline) through Options.Context.
	Options = core.Options
	// CheckpointOptions configures the durable run journal: snapshot
	// directory, barrier interval, and resume; see Options.Checkpoint.
	CheckpointOptions = core.CheckpointOptions
	// Result is a ranked pool of surviving abstract patches plus stats.
	Result = core.Result
	// Stats carries the measurements the paper's tables report.
	Stats = core.Stats
	// Patch is an abstract patch (θρ, Tρ, ψρ) with ranking evidence.
	Patch = patch.Patch
	// Components is the synthesis language (variables, constants,
	// parameters, operators).
	Components = synth.Components
	// Interval is a closed integer interval, used for bounds.
	Interval = interval.Interval
	// Term is a logical term (expressions, specifications, patches).
	Term = expr.Term
	// Model assigns integer values to variables.
	Model = expr.Model
	// Program is a parsed mini-C subject program.
	Program = lang.Program
	// CEGISOptions tunes the CEGIS baseline.
	CEGISOptions = cegis.Options
	// CEGISResult is the CEGIS baseline outcome.
	CEGISResult = cegis.Result
	// FuzzOptions tunes the failing-input fuzzer.
	FuzzOptions = fuzz.Options
	// FuzzCampaign summarizes a fuzzing run.
	FuzzCampaign = fuzz.Campaign
	// Subject is a benchmark subject with the paper's reported numbers.
	Subject = bench.Subject
	// LangType is a mini-C type, used in Components.Vars.
	LangType = lang.Type
	// Op is a term operator, used to select synthesis components.
	Op = expr.Op
)

// Mini-C scalar types for Components.Vars.
const (
	TypeInt  = lang.TypeInt
	TypeBool = lang.TypeBool
)

// Operator components for Components.Arith, .Cmp, and .Bool.
const (
	OpAdd = expr.OpAdd
	OpSub = expr.OpSub
	OpMul = expr.OpMul
	OpDiv = expr.OpDiv
	OpRem = expr.OpRem
	OpEq  = expr.OpEq
	OpNe  = expr.OpNe
	OpLt  = expr.OpLt
	OpLe  = expr.OpLe
	OpGt  = expr.OpGt
	OpGe  = expr.OpGe
	OpAnd = expr.OpAnd
	OpOr  = expr.OpOr
	OpNot = expr.OpNot
)

// PatchText renders a patch with its parameters substituted, in C syntax,
// ready for FormatProgram.
func PatchText(p *Patch, params Model) string {
	sub := make(map[string]*Term, len(params))
	for k, v := range params {
		sub[k] = expr.Int(v)
	}
	return expr.CString(expr.Simplify(expr.Subst(p.Expr, sub)))
}

// Repair runs concolic program repair (Algorithm 1 of the paper) and
// returns the reduced, ranked patch pool.
func Repair(job Job, opts Options) (*Result, error) { return core.Repair(job, opts) }

// RepairCEGIS runs the paper's CEGIS baseline (§5) on the same job.
func RepairCEGIS(job Job, opts CEGISOptions) (*CEGISResult, error) { return cegis.Repair(job, opts) }

// ParseProgram parses a mini-C subject program.
func ParseProgram(src string) (*Program, error) { return lang.Parse(src) }

// FormatProgram renders a program; a non-empty patchText replaces the
// __HOLE__ (how repaired programs are displayed).
func FormatProgram(p *Program, patchText string) string { return lang.Format(p, patchText) }

// ParseSpec parses a specification or patch expression in SMT-LIB-style
// prefix syntax, declaring the listed names as integer variables. Use
// ParseSpecTyped for boolean variables.
func ParseSpec(src string, intVars ...string) (*Term, error) {
	return expr.Parse(src, expr.IntVarsFrom(intVars...))
}

// ParseSpecTyped parses an expression with explicit variable sorts: true
// in the map marks a boolean variable, false an integer.
func ParseSpecTyped(src string, vars map[string]bool) (*Term, error) {
	m := make(map[string]expr.Sort, len(vars))
	for name, isBool := range vars {
		if isBool {
			m[name] = expr.SortBool
		} else {
			m[name] = expr.SortInt
		}
	}
	return expr.Parse(src, m)
}

// NewInterval returns the closed interval [lo, hi] for bounds maps.
func NewInterval(lo, hi int64) Interval { return interval.New(lo, hi) }

// FindFailingInput fuzzes the program (with the hole filled by original,
// which may be nil for hole-free programs) for a crash-exposing input —
// the paper's pre-processing step when no failing test is available.
func FindFailingInput(p *Program, original *Term, opts FuzzOptions) FuzzCampaign {
	opts.Original = original
	return fuzz.FindFailing(p, opts)
}

// RunPatched executes the program concretely with the given patch filled
// into the hole and reports whether the run crashed.
func RunPatched(p *Program, input map[string]int64, patchExpr *Term, params Model) (crashed bool, err error) {
	out := interp.Run(p, input, interp.Options{Hole: patchExpr, HoleParams: params})
	if out.Err != nil && !out.Crashed() && out.Err.Kind != interp.ErrAssumeViolated {
		return false, out.Err
	}
	return out.Crashed(), nil
}

// CorrectPatchRank returns the 1-based rank of the first pool patch
// semantically covering the reference patch, for evaluating repair runs
// against a known developer fix.
func CorrectPatchRank(res *Result, reference *Term, inputBounds map[string]Interval) (int, bool) {
	solver := smt.NewSolver(smt.Options{})
	return core.CorrectPatchRank(solver, res.Ranked, reference, inputBounds)
}

// FormatTopPatches renders the top-n ranked patches of a result.
func FormatTopPatches(res *Result, n int) []string { return core.FormatTopPatches(res, n) }

// Fault-localization re-exports: spectrum-based localization derives the
// fault (patch) location when it is not known up front (§7 of the paper).
type (
	// FaultOptions tunes fault localization.
	FaultOptions = faultloc.Options
	// FaultReport ranks statements by suspiciousness.
	FaultReport = faultloc.Report
)

// Suspiciousness formulas for FaultOptions.Formula.
const (
	Ochiai    = faultloc.Ochiai
	Tarantula = faultloc.Tarantula
	Jaccard   = faultloc.Jaccard
)

// LocalizeFault executes the program on the given inputs (mixing failing
// and passing ones), collects statement spectra, and ranks statements by
// suspiciousness.
func LocalizeFault(p *Program, inputs []map[string]int64, opts FaultOptions) (*FaultReport, error) {
	return faultloc.Localize(p, inputs, opts)
}

// Benchmark suite names for Subjects.
const (
	SuiteExtractFix = bench.SuiteExtractFix
	SuiteManyBugs   = bench.SuiteManyBugs
	SuiteSVCOMP     = bench.SuiteSVCOMP
)

// Subjects returns the benchmark subjects of a suite (the paper's
// evaluation corpus re-encoded in the mini language).
func Subjects(suite string) []*Subject { return bench.Catalog(suite) }

// FindSubject returns a benchmark subject by project and bug id.
func FindSubject(project, bugID string) *Subject { return bench.Find(project, bugID) }
