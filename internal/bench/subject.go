// Package bench contains the reproduction benchmark: the 45 subjects of
// the paper's evaluation (30 ExtractFix security vulnerabilities, 5
// ManyBugs defects, 10 SV-COMP logical errors) re-encoded as mini-C
// programs that preserve the bug class, the fix shape, and the
// specification kind of the originals, plus the runners that regenerate
// every table and figure.
//
// Each subject carries the paper's reported numbers so the harness can
// print paper-vs-measured tables (EXPERIMENTS.md is generated from this).
package bench

import (
	"fmt"

	"cpr/internal/core"
	"cpr/internal/expr"
	"cpr/internal/interval"
	"cpr/internal/lang"
	"cpr/internal/synth"
)

// Suite names.
const (
	SuiteExtractFix = "extractfix"
	SuiteManyBugs   = "manybugs"
	SuiteSVCOMP     = "svcomp"
)

// PaperRow holds the numbers the paper reports for a subject, verbatim,
// for side-by-side comparison. Empty strings mean "not reported".
type PaperRow struct {
	// CEGIS columns of Table 1.
	CEGISPInit, CEGISPFinal, CEGISRatio, CEGISPhiE string
	// CPR columns of Tables 1, 3 and 4.
	PInit, PFinal, Ratio, PhiE, PhiS, Rank string
}

// Subject is one benchmark entry.
type Subject struct {
	// Project and BugID identify the original subject (e.g. Libtiff /
	// CVE-2016-5321); Suite selects the table it belongs to.
	Project, BugID, Suite string
	// Source is the mini-C re-encoding.
	Source string
	// SpecSrc is the specification σ in s-expression syntax over the
	// variables in scope at the bug location.
	SpecSrc string
	// DevPatch is the developer patch in s-expression syntax.
	DevPatch string
	// Failing are the error-exposing inputs.
	Failing []map[string]int64
	// Params and ParamRange configure the abstract-patch parameters
	// (default: a, b in [-10, 10]).
	Params     []string
	ParamRange interval.Interval
	// Consts are extra integer constant components.
	Consts []int64
	// CompVars overrides the variable components: names of integer locals
	// in scope at the hole (default: the program inputs). CompBoolVars
	// adds boolean locals.
	CompVars     []string
	CompBoolVars []string
	// SpecVars declares additional local names referenced by SpecSrc or
	// DevPatch beyond the built-in common names.
	SpecVars []string
	// Arith, Cmp, Bool select operator components (nil = subject default:
	// no arithmetic, all comparisons, or/and).
	Arith, Cmp, Bool []expr.Op
	// MaxTemplates caps the pool (default 24).
	MaxTemplates int
	// InputLo/InputHi bound every input during exploration (default
	// [-100, 100]).
	InputLo, InputHi int64
	// Budget overrides the default exploration budget.
	Budget core.Budget
	// Unsupported marks subjects the harness cannot run (the paper's two
	// FFmpeg subjects fail in the test driver); the reason is reported as
	// N/A in the tables.
	Unsupported string
	// Paper holds the numbers reported in the paper for this subject.
	Paper PaperRow

	parsed bool
	prog   *lang.Program
	err    error
}

// ID returns "Project/BugID".
func (s *Subject) ID() string { return s.Project + "/" + s.BugID }

// Program parses (once) and returns the subject program. Subjects are not
// safe for concurrent use.
func (s *Subject) Program() (*lang.Program, error) {
	if !s.parsed {
		s.prog, s.err = lang.Parse(s.Source)
		s.parsed = true
	}
	return s.prog, s.err
}

// paramRange returns the parameter range (default [-10, 10], §5 setup).
func (s *Subject) paramRange() interval.Interval {
	if s.ParamRange == (interval.Interval{}) {
		return interval.New(-10, 10)
	}
	return s.ParamRange
}

func (s *Subject) inputRange() interval.Interval {
	if s.InputLo == 0 && s.InputHi == 0 {
		return interval.New(-100, 100)
	}
	return interval.New(s.InputLo, s.InputHi)
}

// Components builds the synthesis language for the subject: the program's
// input variables (plus any hole-scope locals the encoding names) as
// variable components, with the subject's operator selections.
func (s *Subject) Components() (synth.Components, error) {
	prog, err := s.Program()
	if err != nil {
		return synth.Components{}, err
	}
	vars := make(map[string]lang.Type)
	if len(s.CompVars) == 0 && len(s.CompBoolVars) == 0 {
		for _, p := range prog.Inputs() {
			vars[p.Name] = p.Type
		}
	}
	for _, n := range s.CompVars {
		vars[n] = lang.TypeInt
	}
	for _, n := range s.CompBoolVars {
		vars[n] = lang.TypeBool
	}
	params := s.Params
	if params == nil {
		params = []string{"a", "b"}
	}
	cmp := s.Cmp
	if cmp == nil {
		cmp = []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
	}
	boolOps := s.Bool
	if boolOps == nil {
		boolOps = []expr.Op{expr.OpOr, expr.OpAnd}
	}
	arith := s.Arith
	if arith == nil {
		arith = []expr.Op{}
	}
	maxT := s.MaxTemplates
	if maxT == 0 {
		maxT = 24
	}
	return synth.Components{
		Vars:         vars,
		Consts:       s.Consts,
		Params:       params,
		ParamRange:   s.paramRange(),
		Arith:        arith,
		Cmp:          cmp,
		Bool:         boolOps,
		MaxTemplates: maxT,
	}, nil
}

// Spec parses the subject's specification.
func (s *Subject) Spec() (*expr.Term, error) {
	prog, err := s.Program()
	if err != nil {
		return nil, err
	}
	return expr.Parse(s.SpecSrc, s.specVars(prog))
}

// DevPatchTerm parses the developer patch.
func (s *Subject) DevPatchTerm() (*expr.Term, error) {
	prog, err := s.Program()
	if err != nil {
		return nil, err
	}
	return expr.Parse(s.DevPatch, s.specVars(prog))
}

// specVars declares every input plus common local names for parsing
// subject specs/patches. Locals used in specs must be ints unless listed
// in CompBoolVars.
func (s *Subject) specVars(prog *lang.Program) map[string]expr.Sort {
	m := make(map[string]expr.Sort)
	for _, n := range s.SpecVars {
		m[n] = expr.SortInt
	}
	for _, n := range s.CompVars {
		m[n] = expr.SortInt
	}
	for _, n := range s.CompBoolVars {
		m[n] = expr.SortBool
	}
	for _, p := range prog.Inputs() {
		if p.Type == lang.TypeBool {
			m[p.Name] = expr.SortBool
		} else {
			m[p.Name] = expr.SortInt
		}
	}
	// Common local variable names appearing in bug-site specs.
	for _, n := range []string{"i", "j", "k", "n", "s", "t", "len", "idx", "acc", "sum", "cur", "prev", "total", "size", "off", "pos", "v", "w", "q", "r"} {
		if _, ok := m[n]; !ok {
			m[n] = expr.SortInt
		}
	}
	return m
}

// Job assembles the repair job for the subject (scaled by budget).
func (s *Subject) Job(budget core.Budget) (core.Job, error) {
	prog, err := s.Program()
	if err != nil {
		return core.Job{}, err
	}
	spec, err := s.Spec()
	if err != nil {
		return core.Job{}, fmt.Errorf("%s: spec: %w", s.ID(), err)
	}
	comp, err := s.Components()
	if err != nil {
		return core.Job{}, err
	}
	inputBounds := make(map[string]interval.Interval)
	for _, p := range prog.Inputs() {
		inputBounds[p.Name] = s.inputRange()
	}
	if budget.MaxIterations == 0 {
		// Fall back to the subject's iteration defaults but keep any
		// caller-supplied wall-clock cap.
		dur := budget.MaxDuration
		budget = s.Budget
		if dur > 0 {
			budget.MaxDuration = dur
		}
	}
	return core.Job{
		Program:       prog,
		Spec:          spec,
		FailingInputs: s.Failing,
		Components:    comp,
		InputBounds:   inputBounds,
		Budget:        budget,
	}, nil
}

// Catalog returns all subjects of a suite in table order.
func Catalog(suite string) []*Subject {
	switch suite {
	case SuiteExtractFix:
		return extractFixSubjects
	case SuiteManyBugs:
		return manyBugsSubjects
	case SuiteSVCOMP:
		return svcompSubjects
	}
	return nil
}

// Find returns the subject with the given project and bug id.
func Find(project, bugID string) *Subject {
	for _, suite := range []string{SuiteExtractFix, SuiteManyBugs, SuiteSVCOMP} {
		for _, s := range Catalog(suite) {
			if s.Project == project && s.BugID == bugID {
				return s
			}
		}
	}
	return nil
}
