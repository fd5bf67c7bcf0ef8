package bench

import (
	"fmt"
	"strings"
	"time"

	"cpr/internal/baselines"
	"cpr/internal/cegis"
	"cpr/internal/core"
	"cpr/internal/interval"
	"cpr/internal/patch"
	"cpr/internal/smt"
)

// RunOptions configures a table run.
type RunOptions struct {
	// Budget overrides every subject's exploration budget (zero keeps the
	// per-subject defaults). Benchmarks use small budgets; cmd/cpr-bench
	// runs the defaults.
	Budget core.Budget
	// SubjectTimeout caps each subject's wall-clock time (0 = unbounded).
	// A subject that hits it is reported as a "timeout" row with its
	// best-so-far stats, not dropped from the table.
	SubjectTimeout time.Duration
	// Core tunes the CPR engine; CEGIS tunes the baseline.
	Core  core.Options
	CEGIS cegis.Options
	// Baselines tunes the Table 2 tools.
	Baselines baselines.Options
	// Progress, when non-nil, receives one line per finished subject.
	Progress func(line string)
	// Checkpoint makes suite runs crash-safe: with Dir set, every finished
	// subject row is journaled to <Dir>/suite-<tag>.journal and the
	// in-flight subject writes engine snapshots under <Dir>/subjects/; with
	// Resume, completed rows replay from the journal and the interrupted
	// subject continues from its snapshot. Interval/Keep/Warn pass through
	// to the per-subject engine checkpoints.
	Checkpoint core.CheckpointOptions
}

func (o RunOptions) progress(format string, args ...interface{}) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// Row statuses.
const (
	StatusOK = "ok"
	// StatusTimeout marks a subject that hit SubjectTimeout (or its own
	// wall-clock budget); its stats are the best-so-far anytime result.
	StatusTimeout = "timeout"
	// StatusError marks a subject whose run returned an error; StatusPanic
	// one whose run panicked (recovered — the suite continues).
	StatusError = "error"
	StatusPanic = "panic"
)

// SubjectResult is one measured row (CPR side).
type SubjectResult struct {
	Subject *Subject
	NA      bool
	Err     error
	// Status classifies the row: StatusOK, StatusTimeout, StatusError, or
	// StatusPanic. A crashed or hung subject stays in the table as a row
	// with this status instead of aborting the suite.
	Status string

	CPR core.Stats
	// Wall is the measured wall-clock time of the CPR run (repair only,
	// excluding rank computation).
	Wall       time.Duration
	Rank       int
	RankFound  bool
	CEGISStats cegis.Stats
	// CEGISCorrect reports whether the CEGIS-returned patch covers the
	// developer patch; CEGISGenerated whether it returned one at all.
	CEGISGenerated, CEGISCorrect bool
}

// subjectBudget applies the per-subject wall-clock cap on top of the
// subject's own budget (the tighter of the two wins).
func subjectBudget(b core.Budget, opts RunOptions) core.Budget {
	if opts.SubjectTimeout > 0 && (b.MaxDuration == 0 || opts.SubjectTimeout < b.MaxDuration) {
		b.MaxDuration = opts.SubjectTimeout
	}
	return b
}

// safeRepair isolates one subject run: a panic anywhere below becomes an
// error row instead of killing the whole table.
func safeRepair(job core.Job, opts core.Options) (res *core.Result, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			res, err, panicked = nil, fmt.Errorf("bench: subject run panicked: %v", r), true
		}
	}()
	res, err = core.Repair(job, opts)
	return res, err, false
}

func safeCEGIS(job core.Job, opts cegis.Options) (res *cegis.Result, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			res, err, panicked = nil, fmt.Errorf("bench: cegis run panicked: %v", r), true
		}
	}()
	res, err = cegis.Repair(job, opts)
	return res, err, false
}

// runCPR executes CPR on a subject and computes the correct-patch rank.
func runCPR(s *Subject, opts RunOptions) SubjectResult {
	out := SubjectResult{Subject: s, Status: StatusOK}
	if s.Unsupported != "" {
		out.NA = true
		return out
	}
	job, err := s.Job(opts.Budget)
	if err != nil {
		out.Err = err
		out.Status = StatusError
		return out
	}
	job.Budget = subjectBudget(job.Budget, opts)
	start := time.Now()
	res, err, panicked := safeRepair(job, opts.Core)
	out.Wall = time.Since(start)
	if err != nil {
		out.Err = err
		out.Status = StatusError
		if panicked {
			out.Status = StatusPanic
		}
		return out
	}
	out.CPR = res.Stats
	if res.Stats.TimedOut {
		out.Status = StatusTimeout
	}
	dev, err := s.DevPatchTerm()
	if err != nil {
		out.Err = err
		out.Status = StatusError
		return out
	}
	solver := smt.NewSolver(opts.Core.SMT)
	out.Rank, out.RankFound = core.CorrectPatchRank(solver, res.Ranked, dev, job.InputBounds)
	return out
}

// runCEGIS executes the CEGIS baseline on a subject.
func runCEGIS(s *Subject, opts RunOptions, out *SubjectResult) {
	job, err := s.Job(opts.Budget)
	if err != nil {
		out.Err = err
		return
	}
	job.Budget = subjectBudget(job.Budget, opts)
	res, err, _ := safeCEGIS(job, opts.CEGIS)
	if err != nil {
		return // unsupported hole type, panic, etc.: leave zero stats
	}
	out.CEGISStats = res.Stats
	if res.Patch != nil {
		out.CEGISGenerated = true
		dev, err := s.DevPatchTerm()
		if err != nil {
			return
		}
		solver := smt.NewSolver(opts.CEGIS.SMT)
		concrete := res.ConcreteExpr()
		if concrete != nil {
			p := patch.New(1, concrete, nil)
			ok, _, err := core.Covers(solver, p, dev, job.InputBounds, 0)
			out.CEGISCorrect = err == nil && ok
		}
	}
}

// Table1 runs the ExtractFix suite through both CPR and CEGIS.
func Table1(opts RunOptions) []SubjectResult {
	subjects := Catalog(SuiteExtractFix)
	sj := openSuiteJournal("table1", opts)
	defer sj.close()
	rows := make([]SubjectResult, len(subjects))
	for i, s := range subjects {
		if row, ok := sj.lookup(s); ok {
			rows[i] = row
			opts.progress("table1 %2d/%d %-28s resumed from journal", i+1, len(subjects), s.ID())
			continue
		}
		so := sj.subjectOpts(s, opts)
		rows[i] = runCPR(s, so)
		if !rows[i].NA && rows[i].Err == nil {
			runCEGIS(s, so, &rows[i])
		}
		sj.record(s, rows[i])
		opts.progress("table1 %2d/%d %-28s cpr: %s cegis: %s", i+1, len(subjects), s.ID(),
			cprCell(rows[i]), cegisCell(rows[i]))
	}
	return rows
}

// Table3 runs the ManyBugs suite (CPR only, as in the paper).
func Table3(opts RunOptions) []SubjectResult {
	return runSuite(SuiteManyBugs, "table3", opts)
}

// Table4 runs the SV-COMP suite (CPR only).
func Table4(opts RunOptions) []SubjectResult {
	return runSuite(SuiteSVCOMP, "table4", opts)
}

func runSuite(suite, tag string, opts RunOptions) []SubjectResult {
	subjects := Catalog(suite)
	sj := openSuiteJournal(tag, opts)
	defer sj.close()
	rows := make([]SubjectResult, len(subjects))
	for i, s := range subjects {
		if row, ok := sj.lookup(s); ok {
			rows[i] = row
			opts.progress("%s %2d/%d %-34s resumed from journal", tag, i+1, len(subjects), s.ID())
			continue
		}
		rows[i] = runCPR(s, sj.subjectOpts(s, opts))
		sj.record(s, rows[i])
		opts.progress("%s %2d/%d %-34s cpr: %s", tag, i+1, len(subjects), s.ID(), cprCell(rows[i]))
	}
	return rows
}

func cprCell(r SubjectResult) string {
	if r.NA {
		return "N/A"
	}
	if r.Err != nil {
		return r.Status + ": " + r.Err.Error()
	}
	rank := "✗"
	if r.RankFound {
		rank = fmt.Sprintf("%d", r.Rank)
	}
	cell := fmt.Sprintf("|P| %d→%d (%.0f%%) φE=%d φS=%d rank=%s",
		r.CPR.PInit, r.CPR.PFinal, r.CPR.ReductionRatio()*100,
		r.CPR.PathsExplored, r.CPR.PathsSkipped, rank)
	if r.Status == StatusTimeout {
		cell += " [timeout: best-so-far]"
	}
	return cell
}

func cegisCell(r SubjectResult) string {
	if r.NA {
		return "N/A"
	}
	correct := "✗"
	if r.CEGISCorrect {
		correct = "✓"
	}
	return fmt.Sprintf("|P| %d→%d (%.0f%%) φE=%d correct=%s",
		r.CEGISStats.PInit, r.CEGISStats.PFinal, r.CEGISStats.ReductionRatio()*100,
		r.CEGISStats.PathsExplored, correct)
}

// FormatTable1 renders the measured rows next to the paper's numbers.
func FormatTable1(rows []SubjectResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: CEGIS vs CPR on the ExtractFix benchmark (paper values in parentheses)\n")
	fmt.Fprintf(&b, "%-4s %-30s | %-34s | %s\n", "ID", "Subject", "CEGIS |Pi|→|Pf| ratio φE corr", "CPR |Pi|→|Pf| ratio φE φS rank")
	for i, r := range rows {
		s := r.Subject
		if r.NA {
			fmt.Fprintf(&b, "%-4d %-30s | %-34s | N/A (paper: N/A)\n", i+1, s.ID(), "N/A")
			continue
		}
		if r.Err != nil {
			fmt.Fprintf(&b, "%-4d %-30s | %s: %v\n", i+1, s.ID(), r.Status, r.Err)
			continue
		}
		note := ""
		if r.Status == StatusTimeout {
			note = " [timeout]"
		}
		cc := "✗"
		if r.CEGISCorrect {
			cc = "✓"
		}
		rank := "✗"
		if r.RankFound {
			rank = fmt.Sprintf("%d", r.Rank)
		}
		fmt.Fprintf(&b, "%-4d %-30s | %d→%d %.0f%% φE=%d %s (%s→%s %s φE=%s) | %d→%d %.0f%% φE=%d φS=%d rank=%s (%s→%s %s φE=%s φS=%s rank=%s)%s\n",
			i+1, s.ID(),
			r.CEGISStats.PInit, r.CEGISStats.PFinal, r.CEGISStats.ReductionRatio()*100, r.CEGISStats.PathsExplored, cc,
			s.Paper.CEGISPInit, s.Paper.CEGISPFinal, s.Paper.CEGISRatio, s.Paper.CEGISPhiE,
			r.CPR.PInit, r.CPR.PFinal, r.CPR.ReductionRatio()*100, r.CPR.PathsExplored, r.CPR.PathsSkipped, rank,
			s.Paper.PInit, s.Paper.PFinal, s.Paper.Ratio, s.Paper.PhiE, s.Paper.PhiS, s.Paper.Rank, note)
	}
	b.WriteString(summarizeFindings(rows))
	b.WriteString(solverSummary(rows))
	return b.String()
}

// FormatCPRTable renders Table 3/4-style rows.
func FormatCPRTable(title string, rows []SubjectResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (paper values in parentheses)\n", title)
	for i, r := range rows {
		s := r.Subject
		if r.Err != nil {
			fmt.Fprintf(&b, "%-4d %-34s %s: %v\n", i+1, s.ID(), r.Status, r.Err)
			continue
		}
		rank := "✗"
		if r.RankFound {
			rank = fmt.Sprintf("%d", r.Rank)
		}
		note := ""
		if r.Status == StatusTimeout {
			note = " [timeout]"
		}
		fmt.Fprintf(&b, "%-4d %-34s |P| %d→%d %.0f%% φE=%d φS=%d rank=%s (%s→%s %s φE=%s φS=%s rank=%s)%s\n",
			i+1, s.ID(),
			r.CPR.PInit, r.CPR.PFinal, r.CPR.ReductionRatio()*100,
			r.CPR.PathsExplored, r.CPR.PathsSkipped, rank,
			s.Paper.PInit, s.Paper.PFinal, s.Paper.Ratio, s.Paper.PhiE, s.Paper.PhiS, s.Paper.Rank, note)
	}
	b.WriteString(solverSummary(rows))
	return b.String()
}

// solverSummary aggregates the engineering-side counters of a run — wall
// time, SMT queries, verdict-cache traffic — across the table's rows.
func solverSummary(rows []SubjectResult) string {
	var wall, satTime, liaTime, valTime time.Duration
	var queries, hits, misses uint64
	var encHits, encMisses, learned, kept, deleted, cores, coreLits uint64
	var validations, valFailures, quarantines, fallbacks, rebuilds, trips uint64
	var shardMax int
	var steals, deaths, impVerdicts, impCores, rejImports uint64
	var hbMissed, hedges, hedgeWins, hedgeLosses, reconnects, lateJoins, degraded uint64
	var governPolls, rungSoft, rungHigh, rungCritical uint64
	var shrinks, shrinkBytes, retires, retireBytes uint64
	var spills, spilledItems, reloads, spillFails, memStopped uint64
	var frontierPeak, seenPeak int
	var frontierPeakB, seenPeakB, poolPeakB uint64
	for _, r := range rows {
		if r.NA {
			continue
		}
		if r.CPR.Shards > shardMax {
			shardMax = r.CPR.Shards
		}
		steals += r.CPR.ShardSteals
		deaths += r.CPR.ShardDeaths
		impVerdicts += r.CPR.ShardImportedVerdicts
		impCores += r.CPR.ShardImportedCores
		rejImports += r.CPR.ShardRejectedImports
		hbMissed += r.CPR.ShardHeartbeatsMissed
		hedges += r.CPR.ShardHedges
		hedgeWins += r.CPR.ShardHedgeWins
		hedgeLosses += r.CPR.ShardHedgeLosses
		reconnects += r.CPR.ShardReconnects
		lateJoins += r.CPR.ShardLateJoins
		degraded += r.CPR.ShardDegradedStarts
		wall += r.Wall
		satTime += r.CPR.SatTime
		liaTime += r.CPR.LIATime
		valTime += r.CPR.ValidateTime
		queries += r.CPR.SolverQueries
		hits += r.CPR.CacheHits
		misses += r.CPR.CacheMisses
		encHits += r.CPR.EncodeCacheHits
		encMisses += r.CPR.EncodeCacheMisses
		learned += r.CPR.ClausesLearned
		kept += r.CPR.ClausesKept
		deleted += r.CPR.ClausesDeleted
		cores += r.CPR.AssumptionCores
		coreLits += r.CPR.AssumptionCoreLits
		validations += r.CPR.Validations
		valFailures += r.CPR.ValidationFailures
		quarantines += r.CPR.Quarantines
		fallbacks += r.CPR.FallbackSolves
		rebuilds += r.CPR.RebuildRetries
		trips += r.CPR.BreakerTrips
		governPolls += r.CPR.GovernPolls
		rungSoft += r.CPR.MemRungSoft
		rungHigh += r.CPR.MemRungHigh
		rungCritical += r.CPR.MemRungCritical
		shrinks += r.CPR.MemCacheShrinks
		shrinkBytes += r.CPR.MemCacheShrinkBytes
		retires += r.CPR.MemContextRetires
		retireBytes += r.CPR.MemContextRetireBytes
		spills += r.CPR.MemSpills
		spilledItems += r.CPR.MemSpilledItems
		reloads += r.CPR.MemReloads
		spillFails += r.CPR.MemSpillLoadFailures
		if r.CPR.MemStopped {
			memStopped++
		}
		if r.CPR.FrontierPeak > frontierPeak {
			frontierPeak = r.CPR.FrontierPeak
		}
		if r.CPR.SeenPeak > seenPeak {
			seenPeak = r.CPR.SeenPeak
		}
		if r.CPR.FrontierPeakBytes > frontierPeakB {
			frontierPeakB = r.CPR.FrontierPeakBytes
		}
		if r.CPR.SeenPeakBytes > seenPeakB {
			seenPeakB = r.CPR.SeenPeakBytes
		}
		if r.CPR.PoolPeakBytes > poolPeakB {
			poolPeakB = r.CPR.PoolPeakBytes
		}
	}
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	out := fmt.Sprintf("solver: %d queries, cache hit rate %.1f%% (%d hits / %d misses), wall %s\n",
		queries, rate*100, hits, misses, wall.Round(time.Millisecond))
	if satTime+liaTime+valTime > 0 {
		out += fmt.Sprintf("solver time: SAT %s, LIA %s, validation %s (rest is exploration + synthesis)\n",
			satTime.Round(time.Millisecond), liaTime.Round(time.Millisecond), valTime.Round(time.Millisecond))
	}
	if encHits+encMisses > 0 { // incremental contexts were in play
		encRate := float64(encHits) / float64(encHits+encMisses)
		meanCore := 0.0
		if cores > 0 {
			meanCore = float64(coreLits) / float64(cores)
		}
		out += fmt.Sprintf("incremental: enc-cache hit rate %.1f%% (%d/%d), clauses %d learned / %d kept / %d deleted, %d cores (mean %.1f conjuncts)\n",
			encRate*100, encHits, encHits+encMisses, learned, kept, deleted, cores, meanCore)
	}
	if validations > 0 {
		out += fmt.Sprintf("self-heal: %d validations (%d failed), %d quarantines, %d fallback solves, %d rebuilds, %d breaker trips\n",
			validations, valFailures, quarantines, fallbacks, rebuilds, trips)
	}
	if shardMax > 0 {
		out += fmt.Sprintf("shards: %d, chunks stolen %d, deaths %d, knowledge imported %d verdicts / %d cores, rejected %d\n",
			shardMax, steals, deaths, impVerdicts, impCores, rejImports)
	}
	if n := hbMissed + hedges + reconnects + degraded; n > 0 {
		out += fmt.Sprintf("resilience: heartbeats missed %d, hedges %d (%d won / %d lost), reconnects %d (%d late joins), degraded starts %d\n",
			hbMissed, hedges, hedgeWins, hedgeLosses, reconnects, lateJoins, degraded)
	}
	if governPolls > 0 { // a memory governor was in play
		out += fmt.Sprintf("memory: %d governor polls (%d soft / %d high / %d critical), cache shrinks %d (%d B freed), contexts retired %d (%d B), spills %d (%d items, %d reloads, %d failures)\n",
			governPolls, rungSoft, rungHigh, rungCritical,
			shrinks, shrinkBytes, retires, retireBytes,
			spills, spilledItems, reloads, spillFails)
		if memStopped > 0 {
			out += fmt.Sprintf("memory-stopped runs: %d (each returned its best-so-far anytime pool)\n", memStopped)
		}
	}
	if frontierPeak > 0 {
		out += fmt.Sprintf("peaks: frontier %d items (%d B), seen set %d entries (%d B), pool %d B\n",
			frontierPeak, frontierPeakB, seenPeak, seenPeakB, poolPeakB)
	}
	return out
}

func summarizeFindings(rows []SubjectResult) string {
	var better, cprTop10, cegisCorrect, ran int
	for _, r := range rows {
		if r.NA || r.Err != nil {
			continue
		}
		ran++
		if r.CPR.ReductionRatio() > r.CEGISStats.ReductionRatio()+0.01 {
			better++
		}
		if r.RankFound && r.Rank <= 10 {
			cprTop10++
		}
		if r.CEGISCorrect {
			cegisCorrect++
		}
	}
	return fmt.Sprintf("summary: %d/%d subjects with strictly better CPR reduction; CPR rank ≤ 10 on %d; CEGIS correct on %d (Findings 1 and 2)\n",
		better, ran, cprTop10, cegisCorrect)
}

// ---- Table 2 ---------------------------------------------------------------

// Table2Row aggregates per project.
type Table2Row struct {
	Project string
	Vulns   int
	// Generated / Correct counts per tool.
	GenProphet, GenAngelix, GenExtractFix, GenCPR     int
	CorrProphet, CorrAngelix, CorrExtractFix, CorrCPR int
}

// Table2 runs the three baseline tools plus CPR over the ExtractFix suite
// and aggregates generated/correct patch counts per project.
func Table2(opts RunOptions) []Table2Row {
	subjects := Catalog(SuiteExtractFix)
	byProject := map[string]*Table2Row{}
	var order []string
	solver := smt.NewSolver(opts.Baselines.SMT)
	for i, s := range subjects {
		row, ok := byProject[s.Project]
		if !ok {
			row = &Table2Row{Project: s.Project}
			byProject[s.Project] = row
			order = append(order, s.Project)
		}
		row.Vulns++
		if s.Unsupported != "" {
			continue
		}
		job, err := s.Job(opts.Budget)
		if err != nil {
			continue
		}
		dev, err := s.DevPatchTerm()
		if err != nil {
			continue
		}
		check := func(res baselines.Result) (bool, bool) {
			if !res.Generated() {
				return false, false
			}
			concrete := res.ConcreteExpr()
			p := patch.New(1, concrete, nil)
			ok, _, err := core.Covers(solver, p, dev, job.InputBounds, 0)
			return true, err == nil && ok
		}
		if res, err := baselines.Prophet(job, opts.Baselines); err == nil {
			g, c := check(res)
			if g {
				row.GenProphet++
			}
			if c {
				row.CorrProphet++
			}
		}
		if res, err := baselines.Angelix(job, opts.Baselines); err == nil {
			g, c := check(res)
			if g {
				row.GenAngelix++
			}
			if c {
				row.CorrAngelix++
			}
		}
		if res, err := baselines.ExtractFix(job, opts.Baselines); err == nil {
			g, c := check(res)
			if g {
				row.GenExtractFix++
			}
			if c {
				row.CorrExtractFix++
			}
		}
		cpr := runCPR(s, opts)
		if cpr.Err == nil && cpr.CPR.PoolFinal > 0 {
			row.GenCPR++
			if cpr.RankFound && cpr.Rank == 1 {
				row.CorrCPR++
			}
		}
		opts.progress("table2 %2d/%d %-28s done", i+1, len(subjects), s.ID())
	}
	rows := make([]Table2Row, 0, len(order))
	for _, p := range order {
		rows = append(rows, *byProject[p])
	}
	return rows
}

// FormatTable2 renders the Table 2 aggregate.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: generated / correct (top-ranked) patches per project\n")
	fmt.Fprintf(&b, "%-12s %4s | %8s %8s %11s %5s | %8s %8s %11s %5s\n",
		"Project", "#Vul", "Prophet", "Angelix", "ExtractFix", "CPR", "Prophet", "Angelix", "ExtractFix", "CPR")
	var tot Table2Row
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %4d | %8d %8d %11d %5d | %8d %8d %11d %5d\n",
			r.Project, r.Vulns,
			r.GenProphet, r.GenAngelix, r.GenExtractFix, r.GenCPR,
			r.CorrProphet, r.CorrAngelix, r.CorrExtractFix, r.CorrCPR)
		tot.Vulns += r.Vulns
		tot.GenProphet += r.GenProphet
		tot.GenAngelix += r.GenAngelix
		tot.GenExtractFix += r.GenExtractFix
		tot.GenCPR += r.GenCPR
		tot.CorrProphet += r.CorrProphet
		tot.CorrAngelix += r.CorrAngelix
		tot.CorrExtractFix += r.CorrExtractFix
		tot.CorrCPR += r.CorrCPR
	}
	fmt.Fprintf(&b, "%-12s %4d | %8d %8d %11d %5d | %8d %8d %11d %5d\n",
		"Total", tot.Vulns,
		tot.GenProphet, tot.GenAngelix, tot.GenExtractFix, tot.GenCPR,
		tot.CorrProphet, tot.CorrAngelix, tot.CorrExtractFix, tot.CorrCPR)
	b.WriteString("(paper totals: generated Prophet 17, Angelix 9, ExtractFix 24; correct 2, 0, 16)\n")
	return b.String()
}

// ---- Tables 5 and 6 ---------------------------------------------------------

// Table5Row is one parameter-range measurement.
type Table5Row struct {
	Subject   *Subject
	Range     [2]int64
	CPR       core.Stats
	Rank      int
	RankFound bool
	Err       error
}

// Table5 reruns the two ablation subjects with parameter ranges [-1,1],
// [-10,10], [-100,100].
func Table5(opts RunOptions) []Table5Row {
	var rows []Table5Row
	subjects := []*Subject{
		Find("Jasper", "CVE-2016-8691"),
		Find("Libtiff", "CVE-2016-10094"),
	}
	ranges := [][2]int64{{-1, 1}, {-10, 10}, {-100, 100}}
	for _, s := range subjects {
		for _, rg := range ranges {
			clone := *s
			clone.ParamRange = interval.New(rg[0], rg[1])
			clone.parsed = false // fresh parse cache
			row := Table5Row{Subject: s, Range: rg}
			r := runCPR(&clone, opts)
			row.CPR, row.Rank, row.RankFound, row.Err = r.CPR, r.Rank, r.RankFound, r.Err
			rows = append(rows, row)
			opts.progress("table5 %s range [%d,%d]: %s", s.ID(), rg[0], rg[1], cprCell(r))
		}
	}
	return rows
}

// FormatTable5 renders the parameter-range ablation.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	b.WriteString("Table 5: impact of the parameter range on repair success\n")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&b, "%-28s [%4d,%4d] error: %v\n", r.Subject.ID(), r.Range[0], r.Range[1], r.Err)
			continue
		}
		rank := "✗"
		if r.RankFound {
			rank = fmt.Sprintf("%d", r.Rank)
		}
		fmt.Fprintf(&b, "%-28s [%4d,%4d] |P| %d→%d %.0f%% φE=%d rank=%s\n",
			r.Subject.ID(), r.Range[0], r.Range[1],
			r.CPR.PInit, r.CPR.PFinal, r.CPR.ReductionRatio()*100, r.CPR.PathsExplored, rank)
	}
	b.WriteString("(paper: Jasper ranks 1 for every range; Libtiff needs the range to contain 4 — rank ✗ at [-1,1], 6 otherwise)\n")
	return b.String()
}

// Table6Row aggregates hit ratios per suite.
type Table6Row struct {
	Benchmark   string
	PatchLocHit float64
	BugLocHit   float64
}

// Table6 computes the average patch/bug-location hit ratios of generated
// inputs per suite from previously measured rows.
func Table6(t1, t3, t4 []SubjectResult) []Table6Row {
	agg := func(name string, rows []SubjectResult) Table6Row {
		var patch, bug, n float64
		for _, r := range rows {
			if r.NA || r.Err != nil || r.CPR.InputsGenerated == 0 {
				continue
			}
			patch += float64(r.CPR.PatchLocHits) / float64(r.CPR.InputsGenerated)
			bug += float64(r.CPR.BugLocHits) / float64(r.CPR.InputsGenerated)
			n++
		}
		if n == 0 {
			return Table6Row{Benchmark: name}
		}
		return Table6Row{Benchmark: name, PatchLocHit: patch / n * 100, BugLocHit: bug / n * 100}
	}
	return []Table6Row{
		agg("ExtractFix", t1),
		agg("ManyBugs", t3),
		agg("SV-COMP", t4),
	}
}

// FormatTable6 renders the hit-ratio table.
func FormatTable6(rows []Table6Row) string {
	var b strings.Builder
	b.WriteString("Table 6: average ratio of generated inputs hitting the patch and bug location\n")
	paper := map[string][2]string{
		"ExtractFix": {"74.36%", "40.23%"},
		"ManyBugs":   {"57.14%", "65.15%"},
		"SV-COMP":    {"76.33%", "79.08%"},
	}
	for _, r := range rows {
		p := paper[r.Benchmark]
		fmt.Fprintf(&b, "%-12s patch-loc %6.2f%% (paper %s)  bug-loc %6.2f%% (paper %s)\n",
			r.Benchmark, r.PatchLocHit, p[0], r.BugLocHit, p[1])
	}
	return b.String()
}

// ---- ablations --------------------------------------------------------------

// AnytimeRow is one budget point of the gradual-correctness sweep.
type AnytimeRow struct {
	Iterations int
	PFinal     int64
	Ratio      float64
}

// Anytime sweeps the iteration budget on one subject, demonstrating the
// paper's gradual-correctness viewpoint: more budget, more reduction.
func Anytime(s *Subject, budgets []int, opts RunOptions) ([]AnytimeRow, error) {
	var rows []AnytimeRow
	for _, it := range budgets {
		o := opts
		o.Budget = core.Budget{MaxIterations: it, ValidationIterations: 8}
		r := runCPR(s, o)
		if r.Err != nil {
			return nil, r.Err
		}
		rows = append(rows, AnytimeRow{Iterations: it, PFinal: r.CPR.PFinal, Ratio: r.CPR.ReductionRatio()})
		opts.progress("anytime %s budget=%d |Pf|=%d", s.ID(), it, r.CPR.PFinal)
	}
	return rows, nil
}

// PathReductionRow compares φE/φS with and without the §3.4 pruning.
type PathReductionRow struct {
	Subject *Subject
	With    core.Stats
	Without core.Stats
}

// PathReductionAblation measures the effect of disabling path reduction.
func PathReductionAblation(subjects []*Subject, opts RunOptions) []PathReductionRow {
	var rows []PathReductionRow
	for _, s := range subjects {
		if s.Unsupported != "" {
			continue
		}
		with := runCPR(s, opts)
		o := opts
		o.Core.DisablePathReduction = true
		without := runCPR(s, o)
		if with.Err != nil || without.Err != nil {
			continue
		}
		rows = append(rows, PathReductionRow{Subject: s, With: with.CPR, Without: without.CPR})
		opts.progress("pathred %s with φS=%d without φS=%d", s.ID(), with.CPR.PathsSkipped, without.CPR.PathsSkipped)
	}
	return rows
}
