package bench

import (
	"strings"
	"testing"

	"cpr/internal/faultinject"
)

// TestSelfHealCountersReachTables proves the health plumbing end to end
// through the cpr-bench reporting path: with the solver forced to lie on
// every verdict, the per-subject stats must carry nonzero quarantine and
// fallback counters, the table summary must print the self-heal line, and
// the JSON rows must serialize the same numbers.
func TestSelfHealCountersReachTables(t *testing.T) {
	if testing.Short() {
		t.Skip("table run in -short mode")
	}
	faultinject.Activate(&faultinject.Plan{LieEvery: 1, LieKind: faultinject.SolverSpuriousUnsat})
	defer faultinject.Deactivate()

	opts := RunOptions{Budget: fastBudget}
	opts.Core.Workers = 1
	opts.Core.SMT.Incremental = true
	opts.Core.SMT.Guard.Paranoid = true

	s := Catalog(SuiteSVCOMP)[0]
	row := runCPR(s, opts)
	if row.Err != nil {
		t.Fatalf("%s under lying solver: %v", s.ID(), row.Err)
	}
	st := row.CPR
	if st.Validations == 0 || st.ValidationFailures == 0 {
		t.Fatalf("validation counters missing: %+v", st)
	}
	if st.Quarantines == 0 && st.FallbackSolves == 0 {
		t.Fatalf("ladder engaged but quarantine/fallback counters are zero: %+v", st)
	}

	out := solverSummary([]SubjectResult{row})
	if !strings.Contains(out, "self-heal:") {
		t.Errorf("table summary lacks the self-heal line:\n%s", out)
	}

	rows := JSONRows([]SubjectResult{row})
	if rows[0].Validations != st.Validations ||
		rows[0].Quarantines != st.Quarantines ||
		rows[0].FallbackSolves != st.FallbackSolves {
		t.Errorf("JSON row dropped health counters: %+v", rows[0])
	}
}
