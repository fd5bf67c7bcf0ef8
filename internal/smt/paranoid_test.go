package smt

import (
	"testing"

	"cpr/internal/smt/guard"
)

// TestParanoidReachesContextSelfCheck checks that both paranoid switches,
// Guard.Paranoid and the CPR_PARANOID environment variable, make the
// incremental context replay every sat round's model against its clause
// database, and that without them it samples one round in 16.
func TestParanoidReachesContextSelfCheck(t *testing.T) {
	for _, tc := range []struct {
		name, env string
		cfg       guard.Config
		want      int
	}{
		{"sampled", "", guard.Config{}, 1},
		{"guard-config", "", guard.Config{Paranoid: true}, 16},
		{"env", "1", guard.Config{}, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("CPR_PARANOID", tc.env)
			s := NewSolver(Options{Incremental: true, Guard: tc.cfg})
			if got := s.guard.Config().Paranoid; got != (tc.want == 16) {
				t.Fatalf("guard paranoid = %v", got)
			}
			ctx := s.incrementalCtx()
			checked := 0
			for i := 0; i < 16; i++ {
				if ctx.selfCheck() {
					checked++
				}
			}
			if checked != tc.want {
				t.Errorf("context self-checked %d of 16 sat rounds; want %d", checked, tc.want)
			}
		})
	}
}
