package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs the test binary as cprd itself when CPRD_TEST_RUN_MAIN=1,
// so tests can drive the real command line in a subprocess.
func TestMain(m *testing.M) {
	if os.Getenv("CPRD_TEST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNegativeCountFlagsRejected: a negative runner count, engine worker
// count, queue bound, tenant quota, tenant running bound, burst or
// checkpoint interval is a usage error — cprd exits 2 naming the flag
// instead of starting a daemon that never runs a job, refuses every
// submit, or silently runs the engine's default in its place.
func TestNegativeCountFlagsRejected(t *testing.T) {
	for _, flagName := range []string{"runners", "engine-workers", "tenant-running", "queue-max", "tenant-max", "burst", "checkpoint-interval"} {
		t.Run(flagName, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0],
				"-state", t.TempDir(), "-addr", "127.0.0.1:0", "-"+flagName, "-1")
			cmd.Env = append(os.Environ(), "CPRD_TEST_RUN_MAIN=1")
			out, err := cmd.CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("cprd -%s -1 was still running after 10s instead of exiting\n%s", flagName, out)
			}
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Fatalf("cprd -%s -1: err %v, want exit status 2\n%s", flagName, err, out)
			}
			if !strings.Contains(string(out), "-"+flagName+" ") {
				t.Fatalf("cprd -%s -1: message does not name the flag:\n%s", flagName, out)
			}
		})
	}
}
