package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain runs the test binary as cpr itself when CPR_TEST_RUN_MAIN=1, so
// tests can drive the real command line in a subprocess.
func TestMain(m *testing.M) {
	if os.Getenv("CPR_TEST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFileModeHonoursTimeout: -file mode stops at -timeout like -subject
// mode, even when the iteration budget would keep it running for minutes.
func TestFileModeHonoursTimeout(t *testing.T) {
	prog := filepath.Join(t.TempDir(), "div.c")
	src := "void main(int x, int y) { if (__HOLE__) { return; } __BUG__; int c = 100 / x; int d = c / y; }\n"
	if err := os.WriteFile(prog, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0],
		"-file", prog,
		"-spec", "(and (distinct x 0) (distinct y 0))",
		"-failing", "x=7,y=0",
		"-budget", "100000",
		"-timeout", "200ms")
	cmd.Env = append(os.Environ(), "CPR_TEST_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("cpr -file still running 30s into a 200ms -timeout\n%s", out)
	}
	if err != nil {
		t.Fatalf("cpr -file: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "wall-clock budget expired") {
		t.Fatalf("cpr -file ignored -timeout:\n%s", out)
	}
}
