package main

import (
	"bytes"
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

// TestInterruptPrintsBestSoFar: SIGINT winds a long -file run down
// cooperatively — cpr prints the interrupted line and the best-so-far pool
// and exits 0. The signal goes out only once the run's first snapshot is
// on disk, after the handler was installed, so the two cannot race.
func TestInterruptPrintsBestSoFar(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "div.c")
	src := "void main(int x, int y) { if (__HOLE__) { return; } __BUG__; int c = 100 / x; int d = c / y; }\n"
	if err := os.WriteFile(prog, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "ckpt")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0],
		"-file", prog,
		"-spec", "(and (distinct x 0) (distinct y 0))",
		"-failing", "x=7,y=0",
		"-budget", "100000",
		"-checkpoint-dir", ckpt,
		"-checkpoint-interval", "1")
	cmd.Env = append(os.Environ(), "CPR_TEST_RUN_MAIN=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	for {
		if snaps, _ := filepath.Glob(filepath.Join(ckpt, "snap-*.ckpt")); len(snaps) > 0 {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("cpr -file wrote no snapshot within 60s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if ctx.Err() != nil {
		t.Fatalf("cpr -file still running 60s after SIGINT\n%s", out.String())
	}
	if err != nil {
		t.Fatalf("cpr -file after SIGINT: %v\n%s", err, out.String())
	}
	for _, want := range []string{"interrupted:", "top patches:", "repaired program:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output after SIGINT lacks %q:\n%s", want, out.String())
		}
	}
}
