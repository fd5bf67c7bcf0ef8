package perf

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The machine the benchmark was set up on changes speed by up to 1.6 times
// over minutes, and the runs of a set that fall in a slow spell move
// together (README.md, "Noise"). So an untraced run times a fixed
// calibration kernel every few seconds between jobs (calEvery), and reports
// its time metrics at the machine's nominal speed: each is scaled by how
// much slower than calNominal the kernel ran on average. Timed beside 20
// runs, the kernel tracked the engine's speed at a correlation of
// 0.94–0.98, where an arithmetic loop reached only 0.85–0.89.

// calNominal is the calibration kernel's time, in seconds, on the
// reference machine at its usual speed (README.md, "Baseline").
const calNominal = 0.1

const (
	// calChain is the pointer-chase cycle's length: 16 MiB of int32, far
	// beyond a core's L2, so that other tenants' pressure on the shared
	// cache and memory shows.
	calChain = 1 << 22
	calSteps = 300_000
	calMaps  = 150
	// calRepeats is how many times a child runs the kernel on each
	// goroutine; one timing varies by 17% from the next, and the child
	// reports their median.
	calRepeats = 4
)

// calibEnv names the environment variable that makes a process started by
// calibrate a calibration child: it times the kernel on that many
// goroutines, prints the median timing in seconds and exits.
const calibEnv = "CPR_PERF_CALIBRATE"

// CalibrationChild reports whether this process was started as a
// calibration child, after doing the child's work; a main (or TestMain)
// that re-executes itself for calibration calls it before anything else
// and returns when it is true.
func CalibrationChild() bool {
	v, ok := os.LookupEnv(calibEnv)
	if !ok {
		return false
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		fmt.Fprintf(os.Stderr, "cpr-perf: %s=%q is not a goroutine count\n", calibEnv, v)
		os.Exit(2)
	}
	fmt.Println(strconv.FormatFloat(timeKernel(n), 'g', -1, 64))
	return true
}

// calibrate times the kernel on n goroutines in a child process of this
// executable, waits for it to end and returns its median time in seconds. The
// child shares neither heap nor garbage collector with the workload, so
// the workload's live heap does not change the kernel's time, and the
// kernel's memory does not count in the workload's peak RSS.
func calibrate(n int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), calibEnv+"="+strconv.Itoa(n))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("calibration child: %w", err)
	}
	t, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil || !(t > 0) || math.IsInf(t, 0) {
		return 0, fmt.Errorf("calibration child printed %q", out)
	}
	return t, nil
}

var calSink atomic.Int64

// timeKernel runs the kernel calRepeats times on n goroutines at once, as
// the engine's workers or the daemon's runners use the processors, and
// returns the median timing in seconds.
func timeKernel(n int) float64 {
	chain := newChain(calChain)
	var mu sync.Mutex
	var ts []float64
	for r := 0; r < calRepeats; r++ {
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(start int32) {
				defer wg.Done()
				t0 := time.Now()
				kernel(chain, start)
				d := time.Since(t0).Seconds()
				mu.Lock()
				ts = append(ts, d)
				mu.Unlock()
			}(int32(g * calChain / n))
		}
		wg.Wait()
	}
	return Median(ts)
}

// kernel follows the chain from j, then builds small string-keyed maps of
// slices: memory latency first, then allocation and hashing, the two costs
// that tracked the engine's speed best.
func kernel(chain []int32, j int32) {
	for i := 0; i < calSteps; i++ {
		j = chain[j]
	}
	t := int64(j)
	for r := 0; r < calMaps; r++ {
		m := map[string][]int{}
		for i := 0; i < 2000; i++ {
			k := strconv.Itoa(i * 7919 % 1000)
			m[k] = append(m[k], i)
		}
		t += int64(len(m))
	}
	calSink.Add(t)
}

// newChain returns a permutation of [0, n) that is one cycle (Sattolo's
// algorithm over a fixed xorshift sequence), so that following it visits
// every element in an order the prefetcher cannot guess.
func newChain(n int) []int32 {
	c := make([]int32, n)
	for i := range c {
		c[i] = int32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		c[i], c[j] = c[j], c[i]
	}
	return c
}
