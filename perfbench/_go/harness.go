package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile, so a tail is never read off a handful of ops.
const minTail = 10

// quantile returns the nearest-rank q-quantile of xs. It refuses when fewer
// than minTail samples lie beyond the rank: p90 needs at least 100 samples.
func quantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minTail, n-rank, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value (mean of the middle two); callers pass a
// non-empty slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	wall       time.Time
	cpu        time.Duration // user + sys
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	gcCPU      float64 // seconds, runtime estimate
	busyCPU    float64 // seconds the runtime counts as not idle
}

var usageMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readUsage() usage {
	s := make([]metrics.Sample, len(usageMetrics))
	for i, name := range usageMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail on Linux; a zero CPU reading
	// would show as an implausible metric rather than pass silently.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return usage{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		busyCPU:    s[4].Value.Float64() - s[5].Value.Float64(),
	}
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %q: %v", line, err)
		}
		return kb * 1024 / 1e6, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// loopResult is the outcome of one closed-loop phase.
type loopResult struct {
	latMS  []float64 // latency of every op attempted, failed ones included
	failed int
	before usage
	after  usage
}

// closedLoop runs callers goroutines, each issuing its next op only after
// the previous one completed, until d has passed. op(c, j) runs caller c's
// j-th op and returns its latency, with an error when the op failed or its
// output differed from the reference.
func closedLoop(callers int, d time.Duration, fails *failures, op func(c, j int) (time.Duration, error)) loopResult {
	lat := make([][]float64, callers)
	errs := make([]int, callers)
	res := loopResult{before: readUsage()}
	deadline := res.before.wall.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; time.Now().Before(deadline); j++ {
				dur, err := op(c, j)
				lat[c] = append(lat[c], float64(dur.Nanoseconds())/1e6)
				if err != nil {
					errs[c]++
					fails.record(fmt.Sprintf("caller %d op %d", c, j), err)
				}
			}
		}()
	}
	wg.Wait()
	res.after = readUsage()
	for c := range lat {
		res.latMS = append(res.latMS, lat[c]...)
		res.failed += errs[c]
	}
	return res
}

// failures counts failed ops and writes the first one's diff to a file.
type failures struct {
	mu    sync.Mutex
	path  string // where the first failure goes
	count int
}

func (f *failures) record(what string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	if f.count > 1 {
		return
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s failed: %s (details in %s)\n", what, firstLine(err.Error()), f.path)
	if mkErr := os.MkdirAll(filepath.Dir(f.path), 0o755); mkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", mkErr)
		return
	}
	if wErr := os.WriteFile(f.path, []byte(what+": "+err.Error()+"\n"), 0o644); wErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", wErr)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// mismatch describes how got differs from want: the first differing line
// with a little context, which is what a reader needs to start debugging.
type mismatch struct {
	what      string
	want, got string
}

func (m *mismatch) Error() string {
	wl, gl := strings.Split(m.want, "\n"), strings.Split(m.got, "\n")
	i := 0
	for i < len(wl) && i < len(gl) && wl[i] == gl[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return strconv.Quote(ls[i])
		}
		return "<end of output>"
	}
	return fmt.Sprintf("%s differs from the reference at line %d (want %d bytes, got %d)\n--- want\n%s\n+++ got\n%s",
		m.what, i+1, len(m.want), len(m.got), line(wl), line(gl))
}

// same returns a *mismatch error unless got equals want byte for byte.
func same(what, want, got string) error {
	if want == got {
		return nil
	}
	return &mismatch{what: what, want: want, got: got}
}
