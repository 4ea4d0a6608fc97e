package driver

import (
	"strings"
	"testing"

	"repro/internal/synth"
)

// TestReportAllocsBounded pins that the pre-sized builders keep rendering
// costs linear and small: allocations per Report call stay within a
// constant factor of the line count (formatting boxes its operands; what
// this test rules out is per-call builder regrowth, which scales with
// output size, not line count).
func TestReportAllocsBounded(t *testing.T) {
	ResetCache()
	prog := synth.MultiLoopProgram(synth.MultiParams{
		Seed: 13, Loops: 32, StmtsPer: 24, NestEvery: 4})
	pa, err := Analyze(prog, &Options{NestVectors: true})
	if err != nil {
		t.Fatal(err)
	}

	check := func(name, out string, allocs float64) {
		lines := strings.Count(out, "\n") + 1
		// ~8 allocs/line is the current cost, nearly all of it in the
		// nest-vector lines (nest.Recurrence.String formats through fmt):
		// reuse lines render in place without allocating. 10 leaves
		// headroom and still fails if the reuse loop formats its lines
		// through fmt (~10.5 allocs/line); TestReuseRenderingFmtFree pins
		// the reuse rendering itself.
		cap := float64(10*lines + 16)
		if allocs > cap {
			t.Errorf("%s: %.0f allocs for %d lines, want ≤ %.0f", name, allocs, lines, cap)
		}
	}
	check("ProgramAnalysis.Report", pa.Report(),
		testing.AllocsPerRun(20, func() { pa.Report() }))
	check("Metrics.Report", pa.Metrics.Report(),
		testing.AllocsPerRun(20, func() { pa.Metrics.Report() }))
}
