package driver

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/problems"
	"repro/internal/sema"
	"repro/internal/synth"
)

// mustLoad runs the front end over src.
func mustLoad(tb testing.TB, name, src string) *ast.Program {
	tb.Helper()
	prog, fail := sema.Load([]byte(src), nil)
	if fail != nil {
		tb.Fatalf("%s: %v", name, fail.Lines(name))
	}
	return prog
}

// TestReportSameBytesEveryPath holds Report to the memo-free report on
// every path a loop's solve can take: a cold run that stores its solves, a
// memo-warm rerun, a shifted copy answered from that memo (sharing its
// entries' values), a disk-warm run, a shifted copy answered from the
// disk-loaded memo and from disk itself, and a run over a damaged cache.
// It covers every examples/*.loop and 8 generated programs with nests
// (§3.6 re-analyses) and repeated bodies (twins within a program), under
// the default specs and StandardSpecs, vectors on and off, and fuel 1.
func TestReportSameBytesEveryPath(t *testing.T) {
	srcs := ValidExamples(t)
	for seed := int64(1); seed <= 8; seed++ {
		prog := synth.MultiLoopProgram(synth.MultiParams{Seed: 700 + seed, Loops: 6, StmtsPer: 8,
			NestEvery: int(seed%3) + 1, DistinctBodies: int(seed%4) + 1})
		srcs = append(srcs, Source{fmt.Sprintf("synth%d", seed), ast.ProgramString(prog)})
	}
	t.Cleanup(ResetCache)
	for _, specs := range [][]*dataflow.Spec{nil, problems.StandardSpecs()} {
		for _, vectors := range []bool{true, false} {
			for _, fuel := range []int64{0, 1} {
				config := fmt.Sprintf("specs=%d vectors=%t fuel=%d", len(specs), vectors, fuel)
				for _, s := range srcs {
					checkReportPaths(t, config+" "+s.Name, s.Src, &Options{
						Specs: specs, NestVectors: vectors, Fuel: fuel, Parallelism: 2})
				}
			}
		}
	}
}

// checkReportPaths runs src and a copy shifted by three lines through every
// cache path under opts (CacheDir is set here) and compares each Report
// with the memo-free one. The memo ignores positions, so the memo-warm
// shifted copy must share the memo-warm run's values.
func checkReportPaths(t *testing.T, label, src string, opts *Options) {
	t.Helper()
	prog := mustLoad(t, label, src)
	shifted := mustLoad(t, label, "\n\n\n"+src)
	free := *opts
	free.DisableCache = true
	ref, err := Analyze(prog, &free)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := ref.Report()

	cached := *opts
	cached.CacheDir = t.TempDir()
	run := func(path string, p *ast.Program, lazy bool) *ProgramAnalysis {
		t.Helper()
		pa, err := Analyze(p, &cached)
		if err != nil {
			t.Fatalf("%s %s: %v", label, path, err)
		}
		if got := pa.Report(); got != want {
			t.Errorf("%s %s: report differs from the memo-free one:\n%s--- want ---\n%s", label, path, got, want)
		}
		// Disk loads hold no graph or rows until something reads the
		// loop's facts, and Report does not.
		for _, la := range pa.Loops {
			restored, wrt := Restored(la)
			for _, r := range wrt {
				restored = restored || r
			}
			if lazy && restored {
				t.Errorf("%s %s: Report restored loop %s", label, path, la.Loop.Var)
			}
		}
		return pa
	}
	ResetCache()
	run("cold", prog, false)
	warm := run("memo-warm", prog, false)
	for k, la := range run("memo-warm twin", shifted, false).Loops {
		if !SameSolves(la, warm.Loops[k]) {
			t.Errorf("%s memo-warm twin: loop %s does not share the memo entry's value", label, la.Loop.Var)
		}
	}
	ResetCache()
	if pa := run("disk-warm", prog, true); pa.Metrics.DiskHits == 0 || pa.Metrics.DiskHits != pa.Metrics.CacheMisses {
		t.Errorf("%s disk-warm: %d of %d memo misses served from disk", label, pa.Metrics.DiskHits, pa.Metrics.CacheMisses)
	}
	run("disk-warm twin", shifted, true)
	ResetCache()
	run("disk-warm shifted", shifted, true)

	files := entryFiles(t, cached.CacheDir)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x10
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ResetCache()
	if pa := run("damaged", prog, false); pa.Metrics.DiskHits != 0 {
		t.Errorf("%s damaged: %d disk hits over flipped entries", label, pa.Metrics.DiskHits)
	}
}
