// Benchmarks regenerating every table and figure of the paper (experiment
// IDs E1–E12 per DESIGN.md). Each benchmark measures the cost of the
// corresponding reproduction and asserts its shape once before timing, so
// `go test -bench=. -benchmem` doubles as the full reproduction run.
// cmd/benchrepro prints the same rows as human-readable reports.
package arrayflow_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

	arrayflow "repro"
	"repro/internal/ast"
	"repro/internal/baseline"
	"repro/internal/dataflow"
	"repro/internal/dataflow/reference"
	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/lattice"
	"repro/internal/lint"
	"repro/internal/machine"
	"repro/internal/parser"
	"repro/internal/problems"
	"repro/internal/sema"
	"repro/internal/synth"
	"repro/internal/token"
)

func mustGraph(b *testing.B, src string) *ir.Graph {
	b.Helper()
	prog := arrayflow.MustParse(src)
	loop := prog.Body[0].(*ast.DoLoop)
	g := ir.Build(loop, nil)
	return g
}

// --- E1: Table 1 (i), the initialization pass --------------------------------

func BenchmarkTable1InitPass(b *testing.B) {
	g := mustGraph(b, experiments.Fig1Source)
	// Shape check: init pass rows match the paper.
	res := dataflow.Solve(g, problems.MustReachingDefs(), &dataflow.Options{CollectTrace: true})
	if got := res.InitOut()[1].String(); got != "(T,_,_,_)" {
		b.Fatalf("Table 1 (i) OUT[1] = %s, want (T,_,_,_)", got)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dataflow.Solve(g, problems.MustReachingDefs(), &dataflow.Options{MaxPasses: 1})
	}
}

// --- E2: Table 1 (ii), fixed point in two iteration passes -------------------

func BenchmarkTable1FixedPoint(b *testing.B) {
	g := mustGraph(b, experiments.Fig1Source)
	res := dataflow.Solve(g, problems.MustReachingDefs(), nil)
	if res.ChangedPasses > 2 {
		b.Fatalf("changed passes = %d, want ≤ 2", res.ChangedPasses)
	}
	if got := strings.Split(res.TupleTable(-1), "\n")[1]; got != "IN [1]  (2,1,_,T)" {
		b.Fatalf("fixed point row = %q, want IN [1]  (2,1,_,T)", got)
	}
	spec := problems.MustReachingDefs()
	// The reference sub-benchmark is the ablation baseline: the executable
	// specification the differential tests hold the solver to.
	b.Run("packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dataflow.Solve(g, spec, nil)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reference.Solve(g, spec, nil)
		}
	})
}

// BenchmarkTable1FusedSolve solves all four standard problems on the
// Figure 1 graph through one SolveAll call, sharing class discovery, node
// orderings, and the precedes bitsets across the specs.
func BenchmarkTable1FusedSolve(b *testing.B) {
	g := mustGraph(b, experiments.Fig1Source)
	specs := problems.StandardSpecs()
	b.Run("packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dataflow.SolveAll(g, specs, nil)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reference.SolveAll(g, specs, nil)
		}
	})
}

// --- E3: Figure 1/3, flow graph construction + reuse conclusions -------------

func BenchmarkFig3ReuseDetection(b *testing.B) {
	r := experiments.Fig3()
	if len(r.Reuses) != 5 {
		b.Fatalf("reuses = %d, want 5", len(r.Reuses))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := mustGraphQuiet(experiments.Fig1Source)
		res := dataflow.Solve(g, problems.MustReachingDefs(), nil)
		if len(problems.FindReuses(res)) != 5 {
			b.Fatal("reuse count changed")
		}
	}
}

func mustGraphQuiet(src string) *ir.Graph {
	prog := arrayflow.MustParse(src)
	loop := prog.Body[0].(*ast.DoLoop)
	g := ir.Build(loop, nil)
	return g
}

// --- E4: Figure 2, the chain lattice -----------------------------------------

func BenchmarkFig2LatticeOps(b *testing.B) {
	xs := []lattice.Dist{lattice.None(), lattice.D(0), lattice.D(3), lattice.D(17), lattice.All()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc lattice.Dist = lattice.All()
		for _, x := range xs {
			acc = lattice.Min(acc, lattice.Max(x, lattice.D(0)).Inc())
		}
		if acc.IsNone() {
			b.Fatal("unexpected bottom")
		}
	}
}

// --- E5: Figure 4, multi-dimensional recurrences ------------------------------

func BenchmarkFig4MultiDim(b *testing.B) {
	r, err := experiments.Fig4()
	if err != nil {
		b.Fatal(err)
	}
	exclusive := 0
	for _, rec := range r.Recurrences {
		if !rec.FoundBySingleLoop {
			exclusive++
		}
	}
	if exclusive != 1 {
		b.Fatalf("extension-exclusive recurrences = %d, want 1 (Z)", exclusive)
	}
	prog := arrayflow.MustParse(experiments.Fig4Source)
	outer := prog.Body[0].(*ast.DoLoop)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arrayflow.NestRecurrences(outer, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: Figure 5, register pipelining ----------------------------------------

func BenchmarkFig5RegisterPipeline(b *testing.B) {
	r, err := experiments.Fig5()
	if err != nil {
		b.Fatal(err)
	}
	if !r.Equal || r.Pipelined.Loads["A"] != 2 || r.Conventional.Loads["A"] != 1000 {
		b.Fatalf("Figure 5 shape wrong: equal=%v loads=%d/%d",
			r.Equal, r.Conventional.Loads["A"], r.Pipelined.Loads["A"])
	}
	b.ReportMetric(float64(r.Conventional.Cycles), "cycles-conventional")
	b.ReportMetric(float64(r.Pipelined.Cycles), "cycles-pipelined")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6b: §4.1.4 unroll-by-depth removes pipeline shifts -----------------------

func BenchmarkFig5UnrollByDepth(b *testing.B) {
	r, err := experiments.Fig5Unrolled()
	if err != nil {
		b.Fatal(err)
	}
	if !r.Equal {
		b.Fatal("semantics diverge")
	}
	b.ReportMetric(r.MovesPerIterPipelined, "moves/iter-pipelined")
	b.ReportMetric(r.MovesPerIterUnrolled, "moves/iter-unrolled")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5Unrolled(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: Figure 6, redundant store elimination ---------------------------------

func BenchmarkFig6StoreElimination(b *testing.B) {
	r, err := experiments.Fig6()
	if err != nil {
		b.Fatal(err)
	}
	if !r.SemanticsOK || r.StoresBefore != 2000 || r.StoresAfter != 1001 {
		b.Fatalf("Figure 6 shape wrong: %+v", r)
	}
	b.ReportMetric(float64(r.StoresBefore), "stores-before")
	b.ReportMetric(float64(r.StoresAfter), "stores-after")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: Figure 7, redundant load elimination ----------------------------------

func BenchmarkFig7LoadElimination(b *testing.B) {
	r, err := experiments.Fig7()
	if err != nil {
		b.Fatal(err)
	}
	if !r.SemanticsOK || r.LoadsAfter > 2 || r.LoadsBefore < 900 {
		b.Fatalf("Figure 7 shape wrong: %+v", r)
	}
	b.ReportMetric(float64(r.LoadsBefore), "loads-before")
	b.ReportMetric(float64(r.LoadsAfter), "loads-after")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: convergence within 3 passes (must) / 2 passes (may) -------------------

func BenchmarkConvergencePasses(b *testing.B) {
	for _, n := range []int{10, 50, 250, 1000} {
		b.Run(fmt.Sprintf("stmts=%d", n), func(b *testing.B) {
			prog := synth.Loop(synth.Params{Seed: int64(n), Stmts: n, Arrays: 4, MaxDist: 5, CondProb: 0.3})
			loop := prog.Body[0].(*ast.DoLoop)
			g := ir.Build(loop, nil)
			res := dataflow.Solve(g, problems.MustReachingDefs(), nil)
			if res.ChangedPasses > 2 {
				b.Fatalf("changed passes = %d > 2", res.ChangedPasses)
			}
			b.ReportMetric(float64(res.ChangedPasses), "changing-passes")
			b.ReportMetric(float64(res.NodeVisits)/float64(len(g.Nodes)), "visits/node")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dataflow.Solve(g, problems.MustReachingDefs(), nil)
			}
		})
	}
}

// --- E10: framework vs. Rau-style baseline --------------------------------------

func BenchmarkVsRauBaseline(b *testing.B) {
	for _, d := range []int64{4, 16, 64} {
		prog := synth.KilledRecurrenceLoop(d, 0)
		loop := prog.Body[0].(*ast.DoLoop)
		g := ir.Build(loop, nil)
		b.Run(fmt.Sprintf("framework/d=%d", d), func(b *testing.B) {
			res := dataflow.Solve(g, problems.MustReachingDefs(), nil)
			b.ReportMetric(float64(res.ChangedPasses), "passes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dataflow.Solve(g, problems.MustReachingDefs(), nil)
			}
		})
		b.Run(fmt.Sprintf("baseline/d=%d", d), func(b *testing.B) {
			res := baseline.MustReachingDefs(g, &baseline.Options{Limit: 2 * d})
			if !res.Converged {
				b.Fatal("baseline did not converge")
			}
			b.ReportMetric(float64(res.Passes), "passes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				baseline.MustReachingDefs(g, &baseline.Options{Limit: 2 * d})
			}
		})
	}
}

// --- E11: linear scaling in loop size --------------------------------------------

func BenchmarkScalingLinear(b *testing.B) {
	// Fixed number of tracked classes (4 arrays × bounded offsets): solver
	// time grows linearly with the statement count, matching the paper's
	// 3·N node-visit bound.
	for _, n := range []int{32, 128, 512, 2048} {
		prog := synth.Loop(synth.Params{Seed: 1, Stmts: n, Arrays: 4, MaxDist: 5, CondProb: 0.2})
		loop := prog.Body[0].(*ast.DoLoop)
		g := ir.Build(loop, nil)
		benchSolvers(b, fmt.Sprintf("bounded-classes/stmts=%d", n), g, problems.MustReachingDefs())
	}
	// Classes growing with N (every statement its own array): the dense
	// IN/OUT sets are O(N·m) = O(N²), the paper's space statement, but each
	// class changes at its own statement only, so the solver's walk and its
	// change points grow linearly (the reference oracle's rows do not).
	for _, n := range []int{32, 128, 512, 2048} {
		prog := synth.WideLoop(n, 0)
		loop := prog.Body[0].(*ast.DoLoop)
		g := ir.Build(loop, nil)
		benchSolvers(b, fmt.Sprintf("growing-classes/stmts=%d", n), g, problems.MustReachingDefs())
	}
}

// benchSolvers runs the solver as <prefix>/packed and the reference oracle
// as <prefix>/reference, the ablation baseline. "packed" is the historical
// name of the production solver's row, from when it iterated word-packed
// rows; the rows keep it so BENCH_PR4.json's gate compares the same rows.
func benchSolvers(b *testing.B, prefix string, g *ir.Graph, spec *dataflow.Spec) {
	b.Run(prefix+"/packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dataflow.Solve(g, spec, nil)
		}
	})
	b.Run(prefix+"/reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reference.Solve(g, spec, nil)
		}
	})
}

// --- E12: controlled unrolling predictions ----------------------------------------

func BenchmarkControlledUnrolling(b *testing.B) {
	rows := experiments.Unrolling()
	for _, r := range rows {
		if r.L2 < r.L || r.L2 > 2*r.L {
			b.Fatalf("paper bound violated: %+v", r)
		}
	}
	progs := []*ast.Program{
		arrayflow.MustParse("do i = 1, 100\n A[i+2] := A[i] + x\nenddo"),
		arrayflow.MustParse("do i = 1, 100\n A[i+1] := A[i] + x\nenddo"),
		synth.ChainLoop(4, 1, 100),
		synth.WideLoop(6, 100),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := arrayflow.ControlledUnroll(p, 0, 1.2, 4); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- E13: parallel memoizing whole-program driver ------------------------------
//
// The driver schedules loops of equal nesting depth across a worker pool
// (wave-by-wave, innermost first) and memoizes identical loop bodies in a
// content-addressed cache. On a ≥ 4-core machine the parallel schedule is
// expected to finish the 32-loop program ≥ 2× faster than the serial one;
// both produce byte-identical output (asserted before timing).

func driverBenchProgram() *ast.Program {
	return synth.MultiLoopProgram(synth.MultiParams{Seed: 13, Loops: 32, StmtsPer: 48, NestEvery: 4})
}

func BenchmarkDriverSerialVsParallel(b *testing.B) {
	prog := driverBenchProgram()
	serialOpts := &driver.Options{Parallelism: 1, DisableCache: true}
	parallelOpts := &driver.Options{DisableCache: true}
	s, err := driver.Analyze(prog, serialOpts)
	if err != nil {
		b.Fatal(err)
	}
	p, err := driver.Analyze(prog, parallelOpts)
	if err != nil {
		b.Fatal(err)
	}
	if s.Report() != p.Report() {
		b.Fatal("serial and parallel schedules diverged")
	}
	b.ReportMetric(float64(p.Metrics.Parallelism), "workers")
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := driver.Analyze(prog, serialOpts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := driver.Analyze(prog, parallelOpts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDriverMemoization(b *testing.B) {
	// 32 loops drawn from 4 distinct bodies: the warm cache serves 28+ of
	// the solves per call without touching the solver.
	prog := synth.MultiLoopProgram(synth.MultiParams{Seed: 29, Loops: 32, StmtsPer: 48, DistinctBodies: 4})
	cold := &driver.Options{DisableCache: true}
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := driver.Analyze(prog, cold); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memoized", func(b *testing.B) {
		driver.ResetCache()
		pa, err := driver.Analyze(prog, nil) // warm the cache
		if err != nil {
			b.Fatal(err)
		}
		if pa.Metrics.CacheHits == 0 {
			b.Fatal("expected warm-up hits on repeated bodies")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := driver.Analyze(prog, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Front end: lex + parse + sema in isolation -------------------------------

// BenchmarkFrontEnd isolates the zero-copy front end (lexer, parser,
// semantic checks) from the solver: the cost of getting a large program
// from source bytes to a checked AST. The shared-interner variant models
// the batch pipeline, where one intern table serves many programs. The
// normalize variant times the last front-end stage alone: sema.Normalize
// of the parsed, checked program. The wide variant runs all three stages
// on batch-cold's growing-class shape, a 768-statement loop whose every
// statement stores its own array.
func BenchmarkFrontEnd(b *testing.B) {
	src := []byte(ast.ProgramString(driverBenchProgram()))
	prog, err := parser.ParseBytes(src, nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sema.Check(prog); err != nil {
		b.Fatal(err)
	}
	b.Run("fresh-interner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := parser.ParseBytes(src, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sema.Check(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared-interner", func(b *testing.B) {
		in := token.NewInterner()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := parser.ParseBytes(src, in)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sema.Check(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("normalize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sema.Normalize(prog); err != nil {
				b.Fatal(err)
			}
		}
	})
	wide := []byte(ast.ProgramString(synth.WideLoop(768, 0)))
	b.Run("wide", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := parser.ParseBytes(wide, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sema.Check(p); err != nil {
				b.Fatal(err)
			}
			if _, err := sema.Normalize(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestFrontEndAllocBudget holds parsing and normalization to allocating
// per chunk, not per node (see ast.Alloc): on BenchmarkFrontEnd's program
// each makes at most a fifth of the allocations it made when every node
// was its own heap object. Allocation counts are deterministic, so the
// budget holds on any machine.
func TestFrontEndAllocBudget(t *testing.T) {
	const perNodeParse, perNodeNormalize = 24026, 27085
	src := []byte(ast.ProgramString(driverBenchProgram()))
	prog, err := parser.ParseBytes(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	parse := testing.AllocsPerRun(5, func() {
		if _, err := parser.ParseBytes(src, nil); err != nil {
			t.Fatal(err)
		}
	})
	norm := testing.AllocsPerRun(5, func() {
		if _, err := sema.Normalize(prog); err != nil {
			t.Fatal(err)
		}
	})
	if parse > perNodeParse/5 {
		t.Errorf("parsing made %.0f allocations, budget %d", parse, perNodeParse/5)
	}
	if norm > perNodeNormalize/5 {
		t.Errorf("normalizing made %.0f allocations, budget %d", norm, perNodeNormalize/5)
	}
}

// --- Batch: many programs through one worker pool ------------------------------

// BenchmarkAnalyzeBatch measures the cold path over N distinct programs:
// the batched API (one worker pool, shared cache machinery) against a loop
// of standalone Analyze calls.
func BenchmarkAnalyzeBatch(b *testing.B) {
	progs := make([]*ast.Program, 16)
	for i := range progs {
		progs[i] = synth.MultiLoopProgram(synth.MultiParams{
			Seed: int64(100 + i), Loops: 8, StmtsPer: 24, NestEvery: 3})
	}
	cold := &driver.Options{DisableCache: true}
	for _, r := range driver.AnalyzeBatch(progs, cold) {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range driver.AnalyzeBatch(progs, cold) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
	b.Run("analyze-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range progs {
				if _, err := driver.Analyze(p, cold); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkWarmStart measures the same 16-program AnalyzeBatch workload at
// the three cache temperatures a deployment sees: cold (fresh process, no
// persistent cache), disk-warm (fresh process, persistent cache populated
// by a previous run — the warm-restart path), and memory-warm (long-lived
// process, memo cache resident). Disk-warm analysis decodes only the
// checksummed containers, solver counters and stored reuse lines,
// deferring graph rebuilds and row decodes until a loop's facts are read.
// The -report variants also render every report, which reads only the
// counters and the stored lines, so a disk-warm report restores nothing.
// scripts/bench.sh gates disk-warm at ≤ 0.5× cold and disk-warm-report at
// ≤ 0.5× cold-report.
func BenchmarkWarmStart(b *testing.B) {
	progs := make([]*ast.Program, 16)
	for i := range progs {
		progs[i] = synth.MultiLoopProgram(synth.MultiParams{
			Seed: int64(100 + i), Loops: 8, StmtsPer: 24, NestEvery: 3})
	}
	run := func(b *testing.B, opts *driver.Options, restart, report bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if restart {
				driver.ResetCache()
			}
			for _, r := range driver.AnalyzeBatch(progs, opts) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
				if report && len(r.Analysis.Report()) == 0 {
					b.Fatal("empty report")
				}
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		run(b, &driver.Options{}, true, false)
	})
	warm := func(report bool) func(b *testing.B) {
		return func(b *testing.B) {
			opts := &driver.Options{CacheDir: b.TempDir()}
			driver.ResetCache()
			for _, r := range driver.AnalyzeBatch(progs, opts) { // populate the disk cache
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
			b.ResetTimer()
			run(b, opts, true, report)
		}
	}
	b.Run("disk-warm", warm(false))
	// The report variants render every report: the cold point renders
	// from its fresh solves, the disk-warm point from the reuse lines its
	// entries store, without the deferred restore (graph rebuild + row
	// decode).
	b.Run("cold-report", func(b *testing.B) {
		run(b, &driver.Options{}, true, true)
	})
	b.Run("disk-warm-report", warm(true))
	b.Run("memory-warm", func(b *testing.B) {
		opts := &driver.Options{}
		driver.ResetCache()
		for _, r := range driver.AnalyzeBatch(progs, opts) { // populate the memo
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		b.ResetTimer()
		run(b, opts, false, false)
	})
}

// BenchmarkDiff measures incremental re-analysis after a 1-of-16-loops
// edit. Each timed iteration starts from a memo warmed only by the old
// version (the untimed prologue simulates the previous run), so
// DiffPrograms pays fingerprinting plus exactly one solve — asserted on
// driver.Metrics every iteration. The full-reanalysis point is the
// non-incremental comparator: the same edit paid as 16 cold solves.
func BenchmarkDiff(b *testing.B) {
	diffSrc := func(n, edited int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			v := string(rune('a' + i))
			sb.WriteString("do " + v + " = 1, 100\n")
			if i == edited {
				sb.WriteString("  A" + v + "[" + v + "+2] := A" + v + "[" + v + "] + A" + v + "[" + v + "-1]\n")
			} else {
				sb.WriteString("  A" + v + "[" + v + "+1] := A" + v + "[" + v + "] + " + v + "\n")
			}
			sb.WriteString("enddo\n")
		}
		return sb.String()
	}
	const n = 16
	oldProg := parser.MustParse(diffSrc(n, -1))
	newProg := parser.MustParse(diffSrc(n, 7))
	opts := &driver.Options{Parallelism: 1}

	b.Run("1-of-16-edited", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			driver.ResetCache()
			if _, err := driver.Analyze(oldProg, opts); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			d, err := driver.DiffPrograms(
				[]*ast.Program{oldProg}, []*ast.Program{newProg}, opts)
			if err != nil {
				b.Fatal(err)
			}
			if d.Changed != 1 || d.NewMetrics.CacheMisses != 1 {
				b.Fatalf("changed %d, re-solved %d loops, want 1 and 1", d.Changed, d.NewMetrics.CacheMisses)
			}
		}
	})
	b.Run("full-reanalysis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			driver.ResetCache()
			b.StartTimer()
			if _, err := driver.Analyze(newProg, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Vet: the static analysis layer over the memoizing driver ----------------

func BenchmarkVet(b *testing.B) {
	// 24 loops drawn from 4 distinct bodies: the memoized run serves most
	// solves from the cache, isolating the analyzers' own cost; the
	// uncached run measures the full solve-plus-analyze pipeline. The
	// driver metrics embedded in the result expose the split. The
	// constant-nests run is a memoized vet of two 100×100 constant-trip
	// nests, where the race analyzer's interpreter runs and final-state
	// comparisons do most of the work.
	prog := synth.MultiLoopProgram(synth.MultiParams{Seed: 41, Loops: 24, StmtsPer: 32, DistinctBodies: 4})
	src := ast.ProgramString(prog)
	const nests = "do j = 1, 100\n  do i = 1, 100\n    A[i, j] := A[i, j] + B[i, j]\n  enddo\nenddo\n" +
		"do j = 1, 100\n  do i = 1, 100\n    C[i, j] := C[i, j] * 2\n  enddo\nenddo\n"
	run := func(b *testing.B, src string, disableCache bool) {
		var hits, misses, analysisNS int64
		for i := 0; i < b.N; i++ {
			res := arrayflow.Vet("bench.loop", src, &arrayflow.LintOptions{DisableCache: disableCache})
			if res.Analysis == nil {
				b.Fatalf("front end rejected the benchmark program: %v", res.Findings)
			}
			m := res.Analysis.Metrics
			hits += int64(m.CacheHits)
			misses += int64(m.CacheMisses)
			analysisNS += int64(m.Elapsed)
		}
		b.ReportMetric(float64(hits)/float64(b.N), "cachehits/op")
		b.ReportMetric(float64(misses)/float64(b.N), "cachemisses/op")
		b.ReportMetric(float64(analysisNS)/float64(b.N)/1e6, "analysis-ms/op")
	}
	memoized := func(b *testing.B, src string) {
		driver.ResetCache()
		if res := arrayflow.Vet("bench.loop", src, nil); res.Analysis == nil {
			b.Fatal("warm-up vet failed")
		}
		b.ResetTimer()
		run(b, src, false)
	}
	b.Run("uncached", func(b *testing.B) { run(b, src, true) })
	b.Run("memoized", func(b *testing.B) { memoized(b, src) })
	b.Run("constant-nests", func(b *testing.B) { memoized(b, nests) })
}

// BenchmarkRender times the three vet writers alone over the findings of
// an 8-loop program (304 of them, about what one program of perfbench's
// vet-serve corpus yields). Each writer makes one pass into one pre-sized
// buffer, so allocs/op does not grow with the findings.
func BenchmarkRender(b *testing.B) {
	prog := synth.MultiLoopProgram(synth.MultiParams{Seed: 41, Loops: 8, StmtsPer: 8, DistinctBodies: 4})
	res := arrayflow.Vet("bench.loop", ast.ProgramString(prog), &arrayflow.LintOptions{DisableCache: true})
	if res.Analysis == nil {
		b.Fatalf("front end rejected the synthetic program: %v", res.Findings)
	}
	rules := lint.RuleMetas()
	for _, c := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"text", func(w io.Writer) error { return diag.WriteText(w, "bench.loop", res.Findings) }},
		{"json", func(w io.Writer) error { return diag.WriteJSON(w, "bench.loop", res.Findings) }},
		{"sarif", func(w io.Writer) error { return diag.WriteSARIF(w, "bench.loop", rules, res.Findings) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var n countingWriter
			for i := 0; i < b.N; i++ {
				if err := c.write(&n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Findings)), "findings")
			b.ReportMetric(float64(n)/float64(b.N)/1e3, "kB/op")
		})
	}
}

// countingWriter counts the bytes written to it and keeps none.
type countingWriter int

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}

// --- Ablation: initialization pass (DESIGN.md §5.2) -------------------------------

func BenchmarkAblationInitPass(b *testing.B) {
	g := mustGraph(b, experiments.Fig1Source)
	b.Run("with-init", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dataflow.Solve(g, problems.MustReachingDefs(), nil)
		}
	})
	b.Run("without-init-unsound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dataflow.Solve(g, problems.MustReachingDefs(), &dataflow.Options{SkipInitPass: true})
		}
	})
}

// --- Ablation: §4.1.4 hardware pipeline progression ----------------------------
//
// The Cydra 5's iteration control pointer performs the pipeline shift as a
// register-window update at no per-iteration instruction cost. Model it by
// zeroing the move cost on the pipelined code and compare.

func BenchmarkAblationHardwareShifts(b *testing.B) {
	prog := arrayflow.MustParse(experiments.Fig5Source)
	loop := prog.Body[0].(*ast.DoLoop)
	g := ir.Build(loop, nil)
	alloc := arrayflow.AllocateRegisters(g, 16)
	hooks, err := alloc.GenOptions()
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := arrayflow.Compile(prog, hooks)
	if err != nil {
		b.Fatal(err)
	}
	run := func(moveCost int64) int64 {
		mem := machine.NewMemory()
		res, err := machine.Run(pipe, mem, &machine.Options{
			Costs:    machine.Costs{Load: 4, Store: 4, ALU: 1, Mul: 4, Move: moveCost, Branch: 1},
			InitRegs: map[string]int64{"X": 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.Cycles
	}
	soft := run(1)
	hard := run(0)
	if hard >= soft {
		b.Fatalf("hardware shifts must be cheaper: %d vs %d", hard, soft)
	}
	b.ReportMetric(float64(soft), "cycles-software-shift")
	b.ReportMetric(float64(hard), "cycles-hardware-shift")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(0)
	}
}

// --- Ablation: UB clamping ---------------------------------------------------------

func BenchmarkAblationUBClamp(b *testing.B) {
	known := mustGraph(b, "do i = 1, 1000\n A[i+2] := A[i] + x\nenddo")
	symbolic := mustGraph(b, "do i = 1, N\n A[i+2] := A[i] + x\nenddo")
	b.Run("constant-bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dataflow.Solve(known, problems.MustReachingDefs(), nil)
		}
	})
	b.Run("symbolic-bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dataflow.Solve(symbolic, problems.MustReachingDefs(), nil)
		}
	})
}
