// Package experiments regenerates every table and figure of the paper's
// exposition (there is no separate machine-measured evaluation section in
// the 1993 paper; Table 1 and Figures 1–7 plus the complexity claims are
// the reproducible artifacts). Each experiment returns structured results
// used three ways: asserted in tests, benchmarked in bench_test.go, and
// printed by cmd/benchrepro. The experiment IDs follow DESIGN.md.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/baseline"
	"repro/internal/dataflow"
	"repro/internal/depend"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/nest"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/problems"
	"repro/internal/regalloc"
	"repro/internal/sema"
	"repro/internal/synth"
	"repro/internal/tac"
	"repro/internal/tacopt"
)

// Fig1Source is the loop of the paper's Figure 1.
const Fig1Source = `
do i = 1, UB
  C[i+2] := C[i] * 2
  B[2*i] := C[i] + X
  if C[i] == 0 then C[i] := B[i-1]
  B[i] := C[i+1]
enddo
`

// Fig4Source is the nest of the paper's Figure 4.
const Fig4Source = `
do j = 1, UB
  do i = 1, UB1
    X[i+1, j] := X[i, j]
    Y[i, j+1] := Y[i, j-1]
    Z[i+1, j] := Z[i, j-1]
  enddo
enddo
`

// Fig5Source is the loop of the paper's Figure 5.
const Fig5Source = `
do i = 1, 1000
  A[i+2] := A[i] + X
enddo
`

// Fig6Source is the loop of the paper's Figure 6 (the condition is made
// concrete; the paper writes "if cond").
const Fig6Source = `
do i = 1, 1000
  A[i] := c + i
  if c > 0 then
    A[i+1] := c * 2
  endif
enddo
`

// Fig7Source is the loop of the paper's Figure 7.
const Fig7Source = `
do i = 1, 1000
  if c > i / 2 then
    y := A[i]
    B[i] := y
  endif
  A[i+1] := c + i
enddo
`

func mustGraph(src string) *ir.Graph {
	prog := parser.MustParse(src)
	loop := prog.Body[0].(*ast.DoLoop)
	g := ir.Build(loop, nil)
	return g
}

// ---------------------------------------------------------------------------
// E1/E2 — Table 1

// Table1Result carries the traced must-reaching-definitions run on Fig. 1.
type Table1Result struct {
	Graph  *ir.Graph
	Res    *dataflow.Result
	Init   string // Table 1 (i)
	Pass1  string // Table 1 (ii), first pass
	Pass2  string // Table 1 (ii), second pass — the fixed point
	Passes int
}

// Table1 reproduces Table 1.
func Table1() *Table1Result {
	g := mustGraph(Fig1Source)
	res := dataflow.Solve(g, problems.MustReachingDefs(), &dataflow.Options{CollectTrace: true})
	return &Table1Result{
		Graph: g, Res: res,
		Init:   res.TupleTable(0),
		Pass1:  res.TupleTable(1),
		Pass2:  res.TupleTable(2),
		Passes: res.Passes,
	}
}

// Report renders the tables side by side.
func (t *Table1Result) Report() string {
	var b strings.Builder
	b.WriteString("== E1: Table 1 (i) — initialization pass ==\n")
	b.WriteString(t.Init)
	b.WriteString("\n== E2: Table 1 (ii) — iteration pass 1 ==\n")
	b.WriteString(t.Pass1)
	b.WriteString("\n== E2: Table 1 (ii) — iteration pass 2 (fixed point) ==\n")
	b.WriteString(t.Pass2)
	fmt.Fprintf(&b, "\npasses until stable: %d (init + 2 changing + 1 confirming)\n", t.Passes+1)
	return b.String()
}

// ---------------------------------------------------------------------------
// E3 — Figure 3 reuse conclusions

// Fig3Result carries the reuse conclusions of §3.5.
type Fig3Result struct {
	Graph  *ir.Graph
	Reuses []problems.Reuse
}

// Fig3 reproduces the graph of Figure 3 and the §3.5 conclusions.
func Fig3() *Fig3Result {
	g := mustGraph(Fig1Source)
	res := dataflow.Solve(g, problems.MustReachingDefs(), nil)
	return &Fig3Result{Graph: g, Reuses: problems.FindReuses(res)}
}

// Report renders the graph and reuses.
func (r *Fig3Result) Report() string {
	var b strings.Builder
	b.WriteString("== E3: Figure 3 loop flow graph ==\n")
	b.WriteString(r.Graph.Dump())
	b.WriteString("guaranteed reuses (§3.5 conclusions):\n")
	for _, ru := range r.Reuses {
		fmt.Fprintf(&b, "  %s\n", ru)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E5 — Figure 4 multi-dimensional recurrences

// Fig4Result carries the §3.6 findings.
type Fig4Result struct {
	Recurrences []nest.Recurrence
}

// Fig4 analyzes the Figure 4 nest with the distance-vector extension.
func Fig4() (*Fig4Result, error) {
	prog := parser.MustParse(Fig4Source)
	outer := prog.Body[0].(*ast.DoLoop)
	rs, err := nest.FindRecurrences(outer, 8)
	if err != nil {
		return nil, err
	}
	return &Fig4Result{Recurrences: rs}, nil
}

// Report renders the recurrences with their discoverability.
func (r *Fig4Result) Report() string {
	var b strings.Builder
	b.WriteString("== E5: Figure 4 recurrences (distance vectors) ==\n")
	for _, rec := range r.Recurrences {
		by := "vector extension ONLY (paper §3.6: single-loop analysis misses it)"
		if rec.FoundBySingleLoop {
			by = "single-loop analysis (§3.6)"
		}
		fmt.Fprintf(&b, "  %-44s found by %s\n", rec.String(), by)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E6 — Figure 5 register pipelining

// Fig5Result compares naive conventional code, locally optimized
// conventional code (constant folding / copy propagation / local redundant
// load elimination — everything a flow-insensitive scalar compiler gets),
// and register-pipelined code. The middle row isolates the paper's
// contribution: local cleanup cannot remove the cross-iteration reload.
type Fig5Result struct {
	Allocation   *regalloc.Allocation
	Conventional *machine.Result
	LocalOpt     *machine.Result
	Pipelined    *machine.Result
	Equal        bool
}

// Fig5 compiles the Figure 5 loop both ways and executes both on the
// abstract machine.
func Fig5() (*Fig5Result, error) {
	prog := parser.MustParse(Fig5Source)
	// The graph must be built from the same AST the code generator walks:
	// pipeline hooks are keyed by reference identity.
	loop := prog.Body[0].(*ast.DoLoop)
	g := ir.Build(loop, nil)
	alloc := regalloc.Allocate(g, &regalloc.Options{K: 16})
	hooks, err := alloc.GenOptions()
	if err != nil {
		return nil, err
	}
	conv, err := tac.Gen(prog, nil)
	if err != nil {
		return nil, err
	}
	localOpt, _ := tacopt.Optimize(conv)
	pipe, err := tac.Gen(prog, hooks)
	if err != nil {
		return nil, err
	}
	memA, memL, memB := machine.NewMemory(), machine.NewMemory(), machine.NewMemory()
	for i := int64(-3); i <= 5; i++ {
		memA.Set("A", i, i*3+1)
		memL.Set("A", i, i*3+1)
		memB.Set("A", i, i*3+1)
	}
	init := map[string]int64{"X": 7}
	resA, err := machine.Run(conv, memA, &machine.Options{InitRegs: init})
	if err != nil {
		return nil, err
	}
	resL, err := machine.Run(localOpt, memL, &machine.Options{InitRegs: init})
	if err != nil {
		return nil, err
	}
	resB, err := machine.Run(pipe, memB, &machine.Options{InitRegs: init})
	if err != nil {
		return nil, err
	}
	return &Fig5Result{
		Allocation:   alloc,
		Conventional: resA,
		LocalOpt:     resL,
		Pipelined:    resB,
		Equal:        memA.Equal(memB) && memA.Equal(memL),
	}, nil
}

// Report renders the comparison.
func (r *Fig5Result) Report() string {
	var b strings.Builder
	b.WriteString("== E6: Figure 5 register pipelining (UB = 1000) ==\n")
	b.WriteString(r.Allocation.Report())
	fmt.Fprintf(&b, "  %-18s %8s %8s %10s\n", "", "loads A", "stores A", "cycles")
	fmt.Fprintf(&b, "  %-18s %8d %8d %10d\n", "conventional",
		r.Conventional.Loads["A"], r.Conventional.Stores["A"], r.Conventional.Cycles)
	fmt.Fprintf(&b, "  %-18s %8d %8d %10d\n", "locally optimized",
		r.LocalOpt.Loads["A"], r.LocalOpt.Stores["A"], r.LocalOpt.Cycles)
	fmt.Fprintf(&b, "  %-18s %8d %8d %10d\n", "pipelined",
		r.Pipelined.Loads["A"], r.Pipelined.Stores["A"], r.Pipelined.Cycles)
	fmt.Fprintf(&b, "  semantics equal: %v\n", r.Equal)
	return b.String()
}

// ---------------------------------------------------------------------------
// E6b — §4.1.4: unrolling by the pipeline depth removes the shift moves

// Fig5UnrolledResult compares the register-move overhead of the plain
// pipeline against the unroll-by-depth variant the paper describes: "Note
// that physically moving values among the stages of the pipeline is not
// necessary if the loop is unrolled depth(l) times."
type Fig5UnrolledResult struct {
	// Pipelined is the §4.1 pipeline on the original loop.
	Pipelined *machine.Result
	// Unrolled is the loop unrolled by the pipeline depth (3), normalized,
	// and scalar-replaced: same zero in-loop loads, fewer shift moves.
	Unrolled *machine.Result
	// MovesPerIterPipelined / MovesPerIterUnrolled are executed register
	// moves divided by the original iteration count.
	MovesPerIterPipelined float64
	MovesPerIterUnrolled  float64
	Equal                 bool
}

// Fig5Unrolled runs the E6b comparison on the Figure 5 loop (UB = 999 so
// the unroll factor divides the trip count evenly).
func Fig5Unrolled() (*Fig5UnrolledResult, error) {
	const src = `
do i = 1, 999
  A[i+2] := A[i] + X
enddo
`
	const iters = 999

	// Variant 1: §4.1 pipeline with shift moves.
	prog1 := parser.MustParse(src)
	loop1 := prog1.Body[0].(*ast.DoLoop)
	g1 := ir.Build(loop1, nil)
	alloc := regalloc.Allocate(g1, &regalloc.Options{K: 16})
	hooks, err := alloc.GenOptions()
	if err != nil {
		return nil, err
	}
	code1, err := tac.Gen(prog1, hooks)
	if err != nil {
		return nil, err
	}

	// Variant 2: unroll by the pipeline depth, normalize, scalar-replace.
	prog2 := parser.MustParse(src)
	unrolled, err := opt.Unroll(prog2, 0, 3)
	if err != nil {
		return nil, err
	}
	normalized, err := sema.Normalize(unrolled)
	if err != nil {
		return nil, err
	}
	le, err := opt.EliminateLoads(normalized, 0)
	if err != nil {
		return nil, err
	}
	code2raw, err := tac.Gen(le.Prog, nil)
	if err != nil {
		return nil, err
	}
	code2, _ := tacopt.Optimize(code2raw)

	run := func(code *tac.Prog) (*machine.Result, *machine.Memory, error) {
		mem := machine.NewMemory()
		for i := int64(-3); i <= 5; i++ {
			mem.Set("A", i, i*3+1)
		}
		res, err := machine.Run(code, mem, &machine.Options{InitRegs: map[string]int64{"X": 7}})
		return res, mem, err
	}
	res1, mem1, err := run(code1)
	if err != nil {
		return nil, err
	}
	res2, mem2, err := run(code2)
	if err != nil {
		return nil, err
	}
	return &Fig5UnrolledResult{
		Pipelined:             res1,
		Unrolled:              res2,
		MovesPerIterPipelined: float64(res1.OpCounts[tac.Mov]) / iters,
		MovesPerIterUnrolled:  float64(res2.OpCounts[tac.Mov]) / iters,
		Equal:                 mem1.Equal(mem2),
	}, nil
}

// Report renders E6b.
func (r *Fig5UnrolledResult) Report() string {
	var b strings.Builder
	b.WriteString("== E6b: §4.1.4 — unrolling by depth removes pipeline shifts ==\n")
	fmt.Fprintf(&b, "  %-22s %8s %12s %10s\n", "", "loads A", "moves/iter", "cycles")
	fmt.Fprintf(&b, "  %-22s %8d %12.2f %10d\n", "pipelined",
		r.Pipelined.Loads["A"], r.MovesPerIterPipelined, r.Pipelined.Cycles)
	fmt.Fprintf(&b, "  %-22s %8d %12.2f %10d\n", "unrolled ×3 + temps",
		r.Unrolled.Loads["A"], r.MovesPerIterUnrolled, r.Unrolled.Cycles)
	fmt.Fprintf(&b, "  semantics equal: %v\n", r.Equal)
	return b.String()
}

// ---------------------------------------------------------------------------
// E7 — Figure 6 redundant store elimination

// Fig6Result compares store counts before and after elimination.
type Fig6Result struct {
	Removed       int
	Peeled        int64
	StoresBefore  int64
	StoresAfter   int64
	SemanticsOK   bool
	ProgramBefore *ast.Program
	ProgramAfter  *ast.Program
}

// Fig6 runs redundant-store elimination on the Figure 6 loop and measures
// dynamic stores with the interpreter (condition always true — the worst
// case for the original program).
func Fig6() (*Fig6Result, error) {
	prog := parser.MustParse(Fig6Source)
	res, err := opt.EliminateStores(prog, 0)
	if err != nil {
		return nil, err
	}
	init := interp.NewState()
	init.Scalars["c"] = 5
	_, before, err := interp.Run(prog, init, nil)
	if err != nil {
		return nil, err
	}
	s1, _, err := interp.Run(prog, init, nil)
	if err != nil {
		return nil, err
	}
	s2, after, err := interp.Run(res.Prog, init, nil)
	if err != nil {
		return nil, err
	}
	return &Fig6Result{
		Removed:       len(res.Removed),
		Peeled:        res.PeeledIterations,
		StoresBefore:  before.ArrayStores["A"],
		StoresAfter:   after.ArrayStores["A"],
		SemanticsOK:   interp.ArraysEqual(s1, s2),
		ProgramBefore: prog,
		ProgramAfter:  res.Prog,
	}, nil
}

// Report renders the comparison.
func (r *Fig6Result) Report() string {
	var b strings.Builder
	b.WriteString("== E7: Figure 6 redundant store elimination (UB = 1000) ==\n")
	fmt.Fprintf(&b, "  removed stores: %d, peeled iterations: %d\n", r.Removed, r.Peeled)
	fmt.Fprintf(&b, "  dynamic stores to A: %d -> %d\n", r.StoresBefore, r.StoresAfter)
	fmt.Fprintf(&b, "  semantics equal: %v\n", r.SemanticsOK)
	return b.String()
}

// ---------------------------------------------------------------------------
// E8 — Figure 7 redundant load elimination

// Fig7Result compares load counts before and after elimination.
type Fig7Result struct {
	Replaced    int
	LoadsBefore int64
	LoadsAfter  int64
	SemanticsOK bool
}

// Fig7 runs redundant-load elimination on the Figure 7 loop.
func Fig7() (*Fig7Result, error) {
	prog := parser.MustParse(Fig7Source)
	res, err := opt.EliminateLoads(prog, 0)
	if err != nil {
		return nil, err
	}
	init := interp.NewState()
	init.Scalars["c"] = 1 << 30 // condition always true
	s1, before, err := interp.Run(prog, init, nil)
	if err != nil {
		return nil, err
	}
	s2, after, err := interp.Run(res.Prog, init, nil)
	if err != nil {
		return nil, err
	}
	return &Fig7Result{
		Replaced:    len(res.Replaced),
		LoadsBefore: before.ArrayLoads["A"],
		LoadsAfter:  after.ArrayLoads["A"],
		SemanticsOK: interp.ArraysEqual(s1, s2),
	}, nil
}

// Report renders the comparison.
func (r *Fig7Result) Report() string {
	var b strings.Builder
	b.WriteString("== E8: Figure 7 redundant load elimination (UB = 1000) ==\n")
	fmt.Fprintf(&b, "  replaced reuse points: %d\n", r.Replaced)
	fmt.Fprintf(&b, "  dynamic loads of A: %d -> %d\n", r.LoadsBefore, r.LoadsAfter)
	fmt.Fprintf(&b, "  semantics equal: %v\n", r.SemanticsOK)
	return b.String()
}

// ---------------------------------------------------------------------------
// E9 — convergence passes across synthetic loops

// ConvergenceRow is one sweep point of E9.
type ConvergenceRow struct {
	Stmts       int
	Nodes       int
	MustChanged int // changing passes, must-problem
	MustVisits  int
	MayChanged  int // changing passes, may-problem
	MayVisits   int
}

// Convergence sweeps loop sizes and records pass counts, checking the ≤ 2
// changing-passes claim for must- and ≤ 1 for may-problems.
func Convergence(sizes []int) []ConvergenceRow {
	var rows []ConvergenceRow
	for _, n := range sizes {
		prog := synth.Loop(synth.Params{Seed: int64(n), Stmts: n, Arrays: 4, MaxDist: 5, CondProb: 0.3})
		loop := prog.Body[0].(*ast.DoLoop)
		g := ir.Build(loop, nil)
		must := dataflow.Solve(g, problems.MustReachingDefs(), nil)
		may := dataflow.Solve(g, problems.ReachingRefs(), nil)
		rows = append(rows, ConvergenceRow{
			Stmts: n, Nodes: len(g.Nodes),
			MustChanged: must.ChangedPasses, MustVisits: must.NodeVisits,
			MayChanged: may.ChangedPasses, MayVisits: may.NodeVisits,
		})
	}
	return rows
}

// ConvergenceReport renders E9.
func ConvergenceReport(rows []ConvergenceRow) string {
	var b strings.Builder
	b.WriteString("== E9: fixed point convergence (claim: must ≤ 3·N visits, may ≤ 2·N) ==\n")
	fmt.Fprintf(&b, "  %6s %6s %12s %12s %12s %12s\n",
		"stmts", "nodes", "must-passes", "must-visits", "may-passes", "may-visits")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %6d %6d %12d %12d %12d %12d\n",
			r.Stmts, r.Nodes, r.MustChanged, r.MustVisits, r.MayChanged, r.MayVisits)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E10 — framework vs. Rau-style baseline

// BaselineRow is one sweep point of E10.
type BaselineRow struct {
	Distance        int64
	FrameworkPasses int // changing passes (constant)
	BaselinePasses  int // traversals until convergence (grows)
	BaselineMissed  bool
}

// VsBaseline sweeps recurrence distances; the baseline's limit is set to
// 2·d (it must exceed d to find the recurrence at all).
func VsBaseline(dists []int64) []BaselineRow {
	var rows []BaselineRow
	for _, d := range dists {
		prog := synth.KilledRecurrenceLoop(d, 0)
		loop := prog.Body[0].(*ast.DoLoop)
		g := ir.Build(loop, nil)
		fw := dataflow.Solve(g, problems.MustReachingDefs(), nil)
		bl := baseline.MustReachingDefs(g, &baseline.Options{Limit: 2 * d})
		short := baseline.MustReachingDefs(g, &baseline.Options{Limit: d - 1})
		missed := true
		for ci := range short.Classes {
			for _, nd := range g.Nodes {
				if short.ReachesWithDistance(nd, ci, d) {
					missed = false
				}
			}
		}
		rows = append(rows, BaselineRow{
			Distance:        d,
			FrameworkPasses: fw.ChangedPasses,
			BaselinePasses:  bl.Passes,
			BaselineMissed:  missed,
		})
	}
	return rows
}

// VsBaselineReport renders E10.
func VsBaselineReport(rows []BaselineRow) string {
	var b strings.Builder
	b.WriteString("== E10: framework vs. Rau-style name propagation (§5) ==\n")
	fmt.Fprintf(&b, "  %8s %18s %18s %26s\n",
		"distance", "framework passes", "baseline passes", "truncated baseline misses")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %8d %18d %18d %26v\n",
			r.Distance, r.FrameworkPasses, r.BaselinePasses, r.BaselineMissed)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E12 — controlled unrolling predictions

// UnrollRow is one sweep point of E12.
type UnrollRow struct {
	Name       string
	L          int64   // critical path of one iteration
	L2, L4     int64   // predicted for 2 and 4 copies
	Factor     int     // decision at threshold 1.2
	SpeedShape float64 // L4 / (4·L): 1.0 = serial, 0.25 = fully parallel
}

// Unrolling evaluates the §4.3 predictions on characteristic loop shapes.
func Unrolling() []UnrollRow {
	cases := []struct {
		name string
		prog *ast.Program
	}{
		{"parallel (dist 2)", parser.MustParse("do i = 1, 100\n A[i+2] := A[i] + x\nenddo")},
		{"serial (dist 1)", parser.MustParse("do i = 1, 100\n A[i+1] := A[i] + x\nenddo")},
		{"chain of 4, carried", synth.ChainLoop(4, 1, 100)},
		{"wide independent", synth.WideLoop(6, 100)},
	}
	var rows []UnrollRow
	for _, c := range cases {
		res, err := opt.ControlledUnroll(c.prog, 0, &opt.UnrollOptions{Threshold: 1.2, MaxFactor: 4})
		if err != nil {
			panic(err)
		}
		loop := c.prog.Body[0].(*ast.DoLoop)
		g := ir.Build(loop, nil)
		dg := problemsDependence(g)
		l := dg.CriticalPath()
		rows = append(rows, UnrollRow{
			Name: c.name, L: l,
			L2: dg.UnrolledCriticalPath(2), L4: dg.UnrolledCriticalPath(4),
			Factor:     res.Factor,
			SpeedShape: float64(dg.UnrolledCriticalPath(4)) / float64(4*l),
		})
	}
	return rows
}

// UnrollingReport renders E12.
func UnrollingReport(rows []UnrollRow) string {
	var b strings.Builder
	b.WriteString("== E12: controlled unrolling predictions (§4.3, threshold 1.2) ==\n")
	fmt.Fprintf(&b, "  %-22s %4s %4s %4s %8s %12s\n", "loop", "l", "l2", "l4", "factor", "l4/(4·l)")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-22s %4d %4d %4d %8d %12.2f\n",
			r.Name, r.L, r.L2, r.L4, r.Factor, r.SpeedShape)
	}
	return b.String()
}

func problemsDependence(g *ir.Graph) *depend.Graph {
	return depend.BuildFromLoop(g, 8)
}

// ---------------------------------------------------------------------------
// E13 — driver scheduling and memoization

// ReanalysisRow is one sweep point of the E13a memoization experiment: the
// optimization-pipeline pattern of analyzing a loop, transforming it, and
// re-analyzing. The re-analysis of any unchanged loop body is served from
// the driver's content-addressed cache.
type ReanalysisRow struct {
	Factor           int // unroll factor of the variant
	Loops            int // loops analyzed across the three driver calls
	Solves           int
	CacheHits        int
	CacheMisses      int
	HitRate          float64
	MaxChangedPasses int
}

// UnrollingReanalysis runs the E13a sweep: for each unroll factor of the
// Figure 5 loop, the pipeline (1) analyzes the normalized variant,
// (2) applies redundant-load elimination and analyzes the rewrite, and
// (3) re-analyzes the original variant — step 3 always hits the memo cache,
// and across factors the misses stay proportional to the distinct bodies.
func UnrollingReanalysis() ([]ReanalysisRow, error) {
	driver.ResetCache()
	var rows []ReanalysisRow
	for _, f := range []int{1, 2, 4} {
		prog := parser.MustParse(Fig5Source)
		unrolled, err := opt.Unroll(prog, 0, f)
		if err != nil {
			return nil, err
		}
		norm, err := sema.Normalize(unrolled)
		if err != nil {
			return nil, err
		}
		pa1, err := driver.Analyze(norm, nil)
		if err != nil {
			return nil, err
		}
		le, err := opt.EliminateLoads(norm, 0)
		if err != nil {
			return nil, err
		}
		pa2, err := driver.Analyze(le.Prog, nil)
		if err != nil {
			return nil, err
		}
		pa3, err := driver.Analyze(norm, nil)
		if err != nil {
			return nil, err
		}
		row := ReanalysisRow{Factor: f}
		for _, pa := range []*driver.ProgramAnalysis{pa1, pa2, pa3} {
			m := pa.Metrics
			row.Loops += m.Loops
			row.Solves += m.Solves
			row.CacheHits += m.CacheHits
			row.CacheMisses += m.CacheMisses
			if m.MaxChangedPasses > row.MaxChangedPasses {
				row.MaxChangedPasses = m.MaxChangedPasses
			}
		}
		if row.Solves > 0 {
			row.HitRate = float64(row.CacheHits) / float64(row.Solves)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ReanalysisReport renders E13a.
func ReanalysisReport(rows []ReanalysisRow) string {
	var b strings.Builder
	b.WriteString("== E13a: memoized re-analysis across the unrolling pipeline ==\n")
	fmt.Fprintf(&b, "  %6s %6s %7s %6s %7s %9s %12s\n",
		"factor", "loops", "solves", "hits", "misses", "hit-rate", "max-passes")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %6d %6d %7d %6d %7d %9.2f %12d\n",
			r.Factor, r.Loops, r.Solves, r.CacheHits, r.CacheMisses, r.HitRate, r.MaxChangedPasses)
	}
	return b.String()
}

// ScheduleResult is the E13b comparison of the serial and parallel driver
// schedules on a many-loop program.
type ScheduleResult struct {
	Loops            int
	Workers          int // GOMAXPROCS-derived pool width of the parallel run
	SerialWall       time.Duration
	ParallelWall     time.Duration
	Identical        bool // rendered reports byte-identical
	MaxChangedPasses int
}

// DriverSchedule runs E13b: a 32-loop mixed-depth program analyzed with the
// serial schedule and with the wave-parallel schedule (both uncached, so
// the comparison isolates scheduling), asserting the outputs match.
func DriverSchedule() (*ScheduleResult, error) {
	prog := synth.MultiLoopProgram(synth.MultiParams{Seed: 13, Loops: 32, StmtsPer: 24, NestEvery: 4})
	serial, err := driver.Analyze(prog, &driver.Options{Parallelism: 1, DisableCache: true})
	if err != nil {
		return nil, err
	}
	parallel, err := driver.Analyze(prog, &driver.Options{DisableCache: true})
	if err != nil {
		return nil, err
	}
	return &ScheduleResult{
		Loops:            len(parallel.Loops),
		Workers:          parallel.Metrics.Parallelism,
		SerialWall:       serial.Metrics.Elapsed,
		ParallelWall:     parallel.Metrics.Elapsed,
		Identical:        serial.Report() == parallel.Report(),
		MaxChangedPasses: parallel.Metrics.MaxChangedPasses,
	}, nil
}

// Report renders E13b.
func (r *ScheduleResult) Report() string {
	var b strings.Builder
	b.WriteString("== E13b: serial vs. wave-parallel driver schedule ==\n")
	fmt.Fprintf(&b, "  loops: %d   workers: %d   max changing passes: %d (bound: 2)\n",
		r.Loops, r.Workers, r.MaxChangedPasses)
	fmt.Fprintf(&b, "  wall: serial %s, parallel %s\n",
		r.SerialWall.Round(time.Microsecond), r.ParallelWall.Round(time.Microsecond))
	fmt.Fprintf(&b, "  outputs byte-identical: %v\n", r.Identical)
	return b.String()
}

// ---------------------------------------------------------------------------
// Full report

// FullReport runs every experiment and concatenates the reports.
func FullReport() (string, error) {
	var b strings.Builder
	t1 := Table1()
	b.WriteString(t1.Report())
	b.WriteString("\n")
	b.WriteString(Fig3().Report())
	b.WriteString("\n")
	f4, err := Fig4()
	if err != nil {
		return "", err
	}
	b.WriteString(f4.Report())
	b.WriteString("\n")
	f5, err := Fig5()
	if err != nil {
		return "", err
	}
	b.WriteString(f5.Report())
	b.WriteString("\n")
	f5u, err := Fig5Unrolled()
	if err != nil {
		return "", err
	}
	b.WriteString(f5u.Report())
	b.WriteString("\n")
	f6, err := Fig6()
	if err != nil {
		return "", err
	}
	b.WriteString(f6.Report())
	b.WriteString("\n")
	f7, err := Fig7()
	if err != nil {
		return "", err
	}
	b.WriteString(f7.Report())
	b.WriteString("\n")
	b.WriteString(ConvergenceReport(Convergence([]int{5, 20, 80, 320})))
	b.WriteString("\n")
	b.WriteString(VsBaselineReport(VsBaseline([]int64{2, 4, 8, 16, 32})))
	b.WriteString("\n")
	b.WriteString(UnrollingReport(Unrolling()))
	b.WriteString("\n")
	rows, err := UnrollingReanalysis()
	if err != nil {
		return "", err
	}
	b.WriteString(ReanalysisReport(rows))
	b.WriteString("\n")
	sched, err := DriverSchedule()
	if err != nil {
		return "", err
	}
	b.WriteString(sched.Report())
	return b.String(), nil
}
