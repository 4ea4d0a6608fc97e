// Package arrayflow is a reproduction of Duesterwald, Gupta & Soffa,
// "A Practical Data Flow Framework for Array Reference Analysis and its Use
// in Optimizations" (PLDI 1993).
//
// The package exposes the full pipeline: a Fortran-like DO-loop
// mini-language front end, the loop flow graph, the iteration-distance data
// flow framework with its four canned problem instances, and the paper's
// optimizations (register pipelining, redundant load/store elimination,
// controlled loop unrolling), plus the tight-loop-nest distance-vector
// extension sketched in the paper's §6.
//
// Quick start:
//
//	prog := arrayflow.MustParse(`
//	do i = 1, 1000
//	  A[i+2] := A[i] + X
//	enddo
//	`)
//	g := arrayflow.BuildGraph(prog.Body[0].(*arrayflow.Loop))
//	res := arrayflow.Analyze(g, arrayflow.MustReachingDefs())
//	for _, r := range arrayflow.Reuses(res) {
//	    fmt.Println(r) // use A[i]@n1 reuses A[i + 2] @ distance 2
//	}
package arrayflow

import (
	"io"
	"net/http"

	"repro/internal/ast"
	"repro/internal/baseline"
	"repro/internal/dataflow"
	"repro/internal/depend"
	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lint"
	"repro/internal/machine"
	"repro/internal/nest"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/problems"
	"repro/internal/regalloc"
	"repro/internal/sema"
	"repro/internal/service"
	"repro/internal/tac"
	"repro/internal/tacopt"
)

// Re-exported core types. The aliases keep example and client code inside
// one import while the implementation stays modular.
type (
	// Program is a parsed program.
	Program = ast.Program
	// Loop is a DO loop.
	Loop = ast.DoLoop
	// Graph is the loop flow graph of paper §3 (statement, summary and
	// exit nodes plus the back edge).
	Graph = ir.Graph
	// Spec is a data flow problem: the (G, K) pair with direction and
	// polarity.
	Spec = dataflow.Spec
	// Result is a fixed point solution.
	Result = dataflow.Result
	// Class is a tracked reference class (array + affine subscript form).
	Class = dataflow.Class
	// Reuse is a guaranteed cross- or same-iteration value reuse.
	Reuse = problems.Reuse
	// RedundantStore marks a store overwritten unread within δ iterations.
	RedundantStore = problems.RedundantStore
	// Dependence is a (possibly loop-carried) data dependence.
	Dependence = problems.Dependence
	// Allocation is a register-pipeline allocation (paper §4.1).
	Allocation = regalloc.Allocation
	// DependenceGraph supports the §4.3 critical path predictions.
	DependenceGraph = depend.Graph
	// State is an interpreter state (scalars + arrays).
	State = interp.State
	// Machine types for compiled execution.
	MachineProg   = tac.Prog
	MachineMemory = machine.Memory
	MachineResult = machine.Result
	// NestRecurrence is a distance-vector recurrence in a tight nest.
	NestRecurrence = nest.Recurrence
	// ProgramAnalysis is the whole-program result of AnalyzeProgram: every
	// loop's fixed points in innermost-first order plus solver metrics.
	ProgramAnalysis = driver.ProgramAnalysis
	// LoopAnalysis is one loop's bundle inside a ProgramAnalysis.
	LoopAnalysis = driver.LoopAnalysis
	// AnalyzeOptions tunes the whole-program driver: the specs to solve,
	// the §6 extension, the worker-pool width (Parallelism; 0 =
	// GOMAXPROCS, 1 = serial), the memo cache escape hatch (DisableCache),
	// and the persistent solve cache directory (CacheDir — lets a cold
	// process warm-start previously analyzed loops from disk at memo-hit
	// speed). Results are byte-for-byte identical at every Parallelism
	// setting, with the cache on or off, and cold or disk-warm.
	AnalyzeOptions = driver.Options
	// AnalysisMetrics instruments one AnalyzeProgram call: per-loop solver
	// work, cache hits/misses, the empirical pass-bound check, wall times.
	AnalysisMetrics = driver.Metrics
	// BatchResult is one program's outcome in an AnalyzeProgramBatch call.
	BatchResult = driver.BatchResult
	// SolverMetrics is the per-solve counter bundle of the dataflow core.
	SolverMetrics = dataflow.Metrics
	// DiskCacheStats snapshots the process-wide persistent-cache counters
	// (AnalyzeOptions.CacheDir): hits, misses, stores, errors, byte and
	// nanosecond volumes.
	DiskCacheStats = driver.DiskStats
	// DiffResult is the outcome of DiffPrograms: the new version's loops
	// labeled changed/unchanged, removed-loop count, and both passes'
	// metrics.
	DiffResult = driver.DiffResult
	// DiffLoop is one loop of the new version inside a DiffResult.
	DiffLoop = driver.DiffLoop
)

// Parse parses mini-language source.
func Parse(src string) (*Program, error) { return parser.Parse(src) }

// MustParse parses and panics on error (for literals in examples/tests).
func MustParse(src string) *Program { return parser.MustParse(src) }

// Check validates the framework's structural preconditions and collects
// program information.
func Check(prog *Program) (*sema.Info, error) { return sema.Check(prog) }

// Normalize rewrites all loops to run from 1 with step 1 (paper §1).
func Normalize(prog *Program) (*Program, error) { return sema.Normalize(prog) }

// RemoveDerivedIVs eliminates non-basic induction variables from the loop
// at prog.Body[idx], replacing them with closed forms in the basic
// induction variable — the preprocessing the paper assumes (§1, citing the
// Dragon Book). Returns the transformed program and the variables removed.
func RemoveDerivedIVs(prog *Program, idx int) (*Program, []sema.RemovedIV, error) {
	return sema.RemoveDerivedIVs(prog, idx)
}

// BuildGraph constructs the loop flow graph for one loop; nested loops
// become summary nodes (paper §3.2).
func BuildGraph(loop *Loop) *Graph { return ir.Build(loop, nil) }

// The four problem instances of the paper.

// MustReachingDefs is §3.5's instance (G = defs, K = defs).
func MustReachingDefs() *Spec { return problems.MustReachingDefs() }

// AvailableValues is §4.1.1's δ-available instance (G = defs ∪ uses,
// K = defs).
func AvailableValues() *Spec { return problems.AvailableValues() }

// BusyStores is §4.2.1's backward δ-busy instance (G = stores, K = uses).
func BusyStores() *Spec { return problems.BusyStores() }

// ReachingRefs is §4.3's may instance for dependence detection.
func ReachingRefs() *Spec { return problems.ReachingRefs() }

// Analyze solves a problem on a graph (init pass + ≤ 2 iteration passes for
// must-problems; ≤ 2 passes for may-problems).
func Analyze(g *Graph, spec *Spec) *Result { return dataflow.Solve(g, spec, nil) }

// AnalyzeTraced additionally records the per-pass tuple snapshots used to
// regenerate the paper's Table 1.
func AnalyzeTraced(g *Graph, spec *Spec) *Result {
	return dataflow.Solve(g, spec, &dataflow.Options{CollectTrace: true})
}

// Reuses extracts guaranteed value reuses from a must-solution.
func Reuses(res *Result) []Reuse { return problems.FindReuses(res) }

// RedundantStores extracts δ-redundant stores from a δ-busy solution.
func RedundantStores(res *Result) []RedundantStore { return problems.FindRedundantStores(res) }

// Dependences extracts data dependences (distance ≤ maxDist) from a
// δ-reaching solution.
func Dependences(res *Result, maxDist int64) []Dependence {
	return problems.FindDependences(res, maxDist)
}

// AllocateRegisters runs the §4.1 register-pipelining allocation with k
// registers.
func AllocateRegisters(g *Graph, k int) *Allocation {
	return regalloc.Allocate(g, &regalloc.Options{K: k})
}

// BuildDependenceGraph builds the §4.3 dependence graph with distances up
// to maxDist.
func BuildDependenceGraph(g *Graph, maxDist int64) *DependenceGraph {
	return depend.BuildFromLoop(g, maxDist)
}

// Optimizations (all return fresh programs; inputs are never mutated).

// EliminateStores removes δ-redundant stores from the loop at
// prog.Body[idx] and unpeels the final δ iterations (Figure 6).
func EliminateStores(prog *Program, idx int) (*opt.StoreElimResult, error) {
	return opt.EliminateStores(prog, idx)
}

// EliminateLoads replaces redundant loads with scalar temporaries
// (Figure 7 / §4.2.2).
func EliminateLoads(prog *Program, idx int) (*opt.LoadElimResult, error) {
	return opt.EliminateLoads(prog, idx)
}

// ControlledUnroll applies the §4.3 prediction-driven unrolling.
func ControlledUnroll(prog *Program, idx int, threshold float64, maxFactor int) (*opt.UnrollResult, error) {
	return opt.ControlledUnroll(prog, idx, &opt.UnrollOptions{Threshold: threshold, MaxFactor: maxFactor})
}

// Unroll mechanically unrolls a normalized loop.
func Unroll(prog *Program, idx int, factor int) (*Program, error) {
	return opt.Unroll(prog, idx, factor)
}

// NestRecurrences finds distance-vector recurrences in a tight two-level
// nest (§6 extension).
func NestRecurrences(outer *Loop, maxDist int64) ([]NestRecurrence, error) {
	return nest.FindRecurrences(outer, maxDist)
}

// AnalyzeProgram runs the paper's §3.2 whole-program protocol: every loop
// analyzed innermost-first on its own graph (nested loops summarized), the
// §3.6 re-analyses with respect to enclosing induction variables on tight
// nests, and — when nestVectors is set — the §6 distance-vector extension.
// specs may be nil for must-reaching definitions only.
//
// Loops of one nesting depth are independent, so the driver schedules each
// depth wave across a GOMAXPROCS-wide worker pool and memoizes identical
// loop bodies in a process-global content-addressed cache; the result
// (including Report output) is byte-for-byte identical to a serial,
// uncached run. Use AnalyzeProgramOpts for the scheduling and caching
// knobs, and ProgramAnalysis.Metrics for the solver instrumentation.
func AnalyzeProgram(prog *Program, specs []*Spec, nestVectors bool) (*ProgramAnalysis, error) {
	return driver.Analyze(prog, &driver.Options{Specs: specs, NestVectors: nestVectors})
}

// AnalyzeProgramOpts is AnalyzeProgram with the full option set: spec list,
// §6 vectors (their search is bounded at distance 8), worker-pool width
// (Parallelism: 0 = GOMAXPROCS, 1 = serial), and DisableCache to bypass the
// memo cache — required when passing hand-built Specs that reuse a canned
// problem name with different Gen/Kill semantics, since the cache keys
// solves by spec name and canonical loop text.
func AnalyzeProgramOpts(prog *Program, opts *AnalyzeOptions) (*ProgramAnalysis, error) {
	return driver.Analyze(prog, opts)
}

// AnalyzeProgramBatch analyzes many programs through one shared worker
// pool, the solver's pooled scratch, and the shared memo cache,
// amortizing startup and allocation costs across the batch. Parallelism in
// opts fans out across programs (each analyzed serially by its worker);
// results come back in input order with per-program errors isolated per
// item, each byte-identical to a standalone AnalyzeProgramOpts call.
func AnalyzeProgramBatch(progs []*Program, opts *AnalyzeOptions) []BatchResult {
	return driver.AnalyzeBatch(progs, opts)
}

// DiffPrograms runs incremental re-analysis between two versions of a
// program set: the old version's analysis warms the memo (and, with
// opts.CacheDir, the persistent) cache, both versions are fingerprinted
// with the cache's 128-bit content address, and the new version re-solves
// only the loops whose fingerprints changed. The returned
// DiffResult.NewMetrics.CacheMisses is the number of solves the edit
// actually cost.
func DiffPrograms(oldProgs, newProgs []*Program, opts *AnalyzeOptions) (*DiffResult, error) {
	return driver.DiffPrograms(oldProgs, newProgs, opts)
}

// AnalysisDiskCacheStats reports the process-wide persistent solve cache
// counters accumulated by every AnalyzeOptions.CacheDir run.
func AnalysisDiskCacheStats() DiskCacheStats { return driver.DiskCacheStats() }

// AnalysisCacheStats reports the process-global solve cache: resident
// entries and lifetime hit/miss tallies across all AnalyzeProgram calls.
func AnalysisCacheStats() (entries, hits, misses int) { return driver.CacheStats() }

// ResetAnalysisCache drops every memoized loop solve. Long-running hosts
// that stream unbounded distinct programs can call it to release memory at
// a known point; the cache also bounds itself, evicting its oldest entries
// whenever the bytes its solves hold pass a fixed 64 MiB budget, until they
// fit again.
func ResetAnalysisCache() { driver.ResetCache() }

// Execution substrates.

// Interpret runs a program on an initial state (nil = empty), returning the
// final state and source-level load/store statistics.
func Interpret(prog *Program, init *State) (*State, *interp.Stats, error) {
	return interp.Run(prog, init, nil)
}

// NewState returns an empty interpreter state.
func NewState() *State { return interp.NewState() }

// ArraysEqual compares the array contents of two states (missing elements
// count as zero) — the differential-testing check for optimizations, which
// may introduce scalar temporaries but must preserve memory.
func ArraysEqual(a, b *State) bool { return interp.ArraysEqual(a, b) }

// Compile lowers a program to three-address code; hooks (may be nil) carry
// register-pipelining rewrites from Allocation.GenOptions.
func Compile(prog *Program, hooks *tac.GenOptions) (*MachineProg, error) {
	return tac.Gen(prog, hooks)
}

// OptimizeTAC applies classical local optimization (constant folding, copy
// propagation, local redundant-load elimination, liveness-based dead code
// elimination) to compiled code, returning a new program. It realizes the
// competent flow-insensitive baseline the paper's comparisons assume.
func OptimizeTAC(p *MachineProg) (*MachineProg, tacopt.Stats) {
	return tacopt.Optimize(p)
}

// Execute runs compiled code on the abstract machine, counting loads,
// stores and cycles under the default early-90s cost model.
func Execute(p *MachineProg, mem *MachineMemory, initRegs map[string]int64) (*MachineResult, error) {
	return machine.Run(p, mem, &machine.Options{InitRegs: initRegs})
}

// NewMemory returns empty machine memory.
func NewMemory() *MachineMemory { return machine.NewMemory() }

// BaselineMustReachingDefs runs the Rau-style name-propagation baseline
// (related work, paper §5) with the given instance-distance limit.
func BaselineMustReachingDefs(g *Graph, limit int64) *baseline.Result {
	return baseline.MustReachingDefs(g, &baseline.Options{Limit: limit})
}

// Static analysis (internal/diag + internal/lint).

type (
	// Finding is one static-analysis diagnostic: analyzer ID, source
	// position range, severity, message, related positions, and
	// structured detail.
	Finding = diag.Finding
	// FindingSeverity grades a Finding (info, warning, error).
	FindingSeverity = diag.Severity
	// VetResult bundles the findings of a full source-to-diagnostics run.
	VetResult = lint.VetResult
	// LintOptions tunes a lint/vet run (parallelism, cache, analyzer
	// selection).
	LintOptions = lint.Options
)

// Vet runs the complete static-analysis pipeline over source text: parse,
// check, normalize, solve the four array data flow problems on every loop,
// and apply every analyzer. Front-end errors become findings with analyzer
// IDs "parse" and "sema". opts may be nil. The finding list is sorted
// deterministically and identical at every parallelism setting.
func Vet(file, src string, opts *LintOptions) *VetResult { return lint.Vet(file, src, opts) }

// LintProgram applies the analyzers to a checked, normalized program.
func LintProgram(file string, prog *Program, opts *LintOptions) ([]Finding, *ProgramAnalysis, error) {
	return lint.Run(file, prog, opts)
}

// WriteFindingsText renders findings as "file:line:col: severity: analyzer:
// message" lines; WriteFindingsJSON as an indented JSON document.
func WriteFindingsText(w io.Writer, file string, fs []Finding) error {
	return diag.WriteText(w, file, fs)
}

// WriteFindingsJSON renders findings as a deterministic JSON document.
func WriteFindingsJSON(w io.Writer, file string, fs []Finding) error {
	return diag.WriteJSON(w, file, fs)
}

// Analysis service (internal/service) — the HTTP/JSON daemon behind
// `arrayflow serve`. docs/API.md is the wire reference, docs/OPERATIONS.md
// the runbook.

type (
	// Service is the analysis daemon: admission control, per-request
	// deadlines, and handlers whose responses are byte-identical to the
	// CLI's output. Mount Handler() on an http.Server.
	Service = service.Server
	// ServiceOptions configures a Service (workers, queue depth, deadline,
	// body cap, cache, fuel). The zero value is usable.
	ServiceOptions = service.Options
	// ServiceStats is the /v1/stats snapshot document.
	ServiceStats = service.Stats
	// ServiceClient is an HTTP client for the /v1 API.
	ServiceClient = service.Client
	// ServiceStatusError is the typed error ServiceClient returns for
	// non-200 responses (status, machine-readable code, body, Retry-After).
	ServiceStatusError = service.StatusError
	// ServiceBatchRequest is the /v1/batch request document.
	ServiceBatchRequest = service.BatchRequest
	// ServiceBatchProgram is one named program inside a ServiceBatchRequest.
	ServiceBatchProgram = service.BatchProgram
	// ServiceBatchItem is one program's outcome in a batch NDJSON stream.
	ServiceBatchItem = service.BatchItem
	// ServiceVetResponse is a ServiceClient.Vet outcome: the rendered body
	// plus the CLI exit-contract value from X-Arrayflow-Exit.
	ServiceVetResponse = service.VetResponse
)

// NewService returns an analysis daemon with opts resolved to documented
// defaults (nil = all defaults): GOMAXPROCS workers, a 256-deep queue, a
// 10-second per-request deadline, a 1 MiB body cap, and the process-global
// memo cache.
func NewService(opts *ServiceOptions) *Service { return service.New(opts) }

// NewServiceHandler is NewService(opts).Handler() — the one-liner for
// embedding the /v1 API into an existing mux or httptest server.
func NewServiceHandler(opts *ServiceOptions) http.Handler { return service.New(opts).Handler() }

// NewServiceClient returns a client for a running service (e.g.
// "http://127.0.0.1:8377"). Its Analyze/Vet bodies are byte-identical to
// the corresponding CLI stdout.
func NewServiceClient(baseURL string) *ServiceClient { return service.NewClient(baseURL) }

// Render helpers.

// ProgramString renders a program in source syntax.
func ProgramString(p *Program) string { return ast.ProgramString(p) }
