// Package driver runs the paper's whole-program analysis protocol (§3.2):
// loops are analyzed hierarchically starting with the innermost, each loop
// on its own flow graph with nested loops summarized; for tight nests the
// §3.6 move of re-analyzing the innermost body with respect to each
// enclosing induction variable is applied, and the §6 distance-vector
// extension runs on two-level tight nests.
//
// Scheduling and memoization live in this layer; the solver core in
// internal/dataflow stays pure. Because every loop is solved on its own
// flow graph with nested loops represented by summary nodes, the loops of
// one nesting depth never read each other's solutions — the driver
// therefore schedules them wave by wave (innermost depth first, matching
// the paper's protocol) across a bounded worker pool, and merges the
// results back in the original innermost-first order so output is
// byte-for-byte identical to the serial schedule. Identical loop bodies
// (ubiquitous after unrolling or load-elimination re-analysis) are
// memoized in a process-global content-addressed cache; see cache.go.
package driver

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/nest"
	"repro/internal/poly"
	"repro/internal/problems"
	"repro/internal/rangefacts"
	"repro/internal/sema"
)

// LoopAnalysis is the per-loop bundle of solutions.
//
// The graph, fixed points, and reuse facts are reached through accessor
// methods rather than fields: a loop answered from the persistent solve
// cache holds only its decoded counters and stored report lines until
// something actually reads the facts, at which point the deferred restore
// (graph rebuild + row decode) runs exactly once. Loops solved in-process
// materialize eagerly, so the accessors cost a nil check. All accessors
// are safe for concurrent use.
type LoopAnalysis struct {
	Loop  *ast.DoLoop
	Depth int // 1 = outermost
	// own is this loop's solve; wrt holds the §3.6 re-analyses of the body
	// with respect to each enclosing induction variable.
	own *solved
	wrt map[string]*solved
	// facts is the loop's solved range-fact environment, derived before the
	// solve and folded into its memo fingerprint.
	facts *rangefacts.Facts
	// key is the memo key of the own solve (zero with the cache disabled);
	// DiffPrograms matches two versions' loops by it.
	key memoKey
	// refs are Loop's own references in graph-ref-ID order (ir.RefExprs),
	// walked on the first RefExpr call: only consumers that report
	// positions pay for the walk.
	refsOnce sync.Once
	refs     []*ast.ArrayRef
}

// Facts returns the loop's range-fact environment: loop bounds, dominating
// guards, symbolic dims, and Options.Assume, solved to per-symbol
// intervals. Nil only for hand-built LoopAnalysis values.
func (la *LoopAnalysis) Facts() *rangefacts.Facts { return la.facts }

// Graph returns the loop's flow graph. The solve is memoized by content,
// so every loop of the same content shares one graph, built from
// whichever of them filled the memo entry: read it for content (texts,
// subscripts, forms), and positions through RefExpr.
func (la *LoopAnalysis) Graph() *ir.Graph { return la.own.materialize().graph }

// RefExpr returns r, a reference of the loop's graph or of one of its §3.6
// re-analyses (which walk the same body), as it occurs in the loop's own
// source.
func (la *LoopAnalysis) RefExpr(r *ir.Ref) *ast.ArrayRef {
	la.refsOnce.Do(func() { la.refs = ir.RefExprs(la.Loop) })
	return la.refs[r.ID-1]
}

// Results maps spec name → fixed point for the analyses requested.
func (la *LoopAnalysis) Results() map[string]*dataflow.Result {
	return la.own.materialize().results
}

// Result returns the fixed point of one named problem instance (nil when
// the analysis was not requested).
func (la *LoopAnalysis) Result(name string) *dataflow.Result {
	return la.own.materialize().results[name]
}

// Reuses are the guaranteed reuses with respect to this loop's own
// induction variable (from must-reaching definitions when requested).
func (la *LoopAnalysis) Reuses() []problems.Reuse { return la.own.materialize().reuses }

// WRT returns, for a loop that is the innermost of a tight nest, the §3.6
// re-analyses of its body with respect to each *enclosing* induction
// variable: reuse facts keyed by that variable's name. The map is built
// per call; mutating it does not affect the analysis.
func (la *LoopAnalysis) WRT() map[string][]problems.Reuse {
	out := make(map[string][]problems.Reuse, len(la.wrt))
	for iv, sv := range la.wrt {
		out[iv] = sv.materialize().reuses
	}
	return out
}

// ProgramAnalysis is the result of analyzing every loop of a program.
type ProgramAnalysis struct {
	Prog *ast.Program
	Info *sema.Info
	// Loops in analysis order: innermost first (§3.2).
	Loops []*LoopAnalysis
	// Vectors holds the §6 distance-vector recurrences per tight two-level
	// nest, keyed by the outer loop.
	Vectors map[*ast.DoLoop][]nest.Recurrence
	// Metrics instruments the call: solver work per loop, cache hit/miss
	// tallies, and wall times (see Metrics).
	Metrics *Metrics

	// vectorOrder remembers the deterministic (analysis-order) sequence of
	// Vectors keys so Report does not depend on map iteration order.
	vectorOrder []*ast.DoLoop
}

// Options selects the analyses to run per loop and tunes the scheduler.
type Options struct {
	// Specs lists the problem instances to solve on every loop graph.
	// Nil runs must-reaching definitions only.
	Specs []*dataflow.Spec
	// NestVectors enables the §6 extension on tight two-level nests, with
	// the vector search bounded by maxVectorDist.
	NestVectors bool
	// Parallelism caps the worker goroutines per scheduling wave.
	// 0 uses runtime.GOMAXPROCS(0); 1 forces the serial schedule.
	// Results are byte-for-byte identical at every setting.
	Parallelism int
	// DisableCache bypasses the process-global memo cache, forcing every
	// loop to be solved fresh. Needed when passing hand-built Specs whose
	// Name does not uniquely identify their semantics; also useful for
	// benchmarking the raw solver.
	DisableCache bool
	// Fuel bounds each per-loop solve's flow-function applications
	// (dataflow.Options.Fuel). Zero derives the solver's never-binding
	// default. A bound solve that runs out degrades its tuples to the
	// claim-nothing value and is counted in Metrics.FuelExhausted; the fuel
	// participates in the memo-cache key, so runs under different budgets
	// never share entries.
	Fuel int64
	// Assume seeds every loop's range-fact derivation with caller-supplied
	// facts (rangefacts): front ends inject invariants the mini language
	// cannot express, e.g. the Go importer's len()-derived `n ≥ 0`. The
	// facts join loop bounds, dominating guards, and dim bounds in the
	// per-loop environment, and fold into the memo fingerprint through the
	// fact signature.
	Assume []rangefacts.Fact
	// CacheDir, when non-empty, persists solved loops to disk under this
	// directory (content-addressed by the same fingerprint as the in-memory
	// memo, grouped by a format/spec-set schema hash), and answers
	// memory misses from disk before solving. Unusable directories and
	// damaged entries degrade to cold solves; the disk cache never fails an
	// Analyze call. Ignored when DisableCache is set (the fingerprints the
	// entries are keyed by only exist on the cached path).
	CacheDir string
}

// maxVectorDist bounds the §6 distance-vector search on each tight nest.
const maxVectorDist = 8

// entry is one loop to analyze, with its nesting context.
type entry struct {
	loop      *ast.DoLoop
	depth     int
	enclosing []*ast.DoLoop // outermost first
}

// Analyze runs the protocol over a checked, normalized program.
func Analyze(prog *ast.Program, opts *Options) (*ProgramAnalysis, error) {
	if opts == nil {
		opts = &Options{}
	}
	specs := opts.Specs
	if specs == nil {
		specs = []*dataflow.Spec{problems.MustReachingDefs()}
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()

	info, err := sema.Check(prog)
	if err != nil {
		return nil, err
	}
	pa := &ProgramAnalysis{Prog: prog, Info: info, Vectors: map[*ast.DoLoop][]nest.Recurrence{}}
	dims := declaredDims(info)

	env := &solveEnv{specs: specs, dims: dims, useCache: !opts.DisableCache,
		fuel: opts.Fuel, prog: prog, info: info, assume: opts.Assume}
	if opts.CacheDir != "" && env.useCache {
		env.cacheRoot = opts.CacheDir
		env.disk = openDiskCacheFor(opts.CacheDir, specs)
	}

	entries := collectEntries(prog)

	// Wave schedule: entries are sorted deepest first, so each nesting
	// depth is one contiguous wave. Within a wave every loop is independent
	// (each is solved on its own graph; inner loops appear only as summary
	// nodes built from their own AST), so the wave fans out across the
	// workers. Workers write into per-entry slots, which keeps the merge
	// deterministic: slot order is the innermost-first entry order
	// regardless of completion order.
	results := make([]*LoopAnalysis, len(entries))
	loopMetrics := make([]LoopMetrics, len(entries))
	for lo := 0; lo < len(entries); {
		hi := lo + 1
		for hi < len(entries) && entries[hi].depth == entries[lo].depth {
			hi++
		}
		wave := entries[lo:hi]
		FanOut(len(wave), workers, func(k int) {
			results[lo+k], loopMetrics[lo+k] = analyzeOne(wave[k], env)
		})
		lo = hi
	}
	pa.Loops = results

	if opts.NestVectors {
		for _, e := range entries {
			if inner, ok := tightInnerOf(e.loop); ok && !containsLoop(inner.Body) {
				recs, err := nest.FindRecurrences(e.loop, maxVectorDist)
				if err == nil && len(recs) > 0 {
					pa.Vectors[e.loop] = recs
					pa.vectorOrder = append(pa.vectorOrder, e.loop)
				}
			}
		}
	}

	m := &Metrics{Loops: len(entries), Parallelism: workers, PerLoop: loopMetrics}
	for _, lm := range loopMetrics {
		m.Solves += 1 + lm.WRTSolves
		m.CacheHits += lm.CacheHits
		m.CacheMisses += lm.CacheMisses
		m.DiskHits += lm.DiskHits
		m.DiskLoadBytes += lm.DiskLoadBytes
		m.DiskStoreBytes += lm.DiskStoreBytes
		if lm.Solver.ChangedPasses > m.MaxChangedPasses {
			m.MaxChangedPasses = lm.Solver.ChangedPasses
		}
		m.NodeVisits += lm.Solver.NodeVisits
		m.FlowApps += lm.Solver.FlowApps
		if lm.Solver.FuelExhausted {
			m.FuelExhausted++
		}
	}
	m.Elapsed = time.Since(start)
	pa.Metrics = m
	return pa, nil
}

// ForEachLoop invokes fn once per analyzed loop, fanning the calls out
// across at most parallelism goroutines (0 = GOMAXPROCS, 1 = serial). fn
// receives the loop's index in pa.Loops; callers that collect output should
// write into index-aligned slots so results stay deterministic regardless of
// completion order. fn must not mutate shared state without its own
// synchronization.
func (pa *ProgramAnalysis) ForEachLoop(parallelism int, fn func(i int, la *LoopAnalysis)) {
	FanOut(len(pa.Loops), parallelism, func(i int) { fn(i, pa.Loops[i]) })
}

// FanOut calls fn(i) once for every i in [0, n) on at most workers
// goroutines (workers <= 0 means GOMAXPROCS), which take indices off one
// channel, and returns when every call has. With one worker, or one index,
// the calls run in order on the calling goroutine.
func FanOut(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// collectEntries gathers every loop with depth and enclosing chain, in the
// innermost-first order of the §3.2 protocol (stable within one depth).
func collectEntries(prog *ast.Program) []entry {
	var entries []entry
	var walk func(stmts []ast.Stmt, depth int, chain []*ast.DoLoop)
	walk = func(stmts []ast.Stmt, depth int, chain []*ast.DoLoop) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *ast.DoLoop:
				entries = append(entries, entry{loop: st, depth: depth + 1,
					enclosing: append([]*ast.DoLoop{}, chain...)})
				walk(st.Body, depth+1, append(chain, st))
			case *ast.If:
				walk(st.Then, depth, chain)
				walk(st.Else, depth, chain)
			}
		}
	}
	walk(prog.Body, 0, nil)
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].depth > entries[j].depth })
	return entries
}

// declaredDims converts the checked program's constant dim declarations
// into the polynomial dimension sizes the linearizer consumes, so declared
// multi-dimensional arrays get concrete strides instead of the symbolic
// sema.DefaultDims fallback (which undeclared arrays keep).
func declaredDims(info *sema.Info) map[string][]poly.Poly {
	if len(info.Bounds) == 0 {
		return nil
	}
	out := make(map[string][]poly.Poly, len(info.Bounds))
	for name, sizes := range info.Bounds {
		ps := make([]poly.Poly, len(sizes))
		for k, v := range sizes {
			ps[k] = poly.Const(v)
		}
		out[name] = ps
	}
	return out
}

// analyzeOne runs one loop's own analysis plus its §3.6 re-analyses. It is
// called from worker goroutines: everything it touches is either private to
// the entry or behind the cache's synchronization.
func analyzeOne(e entry, env *solveEnv) (*LoopAnalysis, LoopMetrics) {
	t0 := time.Now()
	lm := LoopMetrics{Var: e.loop.Var, Depth: e.depth}
	countLookup := func(oc solveOutcome) {
		if !env.useCache {
			return
		}
		if oc.hit {
			lm.CacheHits++
		} else {
			lm.CacheMisses++
		}
		if oc.diskHit {
			lm.DiskHits++
		}
		lm.DiskLoadBytes += oc.loadBytes
		lm.DiskStoreBytes += oc.storeBytes
	}
	// Derive the loop's fact environment first: it participates in the
	// solve (preserve constants) and therefore in the memo fingerprint.
	facts := rangefacts.Derive(env.prog, env.info, e.loop, env.assume, env.fuel)
	sv, oc := solveLoop(e.loop, facts, env)
	countLookup(oc)
	for _, m := range sv.meta {
		lm.Solver.Add(m.Metrics())
	}
	la := &LoopAnalysis{Loop: e.loop, Depth: e.depth, own: sv, wrt: map[string]*solved{}, facts: facts, key: oc.key}

	// §3.6: for the innermost loop of a tight chain, re-analyze its
	// body with respect to each enclosing induction variable.
	if len(e.loop.Body) > 0 && !containsLoop(e.loop.Body) {
		var wrtEnv *solveEnv
		for _, enc := range e.enclosing {
			if !tightChain(enc, e.loop) {
				continue
			}
			if wrtEnv == nil {
				wrtEnv = env.withSpecs([]*dataflow.Spec{problems.MustReachingDefs()})
			}
			synthetic := &ast.DoLoop{
				DoPos: e.loop.DoPos, Var: enc.Var, Label: enc.Label,
				Lo: ast.CloneExpr(enc.Lo), Hi: ast.CloneExpr(enc.Hi),
				Body: e.loop.Body,
			}
			// §3.6 synthetic loops are not part of the program AST, so no
			// guard context can be located for them; they solve fact-free.
			svw, ocw := solveLoop(synthetic, nil, wrtEnv)
			countLookup(ocw)
			lm.WRTSolves++
			for _, m := range svw.meta {
				lm.Solver.Add(m.Metrics())
			}
			la.wrt[enc.Var] = svw
		}
	}
	lm.Elapsed = time.Since(t0)
	return la, lm
}

// containsLoop reports whether a statement list contains a nested loop.
func containsLoop(stmts []ast.Stmt) bool {
	found := false
	ast.Inspect(stmts, func(n ast.Node) bool {
		if _, ok := n.(*ast.DoLoop); ok {
			found = true
			return false
		}
		return !found
	})
	return found
}

// tightChain reports whether outer's body consists of a straight chain of
// single nested loops reaching inner.
func tightChain(outer, inner *ast.DoLoop) bool {
	cur := outer
	for cur != inner {
		if len(cur.Body) != 1 {
			return false
		}
		next, ok := cur.Body[0].(*ast.DoLoop)
		if !ok {
			return false
		}
		cur = next
	}
	return true
}

func tightInnerOf(outer *ast.DoLoop) (*ast.DoLoop, bool) {
	if len(outer.Body) != 1 {
		return nil, false
	}
	inner, ok := outer.Body[0].(*ast.DoLoop)
	return inner, ok
}

// Report renders the whole-program findings. Each loop's header reads its
// node count off the solver counters and its reuse lines come from
// solved.writeReuses, so a loop answered from the persistent cache is
// reported without restoring its graph or rows.
func (pa *ProgramAnalysis) Report() string {
	var b strings.Builder
	// Pre-size for the common shape: one header line per loop plus the
	// reuse lines. Underestimates only cost a regrow.
	size := 48
	for _, la := range pa.Loops {
		size += 40 + la.own.reuseSize(len("  reuse: "))
		for iv, sv := range la.wrt {
			size += sv.reuseSize(len("  reuse wrt : ") + len(iv))
		}
	}
	b.Grow(size)
	fmt.Fprintf(&b, "program analysis: %d loops (innermost first)\n", len(pa.Loops))
	for _, la := range pa.Loops {
		fmt.Fprintf(&b, "loop %s (depth %d, %d nodes):\n", la.Loop.Var, la.Depth, la.own.nodes())
		la.own.writeReuses(&b, "  reuse", "")
		ivs := make([]string, 0, len(la.wrt))
		for iv := range la.wrt {
			ivs = append(ivs, iv)
		}
		sort.Strings(ivs)
		for _, iv := range ivs {
			la.wrt[iv].writeReuses(&b, "  reuse wrt ", iv)
		}
	}
	for _, outer := range pa.vectorLoops() {
		fmt.Fprintf(&b, "tight nest at %s: distance vectors:\n", outer.Var)
		for _, r := range pa.Vectors[outer] {
			fmt.Fprintf(&b, "  %s\n", r)
		}
	}
	return b.String()
}

// vectorLoops returns the Vectors keys in a deterministic order: analysis
// order when this ProgramAnalysis came from Analyze, induction-variable
// order as a fallback for hand-built values.
func (pa *ProgramAnalysis) vectorLoops() []*ast.DoLoop {
	if len(pa.vectorOrder) == len(pa.Vectors) {
		return pa.vectorOrder
	}
	loops := make([]*ast.DoLoop, 0, len(pa.Vectors))
	for l := range pa.Vectors {
		loops = append(loops, l)
	}
	sort.Slice(loops, func(i, j int) bool { return loops[i].Var < loops[j].Var })
	return loops
}
