// Package lint turns the framework's data flow solutions into source-level
// diagnostics. Each Analyzer consumes the per-loop results computed by
// internal/driver — the paper's four array data flow problems — and reports
// diag.Findings anchored to token positions: dead stores from δ-busy
// stores, guaranteed reuses from δ-available values, loop-carried
// dependence blockers from δ-reaching references, uninitialized-read gaps
// from must-reaching definitions, subscript bounds violations from the
// affine forms, and a self-check of the framework's own convergence
// guarantees.
//
// Analyzers run per loop through the driver's deterministic fan-out
// (ProgramAnalysis.ForEachLoop); findings are merged, sorted, and deduped
// so output is byte-for-byte identical at every parallelism setting.
package lint

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/problems"
	"repro/internal/rangefacts"
	"repro/internal/sema"
)

// Analyzer is one diagnostic pass over a single analyzed loop.
type Analyzer struct {
	// ID is the stable identifier stamped on findings (and the selector
	// accepted by Options.Analyzers).
	ID string
	// Doc is a one-line description of what the analyzer reports.
	Doc string
	// Problem names the paper data flow problem the analyzer consumes.
	Problem string
	// Default is the severity of the analyzer's ordinary findings.
	Default diag.Severity
	// Run produces the findings for the loop in ctx. It must be safe to
	// call concurrently for different contexts and must not mutate the
	// analysis results.
	Run func(ctx *Context) []diag.Finding
}

// Context bundles everything an analyzer may inspect for one loop.
type Context struct {
	// File is the display name of the source file.
	File string
	// Program and Info describe the whole (checked, normalized) program.
	Program *ast.Program
	Info    *sema.Info
	// Loop is the analyzed loop: flow graph plus the solved problems.
	Loop *driver.LoopAnalysis
	// Metrics are the driver's solver metrics for this loop.
	Metrics driver.LoopMetrics
	// DefinedBefore is the set of arrays stored to at some pre-order
	// position before the loop; reads of those arrays are assumed
	// initialized by the earlier code.
	DefinedBefore map[string]bool
	// Src is the original source text when known ("" otherwise); analyzers
	// use it to build suggested fixes that splice real lines.
	Src string

	// shared is what every loop of one run shares; race is the loop's race
	// certification once RunOn has computed it.
	shared *vetShared
	race   *raceCert
}

// vetShared is what the loops of one RunOn share: the source's line
// index (nil when the source is unknown) and, computed on first use, the
// fresh induction-variable name of uninit's fixes and the dim
// declarations of each array.
type vetShared struct {
	lines *diag.LineIndex

	prog     *ast.Program
	ivOnce   sync.Once
	iv       string
	dimsOnce sync.Once
	dims     map[string][]*ast.Dim
}

func newVetShared(prog *ast.Program, src string) *vetShared {
	sh := &vetShared{prog: prog}
	if src != "" {
		sh.lines = diag.NewLineIndex(src)
	}
	return sh
}

// freshIV returns an induction-variable name no identifier of the program
// uses.
func (sh *vetShared) freshIV() string {
	sh.ivOnce.Do(func() { sh.iv = freshName(sh.prog, "ii") })
	return sh.iv
}

// dimsOf returns every dim declaration of d's array in source order (d
// alone when the program is unknown or does not hold it).
func (sh *vetShared) dimsOf(d *ast.Dim) []*ast.Dim {
	sh.dimsOnce.Do(func() {
		sh.dims = map[string][]*ast.Dim{}
		if sh.prog == nil {
			return
		}
		ast.Inspect(sh.prog.Body, func(n ast.Node) bool {
			if x, ok := n.(*ast.Dim); ok {
				sh.dims[x.Name] = append(sh.dims[x.Name], x)
			}
			return true
		})
	})
	if ds := sh.dims[d.Name]; len(ds) > 0 {
		return ds
	}
	return []*ast.Dim{d}
}

// vet returns what the context shares with the other loops of its run; a
// context built by hand, outside RunOn, gets its own.
func (c *Context) vet() *vetShared {
	if c.shared == nil {
		c.shared = newVetShared(c.Program, c.Src)
	}
	return c.shared
}

// Facts returns the loop's range-fact environment (never-nil-safe: every
// query on a nil environment answers "unknown").
func (c *Context) Facts() *rangefacts.Facts { return c.Loop.Facts() }

// result returns the named problem's solution, or nil when it was not
// requested.
func (c *Context) result(name string) *dataflow.Result { return c.Loop.Result(name) }

// fuelExhaustedResult returns the first (by problem name) solved result of
// the loop that ran out of fuel, or ("", nil) when every solve finished
// within budget. Name order keeps the reported blocker deterministic.
func fuelExhaustedResult(c *Context) (string, *dataflow.Result) {
	names := make([]string, 0, len(c.Loop.Results()))
	for name := range c.Loop.Results() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if res := c.Loop.Result(name); res.FuelExhausted {
			return name, res
		}
	}
	return "", nil
}

// registry lists the analyzers in ID order (the order findings tie-break
// by, and the order documentation tables render in).
var registry = []*Analyzer{
	boundsAnalyzer,
	deadStoreAnalyzer,
	raceAnalyzer,
	reuseAnalyzer,
	selfCheckAnalyzer,
	uninitAnalyzer,
}

// Analyzers returns the full analyzer registry in ID order.
func Analyzers() []*Analyzer { return registry }

// RuleMetas builds the SARIF rules table for vet output: the reserved
// front-end IDs ("parse", "sema") followed by every registered analyzer.
func RuleMetas() []diag.RuleMeta {
	rules := []diag.RuleMeta{
		{ID: "parse", Doc: "syntax error reported by the parser", Default: diag.Error},
		{ID: "sema", Doc: "semantic error reported by the checker or normalizer", Default: diag.Error},
	}
	for _, a := range registry {
		m := diag.RuleMeta{ID: a.ID, Doc: a.Doc, Default: a.Default}
		if a.ID == "race" {
			// The closed blocker taxonomy, so SARIF consumers can bucket
			// unknown verdicts by the blocker.slug result property without
			// parsing prose.
			m.Properties = map[string]string{
				"blockerSlugs": strings.Join(BlockerSlugs(), ","),
			}
		}
		rules = append(rules, m)
	}
	return rules
}

// Specs returns the data flow problem instances the analyzers consume —
// the paper's four array problems.
func Specs() []*dataflow.Spec { return problems.StandardSpecs() }

// Options tunes a lint run.
type Options struct {
	// Parallelism caps worker goroutines, both in the underlying driver
	// and in the per-loop analyzer fan-out (0 = GOMAXPROCS, 1 = serial).
	// Output is identical at every setting.
	Parallelism int
	// DisableCache bypasses the driver's memo cache.
	DisableCache bool
	// CacheDir points the driver at a persistent solve cache directory
	// (see driver.Options.CacheDir); "" keeps the cache memory-only.
	CacheDir string
	// Analyzers restricts the run to the given IDs (nil = all).
	Analyzers []string
	// Src is the source text being analyzed; Vet fills it so analyzers can
	// suggest concrete text edits. Callers of Run/RunOn may leave it empty
	// (fixes are then omitted).
	Src string
	// Werror makes warning findings fail the exit code like errors.
	Werror bool
	// Baseline, when non-nil, suppresses the findings it accepts.
	Baseline *Baseline
	// Fuel bounds each per-loop solve (driver.Options.Fuel). Exhausted
	// solves degrade to "unknown" findings rather than wrong ones: every
	// analyzer consuming a degraded result reports the fuel blocker or
	// stays silent.
	Fuel int64
	// Assume seeds every loop's range-fact derivation
	// (driver.Options.Assume); front ends inject invariants the mini
	// language cannot state, e.g. `s_len ≥ 0` for Go len() bounds.
	Assume []rangefacts.Fact
}

// Run solves the four problems on every loop of a checked, normalized
// program and applies the analyzers, returning the deterministic, sorted
// finding list together with the underlying analysis (for metrics).
func Run(file string, prog *ast.Program, opts *Options) ([]diag.Finding, *driver.ProgramAnalysis, error) {
	if opts == nil {
		opts = &Options{}
	}
	pa, err := driver.Analyze(prog, &driver.Options{
		Specs:        Specs(),
		Parallelism:  opts.Parallelism,
		DisableCache: opts.DisableCache,
		CacheDir:     opts.CacheDir,
		Fuel:         opts.Fuel,
		Assume:       opts.Assume,
	})
	if err != nil {
		return nil, nil, err
	}
	return RunOn(file, pa, opts), pa, nil
}

// RunOn applies the analyzers to an existing whole-program analysis. The
// analysis must have been produced with (at least) the Specs() problems.
func RunOn(file string, pa *driver.ProgramAnalysis, opts *Options) []diag.Finding {
	fs, _ := runOn(file, pa, opts)
	return fs
}

// runOn is RunOn, also reporting how many interpreter runs the race
// analyzer's certification bridge made.
//
// The analyzers run per loop through the driver's fan-out; the race
// analyzer certifies its loop there. One bridge then checks every loop's
// verdict on the interpreter, and the race findings render from the
// verdicts and the bridge's outcomes.
func runOn(file string, pa *driver.ProgramAnalysis, opts *Options) ([]diag.Finding, int) {
	if opts == nil {
		opts = &Options{}
	}
	selected := selectAnalyzers(opts.Analyzers)
	race := slices.Index(selected, raceAnalyzer)
	before := definedBefore(pa.Prog)
	shared := newVetShared(pa.Prog, opts.Src)
	ctxs := make([]*Context, len(pa.Loops))
	slots := make([][][]diag.Finding, len(pa.Loops))
	pa.ForEachLoop(opts.Parallelism, func(i int, la *driver.LoopAnalysis) {
		ctx := &Context{
			File:          file,
			Program:       pa.Prog,
			Info:          pa.Info,
			Loop:          la,
			DefinedBefore: before[la.Loop],
			Src:           opts.Src,
			shared:        shared,
		}
		if pa.Metrics != nil && i < len(pa.Metrics.PerLoop) {
			ctx.Metrics = pa.Metrics.PerLoop[i]
		}
		ctxs[i] = ctx
		slots[i] = make([][]diag.Finding, len(selected))
		for k, a := range selected {
			if k == race {
				ctx.race = &raceCert{verdict: CertifyLoop(ctx)}
				continue
			}
			slots[i][k] = a.Run(ctx)
		}
	})
	runs := 0
	if race >= 0 {
		runs = checkCerts(pa.Prog, ctxs, opts.Parallelism)
		for i, ctx := range ctxs {
			slots[i][race] = runRace(ctx)
		}
	}
	var out []diag.Finding
	for _, byAnalyzer := range slots {
		for _, fs := range byAnalyzer {
			out = append(out, fs...)
		}
	}
	diag.Sort(out)
	return diag.Dedup(out), runs
}

func selectAnalyzers(ids []string) []*Analyzer {
	if ids == nil {
		return registry
	}
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	var out []*Analyzer
	for _, a := range registry {
		if want[a.ID] {
			out = append(out, a)
		}
	}
	return out
}

// definedBefore computes, for every loop, the set of arrays some statement
// stores to at an earlier pre-order position. The uninitialized-read
// analyzer treats those arrays as initialized: the approximation errs
// toward silence (a conditional earlier store still suppresses), never
// toward false positives.
func definedBefore(prog *ast.Program) map[*ast.DoLoop]map[string]bool {
	out := map[*ast.DoLoop]map[string]bool{}
	seen := map[string]bool{}
	var walk func(stmts []ast.Stmt)
	walk = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *ast.DoLoop:
				snap := make(map[string]bool, len(seen))
				for k := range seen {
					snap[k] = true
				}
				out[st] = snap
				walk(st.Body)
			case *ast.If:
				walk(st.Then)
				walk(st.Else)
			case *ast.Assign:
				if ar, ok := st.LHS.(*ast.ArrayRef); ok {
					seen[ar.Name] = true
				}
			}
		}
	}
	walk(prog.Body)
	return out
}

// iterations renders "1 iteration" / "n iterations".
func iterations(n int64) string {
	if n == 1 {
		return "1 iteration"
	}
	return strconv.FormatInt(n, 10) + " iterations"
}
