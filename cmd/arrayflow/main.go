// Command arrayflow parses a loop program and runs the array data flow
// analyses over it.
//
// The default mode prints one analysis in the style of the paper's
// Table 1 — the loop flow graph, the IN/OUT tuple tables, and the derived
// facts (reuses, redundant stores, or dependences):
//
//	arrayflow [-analysis reach|avail|busy|deps] [-trace] [-metrics] [-loop n] [file]
//
// The vet mode runs every static analyzer (internal/lint) over every loop
// and prints source-positioned findings:
//
//	arrayflow vet [-format text|json|sarif] [-fix] [-werror] [-baseline file]
//	              [-updatebaseline] [-workers n] [-nocache] [-metrics] [file]
//
// Vet's exit status contract: 0 when the analysis ran and no (unsuppressed)
// error finding remains, 1 when error findings exist (warnings too under
// -werror), and 2 when the front end or the analysis itself failed.
// -format sarif emits a SARIF 2.1.0 log for code-scanning upload; -fix
// applies the analyzers' suggested fixes to the file in place, re-analyzing
// until none apply, so a second -fix run is a no-op; //lint:ignore
// directives and -baseline files suppress accepted findings.
//
// The batch mode analyzes many programs — files and/or directories of
// .loop files — through one shared worker pool, one identifier intern
// table, and the shared memoizing solve cache, printing each program's
// whole-program report in input order:
//
//	arrayflow batch [-workers n] [-nocache] [-vectors] [-metrics] path...
//
// The diff mode fingerprints two versions of a program (or two Go package
// trees with -lang go), reports which loops changed, and re-solves only
// those — unchanged loops are served from the memo cache warmed by the old
// version (and, with -cache-dir, from the persistent cache across process
// restarts). Exit status: 0 when nothing changed, 1 when changed or removed
// loops exist, 2 when either version fails the front end:
//
//	arrayflow diff [-lang loop|go] [-include-tests] [-workers n] [-metrics]
//	               [-cache-dir dir] [-fuel n] old new
//
// The serve mode runs the analyses as a long-lived HTTP/JSON daemon —
// /v1/analyze, /v1/vet, /v1/batch, and /v1/stats over the shared memo
// cache, with queue-depth admission control (429 + Retry-After on
// overload), per-request deadlines, and a graceful SIGTERM drain that
// exits 0. Responses are byte-identical to the corresponding CLI output;
// the wire reference lives in docs/API.md and the runbook in
// docs/OPERATIONS.md:
//
//	arrayflow serve [-addr host:port] [-workers n] [-max-queue n]
//	                [-deadline d] [-max-body n] [-nocache]
//	                [-cache-dir dir] [-drain-timeout d] [-fuel n]
//
// Every analyzing mode accepts -cache-dir: a persistent, content-addressed
// solve cache shared across processes, letting a cold process warm-start
// previously analyzed loops at memo-hit speed. Its counters print to stderr
// only — stdout stays byte-identical between cold and warm runs.
//
// With no file the program is read from stdin. With no file and no piped
// input, the paper's Figure 1 loop is analyzed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"

	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/experiments"
	"repro/internal/goimport"
	"repro/internal/ir"
	"repro/internal/lint"
	"repro/internal/problems"
	"repro/internal/rangefacts"
	"repro/internal/sema"
	"repro/internal/token"
)

// stopProfiles flushes any active profiles; it must run before every exit
// path once startProfiles has been called (os.Exit skips deferred calls).
var stopProfiles = func() {}

// startProfiles starts CPU profiling and arranges the heap profile write,
// installing the combined flush as stopProfiles.
func startProfiles(cpu, mem string) {
	var stops []func()
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if mem != "" {
		stops = append(stops, func() {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "arrayflow: memprofile:", err)
				return
			}
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "arrayflow: memprofile:", err)
			}
			f.Close()
		})
	}
	stopProfiles = func() {
		for _, s := range stops {
			s()
		}
		stopProfiles = func() {}
	}
}

func main() {
	if len(os.Args) >= 2 && os.Args[1] == "vet" {
		runVet(os.Args[2:])
		return
	}
	if len(os.Args) >= 2 && os.Args[1] == "batch" {
		runBatch(os.Args[2:])
		return
	}
	if len(os.Args) >= 2 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	if len(os.Args) >= 2 && os.Args[1] == "diff" {
		runDiff(os.Args[2:])
		return
	}

	analysis := flag.String("analysis", "reach",
		"analysis to run: reach (must-reaching defs), avail (δ-available), busy (δ-busy stores), deps (δ-reaching refs)")
	trace := flag.Bool("trace", false, "print initialization and per-pass tuple tables (Table 1 style)")
	metrics := flag.Bool("metrics", false, "print solver metrics: passes, node visits, flow applications, cache hits, wall time")
	loopIdx := flag.Int("loop", 0, "index of the top-level loop to analyze")
	whole := flag.Bool("program", false, "run the whole-program hierarchical analysis (§3.2) instead of a single loop")
	workers := flag.Int("workers", 0, "worker goroutines for -program (0 = GOMAXPROCS, 1 = serial)")
	nocache := flag.Bool("nocache", false, "disable the memoizing solve cache for -program")
	cacheDir := flag.String("cache-dir", "", "persistent solve cache directory for -program (empty = memory-only)")
	fuel := flag.Int64("fuel", 0, "per-solve fuel budget in flow-application units (0 = derived default; exhausted solves degrade to claim-nothing facts)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	startProfiles(*cpuprofile, *memprofile)
	defer stopProfiles()

	prog := loadProgram(flag.Arg(0))

	if *whole {
		pa, err := driver.Analyze(prog, &driver.Options{
			NestVectors: true, Parallelism: *workers, DisableCache: *nocache,
			CacheDir: *cacheDir, Fuel: *fuel})
		if err != nil {
			fatal(err)
		}
		fmt.Print(pa.Report())
		if *metrics {
			fmt.Println("-- solver metrics --")
			fmt.Print(pa.Metrics.Report())
		}
		if *cacheDir != "" {
			reportDiskStats("arrayflow")
		}
		return
	}

	loop, err := pickLoop(prog, *loopIdx)
	if err != nil {
		fatal(err)
	}
	g := ir.Build(loop, nil)

	var spec *dataflow.Spec
	switch *analysis {
	case "reach":
		spec = problems.MustReachingDefs()
	case "avail":
		spec = problems.AvailableValues()
	case "busy":
		spec = problems.BusyStores()
	case "deps":
		spec = problems.ReachingRefs()
	default:
		fatal(fmt.Errorf("unknown analysis %q", *analysis))
	}

	res := dataflow.Solve(g, spec, &dataflow.Options{CollectTrace: *trace, Fuel: *fuel})
	if res.FuelExhausted {
		fmt.Printf("-- fuel budget %d exhausted: facts degraded to claim nothing --\n", res.FuelBudget)
	}

	fmt.Println(g.Dump())
	if *trace {
		fmt.Println("-- initialization pass --")
		fmt.Println(res.TupleTable(0))
		for p := 1; p <= len(res.Trace); p++ {
			fmt.Printf("-- iteration pass %d --\n", p)
			fmt.Println(res.TupleTable(p))
		}
	}
	fmt.Printf("-- fixed point (%s, %d changing passes) --\n", spec.Name, res.ChangedPasses)
	fmt.Println(res.TupleTable(-1))
	if *metrics {
		m := res.Metrics()
		fmt.Printf("-- solver metrics --\n")
		fmt.Printf("  nodes %d, classes %d, passes %d (%d changing), node visits %d, flow applications %d, wall %s\n",
			m.Nodes, m.Classes, m.Passes, m.ChangedPasses, m.NodeVisits, m.FlowApps, m.Elapsed)
	}

	switch *analysis {
	case "reach", "avail":
		fmt.Println("-- guaranteed reuses --")
		for _, r := range problems.FindReuses(res) {
			fmt.Println("  " + r.String())
		}
	case "busy":
		fmt.Println("-- redundant stores --")
		for _, r := range problems.FindRedundantStores(res) {
			fmt.Println("  " + r.String())
		}
	case "deps":
		fmt.Println("-- dependences (distance ≤ 8) --")
		for _, d := range problems.FindDependences(res, 8) {
			fmt.Println("  " + d.String())
		}
	}
}

// runBatch implements the `arrayflow batch` subcommand: many programs
// analyzed through driver.AnalyzeBatch with a shared intern table and
// worker pool. Exit status: 0 when every program analyzed cleanly, 1 when
// any failed, 2 on usage or I/O failure.
func runBatch(args []string) {
	fs := flag.NewFlagSet("arrayflow batch", flag.ExitOnError)
	workers := fs.Int("workers", 0, "worker goroutines across programs (0 = GOMAXPROCS, 1 = serial)")
	nocache := fs.Bool("nocache", false, "disable the memoizing solve cache")
	cacheDir := fs.String("cache-dir", "", "persistent solve cache directory shared across runs (empty = memory-only)")
	vectors := fs.Bool("vectors", false, "run the §6 distance-vector extension on tight nests")
	metrics := fs.Bool("metrics", false, "print batch totals and cache stats to stderr")
	fuel := fs.Int64("fuel", 0, "per-solve fuel budget in flow-application units (0 = derived default)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: arrayflow batch [-workers n] [-nocache] [-cache-dir dir] [-vectors] [-metrics] [-fuel n] path...")
		fmt.Fprintln(os.Stderr, "each path is a .loop file or a directory of .loop files")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	files, err := expandBatchPaths(fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "arrayflow batch:", err)
		os.Exit(2)
	}
	if len(files) == 0 {
		fs.Usage()
		os.Exit(2)
	}

	// Front end: one intern table across every file, so an identifier read
	// in program 1 is the same symbol in program 100. Parsing is serial
	// (the interner is not synchronized); the analysis fans out below.
	in := token.NewInterner()
	progs := make([]*ast.Program, len(files))
	for i, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "arrayflow batch:", err)
			os.Exit(2)
		}
		progs[i] = load(f, src, in)
	}

	startProfiles(*cpuprofile, *memprofile)
	results := driver.AnalyzeBatch(progs, &driver.Options{
		NestVectors: *vectors, Parallelism: *workers,
		DisableCache: *nocache, CacheDir: *cacheDir,
		Fuel: *fuel})

	exit := 0
	var totalLoops, totalSolves, totalHits, totalMisses int
	for i, r := range results {
		fmt.Printf("== %s ==\n", files[i])
		switch {
		case progs[i] == nil:
			fmt.Println("skipped: front-end errors (see stderr)")
			exit = 1
		case r.Err != nil:
			fmt.Println("error:", r.Err)
			exit = 1
		default:
			fmt.Print(r.Analysis.Report())
			m := r.Analysis.Metrics
			totalLoops += m.Loops
			totalSolves += m.Solves
			totalHits += m.CacheHits
			totalMisses += m.CacheMisses
		}
	}
	if *metrics {
		entries, hits, misses := driver.CacheStats()
		fmt.Fprintf(os.Stderr, "-- batch metrics --\n")
		fmt.Fprintf(os.Stderr, "  programs %d, loops %d, solves %d, batch cache hits/misses %d/%d\n",
			len(files), totalLoops, totalSolves, totalHits, totalMisses)
		fmt.Fprintf(os.Stderr, "  global cache: %d entries, lifetime hits/misses %d/%d\n",
			entries, hits, misses)
	}
	if *cacheDir != "" {
		reportDiskStats("arrayflow batch")
	}
	stopProfiles()
	os.Exit(exit)
}

// reportDiskStats prints the process-wide persistent-cache counters to
// stderr — never stdout, which must stay byte-identical between cold and
// disk-warm runs (the CI warm-start smoke depends on that).
func reportDiskStats(prefix string) {
	ds := driver.DiskCacheStats()
	fmt.Fprintf(os.Stderr, "%s: disk cache: %d hits, %d misses, %d stores, %d errors, %d bytes loaded, %d bytes stored\n",
		prefix, ds.Hits, ds.Misses, ds.Stores, ds.Errors, ds.LoadBytes, ds.StoreBytes)
}

// expandBatchPaths resolves each argument to .loop files: directories
// contribute their *.loop entries sorted by name, files pass through.
func expandBatchPaths(args []string) ([]string, error) {
	var files []string
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			files = append(files, a)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(a, "*.loop"))
		if err != nil {
			return nil, err
		}
		sort.Strings(matches)
		files = append(files, matches...)
	}
	return files, nil
}

// runVet implements the `arrayflow vet` subcommand. Exit status contract:
// 0 when the analysis ran and reported no unsuppressed error findings
// (warnings too count under -werror), 1 when such findings exist, and 2
// when the front end or the analysis itself failed (including usage and
// I/O errors) — findings are then incomplete and must not be trusted as
// "clean".
func runVet(args []string) {
	fs := flag.NewFlagSet("arrayflow vet", flag.ExitOnError)
	format := fs.String("format", "text", "output format: text, json, or sarif (SARIF 2.1.0)")
	lang := fs.String("lang", "loop", "input language: loop (mini-language file) or go (package pattern, e.g. ./...)")
	includeTests := fs.Bool("include-tests", false, "with -lang go, also analyze _test.go files")
	fix := fs.Bool("fix", false, "apply suggested fixes to the file in place, re-analyzing until none apply")
	werror := fs.Bool("werror", false, "treat warning findings as errors for the exit status")
	baselinePath := fs.String("baseline", "", "suppress the findings accepted by this baseline file")
	updateBaseline := fs.Bool("updatebaseline", false, "rewrite the -baseline file from the current findings and report none")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	nocache := fs.Bool("nocache", false, "disable the memoizing solve cache")
	cacheDir := fs.String("cache-dir", "", "persistent solve cache directory shared across runs (empty = memory-only)")
	metrics := fs.Bool("metrics", false, "print analysis metrics to stderr")
	fuel := fs.Int64("fuel", 0, "per-solve fuel budget in flow-application units (0 = derived default; exhausted loops report unknown verdicts)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	var assume []rangefacts.Fact
	fs.Func("assume", "inject a range-fact assumption in mini-language condition syntax, e.g. 'k >= 64' (repeatable; 'and' conjoins). Unknown-verdict why-certificates name the missing fact this flag supplies", func(s string) error {
		facts, err := rangefacts.ParseAssumption(s)
		if err != nil {
			return err
		}
		assume = append(assume, facts...)
		return nil
	})
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: arrayflow vet [-lang loop|go] [-format text|json|sarif] [-assume cond] [-fix] [-werror] [-baseline file] [-updatebaseline] [-include-tests] [-workers n] [-nocache] [-cache-dir dir] [-metrics] [-fuel n] [-cpuprofile file] [-memprofile file] [file|pattern]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *format != "text" && *format != "json" && *format != "sarif" {
		fmt.Fprintf(os.Stderr, "arrayflow vet: unknown -format %q (want text, json, or sarif)\n", *format)
		os.Exit(2)
	}
	if *lang != "loop" && *lang != "go" {
		fmt.Fprintf(os.Stderr, "arrayflow vet: unknown -lang %q (want loop or go)\n", *lang)
		os.Exit(2)
	}
	opts := &lint.Options{Parallelism: *workers, DisableCache: *nocache, CacheDir: *cacheDir, Werror: *werror, Fuel: *fuel, Assume: assume}
	if *baselinePath != "" && !*updateBaseline {
		b, err := lint.ReadBaselineFile(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "arrayflow vet:", err)
			os.Exit(2)
		}
		opts.Baseline = b
	}

	if *lang == "go" {
		runVetGo(fs.Arg(0), opts, *format, *fix, *includeTests, *baselinePath, *updateBaseline, *metrics, *cpuprofile, *memprofile)
		return
	}

	src, file, err := readSource(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "arrayflow vet:", err)
		os.Exit(2)
	}
	// Profiles start here so they cover the analysis, and are flushed
	// explicitly on every exit path (os.Exit skips defers).
	startProfiles(*cpuprofile, *memprofile)

	var res *lint.VetResult
	if *fix {
		if fs.Arg(0) == "" {
			fmt.Fprintln(os.Stderr, "arrayflow vet: -fix needs a named file to rewrite")
			stopProfiles()
			os.Exit(2)
		}
		out, err := lint.Fix(file, src, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "arrayflow vet:", err)
			stopProfiles()
			os.Exit(2)
		}
		if out.Src != src {
			if err := os.WriteFile(file, []byte(out.Src), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "arrayflow vet:", err)
				stopProfiles()
				os.Exit(2)
			}
		}
		if out.Applied > 0 {
			fmt.Fprintf(os.Stderr, "arrayflow vet: applied %d fix(es) in %d round(s)\n", out.Applied, out.Rounds)
		}
		res = out.Result
	} else {
		res = lint.Vet(file, src, opts)
	}

	if *updateBaseline {
		if *baselinePath == "" {
			fmt.Fprintln(os.Stderr, "arrayflow vet: -updatebaseline needs -baseline file")
			stopProfiles()
			os.Exit(2)
		}
		if res.FrontEndFailed {
			fmt.Fprintln(os.Stderr, "arrayflow vet: refusing to baseline a source that does not analyze")
			stopProfiles()
			os.Exit(2)
		}
		b := lint.NewBaseline(res.Findings)
		if err := b.WriteBaselineFile(*baselinePath); err != nil {
			fmt.Fprintln(os.Stderr, "arrayflow vet:", err)
			stopProfiles()
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "arrayflow vet: wrote %d baseline entrie(s) to %s\n", len(b.Entries), *baselinePath)
		stopProfiles()
		os.Exit(0)
	}

	switch *format {
	case "json":
		err = diag.WriteJSON(os.Stdout, file, res.Findings)
	case "sarif":
		err = diag.WriteSARIF(os.Stdout, file, lint.RuleMetas(), res.Findings)
	default:
		err = diag.WriteText(os.Stdout, file, res.Findings)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "arrayflow vet:", err)
		stopProfiles()
		os.Exit(2)
	}
	if *metrics && res.Analysis != nil {
		fmt.Fprintln(os.Stderr, "-- analysis metrics --")
		fmt.Fprint(os.Stderr, res.Analysis.Metrics.Report())
	}
	if *cacheDir != "" {
		reportDiskStats("arrayflow vet")
	}
	stopProfiles()
	os.Exit(res.ExitCode())
}

// runVetGo implements `arrayflow vet -lang go`: the pattern (a package
// directory, dir/..., or a single .go file; default ./...) is imported
// through internal/goimport, every lowered loop nest is analyzed with the
// full analyzer set, and findings — including the importer's positioned
// blocker findings — print against the real .go files. The exit contract
// matches the mini-language path; -fix is rejected (suggested fixes splice
// mini-language text, not Go).
func runVetGo(pattern string, opts *lint.Options, format string, fix, includeTests bool, baselinePath string, updateBaseline, metrics bool, cpuprofile, memprofile string) {
	if fix {
		fmt.Fprintln(os.Stderr, "arrayflow vet: -fix is not supported with -lang go")
		os.Exit(2)
	}
	if pattern == "" {
		pattern = "./..."
	}
	startProfiles(cpuprofile, memprofile)
	res, err := goimport.Vet(pattern, includeTests, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arrayflow vet:", err)
		stopProfiles()
		os.Exit(2)
	}

	if updateBaseline {
		if baselinePath == "" {
			fmt.Fprintln(os.Stderr, "arrayflow vet: -updatebaseline needs -baseline file")
			stopProfiles()
			os.Exit(2)
		}
		if res.FrontEndFailed {
			fmt.Fprintln(os.Stderr, "arrayflow vet: refusing to baseline a source that does not analyze")
			stopProfiles()
			os.Exit(2)
		}
		b := lint.NewBaseline(res.Findings)
		if err := b.WriteBaselineFile(baselinePath); err != nil {
			fmt.Fprintln(os.Stderr, "arrayflow vet:", err)
			stopProfiles()
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "arrayflow vet: wrote %d baseline entrie(s) to %s\n", len(b.Entries), baselinePath)
		stopProfiles()
		os.Exit(0)
	}

	switch format {
	case "json":
		err = diag.WriteJSON(os.Stdout, pattern, res.Findings)
	case "sarif":
		err = diag.WriteSARIF(os.Stdout, pattern, goimport.RuleMetas(), res.Findings)
	default:
		err = diag.WriteText(os.Stdout, pattern, res.Findings)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "arrayflow vet:", err)
		stopProfiles()
		os.Exit(2)
	}
	if metrics {
		entries, hits, misses := driver.CacheStats()
		fmt.Fprintln(os.Stderr, "-- analysis metrics --")
		fmt.Fprintf(os.Stderr, "  cache: %d entries, hits/misses %d/%d\n", entries, hits, misses)
	}
	if opts.CacheDir != "" {
		reportDiskStats("arrayflow vet")
	}
	stopProfiles()
	os.Exit(res.ExitCode())
}

// loadProgram reads and front-ends the input, exiting 1 after printing
// every front-end error.
func loadProgram(path string) *ast.Program {
	src, file, err := readSource(path)
	if err != nil {
		fatal(err)
	}
	prog := load(file, []byte(src), nil)
	if prog == nil {
		os.Exit(1)
	}
	return prog
}

// load front-ends one source (see sema.Load). On failure it prints every
// error of the failing stage to stderr as "file:line:col: stage: message"
// and returns nil.
func load(file string, src []byte, in *token.Interner) *ast.Program {
	prog, fail := sema.Load(src, in)
	if fail != nil {
		for _, l := range fail.Lines(file) {
			fmt.Fprintln(os.Stderr, l)
		}
	}
	return prog
}

// readSource returns the program text and a display name for diagnostics.
func readSource(path string) (src, file string, err error) {
	if path != "" {
		b, err := os.ReadFile(path)
		return string(b), path, err
	}
	st, err := os.Stdin.Stat()
	if err == nil && (st.Mode()&os.ModeCharDevice) == 0 {
		b, err := io.ReadAll(os.Stdin)
		return string(b), "<stdin>", err
	}
	fmt.Fprintln(os.Stderr, "(no input: analyzing the paper's Figure 1 loop)")
	return experiments.Fig1Source, "<figure1>", nil
}

func pickLoop(prog *ast.Program, idx int) (*ast.DoLoop, error) {
	var loops []*ast.DoLoop
	for _, s := range prog.Body {
		if dl, ok := s.(*ast.DoLoop); ok {
			loops = append(loops, dl)
		}
	}
	if len(loops) == 0 {
		return nil, fmt.Errorf("program contains no loop")
	}
	if idx < 0 || idx >= len(loops) {
		return nil, fmt.Errorf("loop index %d out of range (have %d)", idx, len(loops))
	}
	return loops[idx], nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "arrayflow:", err)
	stopProfiles()
	os.Exit(1)
}
