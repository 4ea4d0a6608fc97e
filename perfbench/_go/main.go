// Command perfbench is arrayflow's end-to-end benchmark. It runs one
// workload per process, checks every op's output against a reference, and
// prints the metrics as one JSON object on the last line of stdout:
//
//	perfbench --workload vet-serve --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// re-enacts the same ops stage by stage and reports the per-layer metrics.
// perfbench/run.py builds and runs it; perfbench/README.md has the
// workloads, the metrics and the reasons behind them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro"
)

// processStart is when the main package initialised, a few milliseconds
// after exec; --launched moves setup_s's origin back to the exec itself.
var processStart = time.Now()

// session is a workload after set-up: its inputs, references and servers.
type session interface {
	// op runs caller c's j-th op and returns the latency of the op itself,
	// or an error when it failed or its output differed from the reference.
	op(c, j int) (time.Duration, error)
	// reenact runs the single traced caller's j-th op stage by stage,
	// recording spans on tr and counters on lc (both may be nil), checks
	// its output, and returns the op's wall time.
	reenact(j int, tr *tracer, lc *layerCounts) (time.Duration, error)
	close() error
}

// runEnv is what a set-up needs to know.
type runEnv struct {
	root string // checkout root: examples/ and internal/lint/testdata/
	dir  string // this process's scratch directory
	seed int64
}

type workload struct {
	name    string
	callers int
	setup   func(env *runEnv) (session, error)
}

var workloads = []workload{
	{"vet-serve", vetCallers, setupVetServe},
	{"batch-cold", 1, setupBatchCold},
	{"analyze-restart", 1, setupAnalyzeRestart},
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"op_ms.p50", "ms"},
	{"op_ms.p90", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"service.handler_ms_per_op", "ms"},
	{"service.transport_ms_per_op", "ms"},
	{"service.rejected_frac", "fraction"},
	{"parser.ms_per_op", "ms"},
	{"parser.allocs_per_op", "count"},
	{"sema.check_ms_per_op", "ms"},
	{"sema.normalize_ms_per_op", "ms"},
	{"driver.analyze_ms_per_op", "ms"},
	{"driver.alloc_mb_per_op", "MB"},
	{"driver.solves_per_op", "count"},
	{"dataflow.node_visits_per_op", "count"},
	{"dataflow.flow_apps_per_op", "count"},
	{"dataflow.max_changed_passes", "count"},
	{"driver.memo_hit_ratio", "fraction"},
	{"driver.report_ms_per_op", "ms"},
	{"driver.disk_hit_ratio", "fraction"},
	{"driver.disk_load_ms_per_op", "ms"},
	{"driver.disk_load_kb_per_op", "kB"},
	{"driver.disk_errors", "count"},
	{"lint.bounds_ms_per_op", "ms"},
	{"lint.deadstore_ms_per_op", "ms"},
	{"lint.race_ms_per_op", "ms"},
	{"lint.reuse_ms_per_op", "ms"},
	{"lint.selfcheck_ms_per_op", "ms"},
	{"lint.uninit_ms_per_op", "ms"},
	{"lint.race_mb_per_op", "MB"},
	{"lint.deadstore_mb_per_op", "MB"},
	{"lint.selfcheck_mb_per_op", "MB"},
	{"lint.findings_per_op", "count"},
	{"lint.race_decided_frac", "fraction"},
	{"diag.text_ms_per_op", "ms"},
	{"diag.json_ms_per_op", "ms"},
	{"diag.sarif_ms_per_op", "ms"},
	{"diag.kb_per_op", "kB"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.gc_cycles_per_op", "count"},
	{"trace.coverage_frac", "fraction"},
	{"trace.overhead_frac", "ratio"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: vet-serve, batch-cold or analyze-restart")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 12, "measured time per run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	root := fs.String("root", ".", "checkout root holding examples/ and internal/lint/testdata/")
	launched := fs.Int64("launched", 0, "Unix time in ns at which the caller started this process (0 = use its own start)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments %q\n", args)
		return 2
	}
	env := &runEnv{
		root: *root,
		dir:  filepath.Join(*root, ".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid())),
		seed: *seed,
	}
	defer os.RemoveAll(env.dir)
	fails := &failures{path: filepath.Join(*root, ".bench_build", "perfbench", "failures",
		fmt.Sprintf("%s-seed%d-trace%d.txt", w.name, *seed, *trace))}
	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 0 {
		start := processStart
		if *launched != 0 {
			start = time.Unix(0, *launched)
		}
		res, err = runEndToEnd(w, env, start, d, fails)
	} else {
		res, err = runTraced(w, env, d, fails,
			filepath.Join(*root, ".bench_build", "perfbench", "traces", fmt.Sprintf("%s-seed%d.json", w.name, *seed)))
	}
	if err == nil {
		err = res.print(stdout, w.name, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

type result struct {
	attempted, failed int
	metrics           map[string]float64
	defs              []metricDef
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) print(w io.Writer, name string, seed int64) error {
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]metricOut{}}
	for _, d := range r.defs {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value (%v)", d.name, v)
		}
		out.Metrics[d.name] = metricOut{v, d.unit}
		fmt.Fprintf(w, "%-30s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(w, "workload %s seed %d: %d ops, %d failed\n", name, seed, r.attempted, r.failed)
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runEndToEnd sets the workload up and drives it closed-loop for d.
// setup_s runs from start, the process start, to the first timed op.
func runEndToEnd(w *workload, env *runEnv, start time.Time, d time.Duration, fails *failures) (*result, error) {
	sess, err := w.setup(env)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// Collect set-up's garbage before the clock starts, so the first timed
	// ops do not pay for it; the collection counts in setup_s.
	runtime.GC()
	lr := closedLoop(w.callers, d, fails, sess.op)
	if err := sess.close(); err != nil {
		return nil, err
	}
	p50, err := quantile(lr.latMS, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := quantile(lr.latMS, 0.9)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	ops := float64(len(lr.latMS))
	return &result{
		attempted: len(lr.latMS),
		failed:    lr.failed,
		defs:      endToEnd,
		metrics: map[string]float64{
			"op_ms.p50":       p50,
			"op_ms.p90":       p90,
			"ops_per_s":       (ops - float64(lr.failed)) / lr.after.wall.Sub(lr.before.wall).Seconds(),
			"cpu_ms_per_op":   float64((lr.after.cpu - lr.before.cpu).Nanoseconds()) / 1e6 / ops,
			"alloc_mb_per_op": float64(lr.after.allocBytes-lr.before.allocBytes) / 1e6 / ops,
			"allocs_per_op":   float64(lr.after.allocObjs-lr.before.allocObjs) / ops,
			"peak_rss_mb":     rss,
			"setup_s":         lr.before.wall.Sub(start).Seconds(),
		},
	}, nil
}

// layerCounts accumulates the program's own counters over traced ops.
type layerCounts struct {
	solves, hits, nodeVisits, flowApps, maxPasses int
	findings, raceVerdicts, raceDecided, rendered int
}

func (lc *layerCounts) addAnalysis(m *arrayflow.AnalysisMetrics) {
	if lc == nil {
		return
	}
	lc.solves += m.Solves
	lc.hits += m.CacheHits
	lc.nodeVisits += m.NodeVisits
	lc.flowApps += m.FlowApps
	lc.maxPasses = max(lc.maxPasses, m.MaxChangedPasses)
}

func (lc *layerCounts) addFindings(fs []arrayflow.Finding, rendered int) {
	if lc == nil {
		return
	}
	lc.findings += len(fs)
	lc.rendered += rendered
	for _, f := range fs {
		if v, ok := f.Detail["verdict"]; ok && f.Analyzer == "race" {
			lc.raceVerdicts++
			if v == "parallel" || v == "racy" {
				lc.raceDecided++
			}
		}
	}
}

// runTraced sets the workload up once and re-enacts its ops with one
// caller for d. Each op runs twice in a row, first without spans and then
// with them, so the two runs see the same input and the same machine state:
// their medians give the tracing overhead.
func runTraced(w *workload, env *runEnv, d time.Duration, fails *failures, tracePath string) (*result, error) {
	sess, err := w.setup(env)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer sess.close()
	runtime.GC() // as in runEndToEnd
	res := &result{defs: perLayer, metrics: map[string]float64{}}
	tr, lc := newTracer(), &layerCounts{}
	var plain, traced []float64
	once := func(j int, tr *tracer, lc *layerCounts, lat *[]float64) {
		dur, err := sess.reenact(j, tr, lc)
		res.attempted++
		*lat = append(*lat, float64(dur.Nanoseconds())/1e6)
		if err != nil {
			res.failed++
			fails.record(fmt.Sprintf("re-enacted op %d", j), err)
		}
	}
	u0 := readUsage()
	disk0 := arrayflow.AnalysisDiskCacheStats()
	deadline := u0.wall.Add(d)
	for j := 0; time.Now().Before(deadline); j++ {
		once(j, nil, nil, &plain)
		tr.op = j
		once(j, tr, lc, &traced)
	}
	disk1 := arrayflow.AnalysisDiskCacheStats()
	u1 := readUsage()
	if len(traced) == 0 {
		return nil, fmt.Errorf("no op finished within %s", d)
	}
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}

	m := res.metrics
	totals, rootNS := tr.layerTotals()
	var namedNS int64
	for name, t := range totals {
		if name != "op" {
			namedNS += t.selfNS
		}
	}
	get := func(name string) *layerTotal {
		if t := totals[name]; t != nil {
			return t
		}
		return &layerTotal{}
	}
	ops := float64(get("op").count)
	msPerOp := func(name string) float64 { return float64(get(name).selfNS) / 1e6 / ops }
	frac := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m["service.handler_ms_per_op"] = msPerOp("service.handler")
	m["service.transport_ms_per_op"] = msPerOp("service.transport")
	m["service.rejected_frac"] = 0
	if vs, ok := sess.(*vetServe); ok {
		if m["service.rejected_frac"], err = vs.rejectedFrac(); err != nil {
			return nil, err
		}
	}
	m["parser.ms_per_op"] = msPerOp("parser")
	m["parser.allocs_per_op"] = float64(get("parser").allocObjs) / ops
	m["sema.check_ms_per_op"] = msPerOp("sema.check")
	m["sema.normalize_ms_per_op"] = msPerOp("sema.normalize")
	m["driver.analyze_ms_per_op"] = msPerOp("driver.analyze")
	m["driver.alloc_mb_per_op"] = float64(get("driver.analyze").allocBytes) / 1e6 / ops
	m["driver.solves_per_op"] = float64(lc.solves) / ops
	m["dataflow.node_visits_per_op"] = float64(lc.nodeVisits) / ops
	m["dataflow.flow_apps_per_op"] = float64(lc.flowApps) / ops
	m["dataflow.max_changed_passes"] = float64(lc.maxPasses)
	m["driver.memo_hit_ratio"] = frac(float64(lc.hits), float64(lc.solves))
	m["driver.report_ms_per_op"] = msPerOp("driver.report")
	m["driver.disk_hit_ratio"] = frac(float64(disk1.Hits-disk0.Hits), float64(disk1.Hits-disk0.Hits+disk1.Misses-disk0.Misses))
	m["driver.disk_load_ms_per_op"] = float64(disk1.LoadNS-disk0.LoadNS) / 1e6 / float64(res.attempted)
	m["driver.disk_load_kb_per_op"] = float64(disk1.LoadBytes-disk0.LoadBytes) / 1e3 / float64(res.attempted)
	m["driver.disk_errors"] = float64(disk1.Errors)
	for _, id := range analyzerIDs {
		m["lint."+id+"_ms_per_op"] = msPerOp("lint." + id)
	}
	for _, id := range []string{"race", "deadstore", "selfcheck"} {
		m["lint."+id+"_mb_per_op"] = float64(get("lint."+id).allocBytes) / 1e6 / ops
	}
	m["lint.findings_per_op"] = float64(lc.findings) / ops
	m["lint.race_decided_frac"] = frac(float64(lc.raceDecided), float64(lc.raceVerdicts))
	for _, f := range formats {
		m["diag."+f+"_ms_per_op"] = msPerOp("diag." + f)
	}
	m["diag.kb_per_op"] = float64(lc.rendered) / 1e3 / ops
	m["runtime.gc_cpu_frac"] = frac(u1.gcCPU-u0.gcCPU, u1.busyCPU-u0.busyCPU)
	m["runtime.gc_cycles_per_op"] = float64(u1.gcCycles-u0.gcCycles) / float64(res.attempted)
	m["trace.coverage_frac"] = frac(float64(namedNS), float64(rootNS))
	p50t, p50u := median(traced), median(plain)
	m["trace.overhead_frac"] = p50t / p50u
	return res, nil
}
