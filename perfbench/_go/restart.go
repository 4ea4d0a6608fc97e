package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro"
)

// analyze-restart: set-up analyzes a pool of programs with a persistent
// cache directory; every op then drops the memo, as a redeployed process
// starts without one, and analyzes a group of programs with the same
// directory, so every solve is a disk hit. Report forces the deferred
// restore. One caller, because the memo reset is process-global. A group
// keeps an op near 50 ms: ops of one 15 ms program let every scheduler
// stall on the shared machine move p90.
var restartShape = shape{SymLoops: 12, Nests: 4, Stmts: 48, Arrays: 4, MaxDist: 4, CondPct: 10}

const (
	restartPool  = 32
	restartGroup = 4 // programs per op; divides restartPool
)

type restartProg struct {
	name, src, ref string
}

type analyzeRestart struct {
	progs    []restartProg
	order    []int
	cacheDir string
}

func setupAnalyzeRestart(env *runEnv) (session, error) {
	if err := setupOracles(env.root); err != nil {
		return nil, err
	}
	// Each set-up gets a directory of its own: the driver keeps a cache
	// directory it has opened for the life of the process and does not
	// re-create it once removed.
	if err := os.MkdirAll(env.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(env.dir, "cache-")
	if err != nil {
		return nil, err
	}
	a := &analyzeRestart{cacheDir: dir}
	before := arrayflow.AnalysisDiskCacheStats()
	for k := 0; k < restartPool; k++ {
		p := restartProg{
			name: fmt.Sprintf("restart%02d.loop", k),
			src:  generate(restartShape, env.seed*1_000_003+int64(k)),
		}
		if p.ref, err = referenceReport(p.name, p.src); err != nil {
			return nil, err
		}
		out, _, err := a.run(&p, nil, nil)
		if err == nil {
			err = same(p.name+" report", p.ref, out)
		}
		if err != nil {
			return nil, fmt.Errorf("populating the disk cache: %w", err)
		}
		a.progs = append(a.progs, p)
	}
	if st := arrayflow.AnalysisDiskCacheStats(); st.Stores == before.Stores || st.Errors != before.Errors {
		return nil, fmt.Errorf("populating the disk cache stored %d entries with %d errors",
			st.Stores-before.Stores, st.Errors-before.Errors)
	}
	a.order = rand.New(rand.NewSource(env.seed)).Perm(restartPool)
	return a, nil
}

func (a *analyzeRestart) options() *arrayflow.AnalyzeOptions {
	return &arrayflow.AnalyzeOptions{Parallelism: batchWorkers, CacheDir: a.cacheDir}
}

func (a *analyzeRestart) op(_, j int) (time.Duration, error) {
	return a.reenact(j, nil, nil)
}

// reenact runs op j: the j-th group of programs in the seeded order, each
// one analyzed and reported.
func (a *analyzeRestart) reenact(j int, tr *tracer, lc *layerCounts) (time.Duration, error) {
	group := make([]*restartProg, restartGroup)
	for i := range group {
		group[i] = &a.progs[a.order[(j*restartGroup+i)%len(a.order)]]
	}
	arrayflow.ResetAnalysisCache()
	disk0 := arrayflow.AnalysisDiskCacheStats()
	t0 := time.Now()
	root := tr.begin("op")
	outs := make([]string, len(group))
	ms := make([]*arrayflow.AnalysisMetrics, len(group))
	var err error
	for i, p := range group {
		if outs[i], ms[i], err = a.run(p, tr, lc); err != nil {
			break
		}
	}
	tr.end(root)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	// A disk load that fails falls back to a cold solve with the same
	// report, so the reports alone would not show that the op stopped
	// reading the cache: every memo miss must have been a disk hit.
	if errs := arrayflow.AnalysisDiskCacheStats().Errors - disk0.Errors; errs != 0 {
		return d, fmt.Errorf("%d disk cache errors during the op", errs)
	}
	for i, p := range group {
		if m := ms[i]; m.CacheMisses == 0 || m.DiskHits != m.CacheMisses {
			return d, fmt.Errorf("%s: %d of %d memo misses served from disk", p.name, m.DiskHits, m.CacheMisses)
		}
		if err := same(p.name+" report", p.ref, outs[i]); err != nil {
			return d, err
		}
	}
	return d, nil
}

// run is parse → normalize → analyze with the cache directory → Report. It
// returns the report and the analysis's counters.
func (a *analyzeRestart) run(p *restartProg, tr *tracer, lc *layerCounts) (string, *arrayflow.AnalysisMetrics, error) {
	var prog *arrayflow.Program
	var pa *arrayflow.ProgramAnalysis
	var err error
	tr.call("parser", func() { prog, err = arrayflow.Parse(p.src) })
	if err == nil {
		tr.call("sema.normalize", func() { prog, err = arrayflow.Normalize(prog) })
	}
	if err == nil {
		tr.call("driver.analyze", func() { pa, err = arrayflow.AnalyzeProgramOpts(prog, a.options()) })
	}
	if err != nil {
		return "", nil, fmt.Errorf("%s: %v", p.name, err)
	}
	var rep string
	tr.call("driver.report", func() { rep = pa.Report() })
	lc.addAnalysis(pa.Metrics)
	return rep, pa.Metrics, nil
}

func (a *analyzeRestart) close() error {
	arrayflow.ResetAnalysisCache()
	return os.RemoveAll(a.cacheDir)
}
