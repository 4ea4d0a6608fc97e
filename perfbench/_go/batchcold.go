package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro"
)

// batch-cold: one caller runs the `arrayflow batch` sequence on one bundle
// per op, each op starting from an empty memo as a fresh batch process
// does. The bundle's shape is fixed: two growing-class wide loops (every
// statement stores its own array), one bounded-class long loop, and two
// multi-loop programs with tight nests.
var bundleShapes = []shape{
	{SymLoops: 1, Stmts: 512, MaxDist: 3},
	{SymLoops: 1, Stmts: 768, MaxDist: 3},
	{SymLoops: 1, Stmts: 1024, Arrays: 4, MaxDist: 5, CondPct: 20},
	{SymLoops: 12, Nests: 4, Stmts: 48, Arrays: 4, MaxDist: 4, CondPct: 10},
	{SymLoops: 12, Nests: 4, Stmts: 48, Arrays: 4, MaxDist: 4, CondPct: 10},
}

const (
	batchPool    = 8 // bundles drawn per seed; ops cycle through them
	batchWorkers = 2
)

type bundle struct {
	names, srcs []string
	ref         string
}

type batchCold struct {
	bundles []bundle
	order   []int
}

func setupBatchCold(env *runEnv) (session, error) {
	if err := setupOracles(env.root); err != nil {
		return nil, err
	}
	b := &batchCold{bundles: make([]bundle, batchPool)}
	for k := range b.bundles {
		bd := &b.bundles[k]
		var ref strings.Builder
		for i, sh := range bundleShapes {
			name := fmt.Sprintf("bundle%d/p%d.loop", k, i)
			src := generate(sh, env.seed*1_000_003+int64(k*len(bundleShapes)+i))
			rep, err := referenceReport(name, src)
			if err != nil {
				return nil, err
			}
			bd.names = append(bd.names, name)
			bd.srcs = append(bd.srcs, src)
			ref.WriteString("== " + name + " ==\n" + rep)
		}
		bd.ref = ref.String()
	}
	b.order = rand.New(rand.NewSource(env.seed)).Perm(batchPool)
	return b, nil
}

// referenceReport analyzes one program on the serial, memo-disabled path
// with the batch CLI's default problem set.
func referenceReport(name, src string) (string, error) {
	prog, err := frontEnd(src)
	if err != nil {
		return "", fmt.Errorf("%s: %v", name, err)
	}
	pa, err := arrayflow.AnalyzeProgramOpts(prog, &arrayflow.AnalyzeOptions{Parallelism: 1, DisableCache: true})
	if err != nil {
		return "", fmt.Errorf("%s: %v", name, err)
	}
	return pa.Report(), nil
}

func (b *batchCold) op(_, j int) (time.Duration, error) {
	return b.reenact(j, nil, nil)
}

func (b *batchCold) reenact(j int, tr *tracer, lc *layerCounts) (time.Duration, error) {
	bd := &b.bundles[b.order[j%len(b.order)]]
	arrayflow.ResetAnalysisCache()
	t0 := time.Now()
	root := tr.begin("op")
	out, err := b.run(bd, tr, lc)
	tr.end(root)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	return d, same("batch output", bd.ref, out)
}

// run is the batch sequence: parse → check → normalize per program, one
// AnalyzeProgramBatch call, then Report per program in input order.
func (b *batchCold) run(bd *bundle, tr *tracer, lc *layerCounts) (string, error) {
	progs := make([]*arrayflow.Program, len(bd.srcs))
	for i, src := range bd.srcs {
		var prog *arrayflow.Program
		var err error
		tr.call("parser", func() { prog, err = arrayflow.Parse(src) })
		if err == nil {
			tr.call("sema.check", func() { _, err = arrayflow.Check(prog) })
		}
		if err == nil {
			tr.call("sema.normalize", func() { progs[i], err = arrayflow.Normalize(prog) })
		}
		if err != nil {
			return "", fmt.Errorf("%s: %v", bd.names[i], err)
		}
	}
	var results []arrayflow.BatchResult
	tr.call("driver.analyze", func() {
		results = arrayflow.AnalyzeProgramBatch(progs, &arrayflow.AnalyzeOptions{Parallelism: batchWorkers})
	})
	var out strings.Builder
	for i, r := range results {
		if r.Err != nil {
			return "", fmt.Errorf("%s: %v", bd.names[i], r.Err)
		}
		var rep string
		tr.call("driver.report", func() { rep = r.Analysis.Report() })
		out.WriteString("== " + bd.names[i] + " ==\n" + rep)
		lc.addAnalysis(r.Analysis.Metrics)
	}
	return out.String(), nil
}

func (b *batchCold) close() error {
	arrayflow.ResetAnalysisCache()
	return nil
}
