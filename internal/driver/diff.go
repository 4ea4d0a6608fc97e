package driver

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/token"
)

// Incremental re-analysis between two versions of a program (or two sets of
// programs): match every loop of both versions by the 128-bit content
// address its memo lookup used, report which loops changed, and re-solve
// only those — the unchanged ones are served by the memo (and, with
// Options.CacheDir, the persistent) cache warmed by the old version's
// analysis. This is the fine-grained invalidation step the ROADMAP's
// incremental-analysis item asks for: an edit to one loop of an N-loop
// program costs one solve, not N.

// DiffLoop describes one loop of the *new* version.
type DiffLoop struct {
	// Prog indexes the program (version pair) the loop belongs to; Index its
	// position in that program's analysis order (innermost first, matching
	// ProgramAnalysis.Loops).
	Prog, Index int
	// Var, Depth, and Pos identify the loop in source terms.
	Var   string
	Depth int
	Pos   token.Pos
	// Changed reports that no loop of the old version has this loop's
	// fingerprint (the loop was edited or newly added); its solve could not
	// be served from the old version's analysis.
	Changed bool
}

// DiffResult is the outcome of DiffPrograms.
type DiffResult struct {
	// Loops lists the new version's loops in deterministic order: program
	// order, then analysis order within each program.
	Loops []DiffLoop
	// Changed and Unchanged partition Loops; Removed counts old-version
	// loops whose fingerprint no longer occurs in the new version.
	Changed, Unchanged, Removed int
	// New holds the new version's analyses, one per program, in order.
	New []*ProgramAnalysis
	// OldMetrics and NewMetrics aggregate the two analysis passes.
	// NewMetrics.CacheMisses is the number of solves the edit actually
	// cost — for a 1-of-N-changed program with the cache warm, exactly the
	// changed loop's own solves.
	OldMetrics, NewMetrics *Metrics
}

// merge folds another Analyze call's metrics into m (sums and maxima, same
// conventions as the per-loop aggregation).
func (m *Metrics) merge(o *Metrics) {
	m.Loops += o.Loops
	m.Solves += o.Solves
	m.CacheHits += o.CacheHits
	m.CacheMisses += o.CacheMisses
	m.DiskHits += o.DiskHits
	m.DiskLoadBytes += o.DiskLoadBytes
	m.DiskStoreBytes += o.DiskStoreBytes
	if o.MaxChangedPasses > m.MaxChangedPasses {
		m.MaxChangedPasses = o.MaxChangedPasses
	}
	m.NodeVisits += o.NodeVisits
	m.FlowApps += o.FlowApps
	m.FuelExhausted += o.FuelExhausted
	m.Elapsed += o.Elapsed
	if o.Parallelism > m.Parallelism {
		m.Parallelism = o.Parallelism
	}
	m.PerLoop = append(m.PerLoop, o.PerLoop...)
}

// DiffPrograms analyzes the old version, then the new version over the
// warmed cache, and matches the two versions' loops by the memo key each
// loop's own solve was looked up under (LoopAnalysis.key), so the diff and
// the memo cannot disagree on what changed. The two slices pair programs
// positionally but the key match is global: a loop moved across programs
// (or across positions) still counts as unchanged. opts applies to both
// passes; Options.DisableCache is rejected because the memoization *is*
// the incremental step.
func DiffPrograms(oldProgs, newProgs []*ast.Program, opts *Options) (*DiffResult, error) {
	if opts == nil {
		opts = &Options{}
	}
	if opts.DisableCache {
		return nil, fmt.Errorf("driver: DiffPrograms requires the memo cache (Options.DisableCache is set)")
	}
	d := &DiffResult{OldMetrics: &Metrics{}, NewMetrics: &Metrics{}}

	// Pass 1: the old version. Its solves populate the memo (and, when
	// configured, the persistent) cache.
	oldCount := map[memoKey]int{}
	for i, prog := range oldProgs {
		pa, err := Analyze(prog, opts)
		if err != nil {
			return nil, fmt.Errorf("old version, program %d: %w", i, err)
		}
		d.OldMetrics.merge(pa.Metrics)
		for _, la := range pa.Loops {
			oldCount[la.key]++
		}
	}

	// Pass 2: the new version. Unchanged loops are cache hits by
	// construction (same key); the multiset match below just names them.
	for pi, prog := range newProgs {
		pa, err := Analyze(prog, opts)
		if err != nil {
			return nil, fmt.Errorf("new version, program %d: %w", pi, err)
		}
		d.New = append(d.New, pa)
		d.NewMetrics.merge(pa.Metrics)
		for i, la := range pa.Loops {
			dl := DiffLoop{Prog: pi, Index: i, Var: la.Loop.Var, Depth: la.Depth, Pos: la.Loop.DoPos}
			if oldCount[la.key] > 0 {
				oldCount[la.key]--
				d.Unchanged++
			} else {
				dl.Changed = true
				d.Changed++
			}
			d.Loops = append(d.Loops, dl)
		}
	}
	for _, n := range oldCount {
		d.Removed += n
	}
	return d, nil
}
