package lint

import (
	"repro/internal/ast"
	"repro/internal/diag"
	"repro/internal/driver"
)

// RunOnCountingRuns is RunOn, also returning the number of interpreter
// runs its certification bridge made.
func RunOnCountingRuns(file string, pa *driver.ProgramAnalysis, opts *Options) ([]diag.Finding, int) {
	return runOn(file, pa, opts)
}

// BridgeCheck is one dynamic check for SharedBridge: a witness replay, or
// (Witness nil) a permutation check under the shuffle seed Seed.
type BridgeCheck struct {
	Loop    *ast.DoLoop
	Witness *Witness
	Seed    int64
}

// SharedBridge settles every check in one bridge for prog and returns the
// outcomes in check order, with the interpreter runs the bridge made.
func SharedBridge(prog *ast.Program, checks []BridgeCheck, parallelism int) ([]error, int) {
	jobs := make([]*bridgeJob, len(checks))
	for i, c := range checks {
		jobs[i] = &bridgeJob{loop: c.Loop, witness: c.Witness, shuffleSeed: c.Seed}
	}
	b := newBridge(prog)
	b.run(jobs, parallelism)
	out := make([]error, len(jobs))
	for i, j := range jobs {
		out[i] = j.err
	}
	return out, b.runs
}

// MaxBlockingDist bounds the carried-edge count's distances.
const MaxBlockingDist = maxBlockingDist

// CarriedEdges is the race analyzer's count of a loop's carried
// dependence edges.
func CarriedEdges(la *driver.LoopAnalysis) int {
	return carriedEdges(la.Graph(), la.Result("delta-reaching-refs"))
}
