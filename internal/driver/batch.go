package driver

import (
	"errors"

	"repro/internal/ast"
)

// BatchResult is the outcome of one program of an AnalyzeBatch call.
// Exactly one of Analysis and Err is set.
type BatchResult struct {
	Analysis *ProgramAnalysis
	Err      error
}

// AnalyzeBatch analyzes many programs through one shared worker pool and
// the shared process-global memo cache, amortizing worker startup across
// the whole batch. Parallelism fans out across programs — each program is
// analyzed with the serial schedule by its worker, so for a batch of many
// small programs the pool stays busy without per-program goroutine churn;
// callers with one huge program should use Analyze, which parallelizes
// across a program's loops instead.
//
// Results come back in input order. A program that fails (semantic errors,
// nil entry) sets its item's Err; the rest of the batch is unaffected. Each
// Analysis is byte-identical to what a standalone Analyze of that program
// would produce.
func AnalyzeBatch(progs []*ast.Program, opts *Options) []BatchResult {
	if opts == nil {
		opts = &Options{}
	}
	out := make([]BatchResult, len(progs))
	if len(progs) == 0 {
		return out
	}
	per := *opts
	per.Parallelism = 1 // program-level fan-out replaces wave-level
	FanOut(len(progs), opts.Parallelism, func(i int) {
		if progs[i] == nil {
			out[i].Err = errors.New("nil program")
			return
		}
		out[i].Analysis, out[i].Err = Analyze(progs[i], &per)
	})
	return out
}
