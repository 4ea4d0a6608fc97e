// Pooling of solver storage. Every buffer a solve needs only while it runs
// — the compiled clamp list and its per-class grouping, the preserve memo,
// the shared-context signature mask, one class's walk points and the
// change points collected for the stored form — lives in a Scratch that
// Solve and SolveAll borrow from one process-wide sync.Pool and return when
// they finish. A worker that solves loop after loop therefore reuses one
// set of buffers, and a finished Result holds only its change-point form
// (rows.go).
package dataflow

import "sync"

// Scratch is a reusable bundle of solver transients. It is not safe for
// concurrent use; each solve holds one for its duration.
type Scratch struct {
	mask []byte
	// ints are the compiler's candidate stamps, form IDs, and per-array
	// extra-form counts and chain heads; extra the extra killer forms;
	// base the per-array memo block offsets; memo and memoDone the
	// preserve memo's codes and filled cells; clamps the compiled clamp
	// list, byClass the same grouped by class and first the groups' offsets.
	// Keeping the per-array layout here, not per compile, is what keeps a
	// reused scratch's compiles allocation-free.
	ints     [4][]int32
	extra    []extraForm
	base     []int
	memo     []uint64
	memoDone []uint64
	clamps   []clamp
	byClass  []clamp
	first    []int32
	// w walks one class at a time; rows collects the change points.
	w    walker
	rows rowBuilder
}

// grow returns *buf resized to length n, reallocating only when the
// capacity is short. Contents are unspecified: callers clear or fully
// overwrite them.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// scratchPool holds the scratches solves borrow.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}
