// Pooling of solver storage. Every buffer a solve needs only while it runs
// — the dense IN/OUT rows it iterates over, the LO/HI/GEN bound rows, the
// compiled clamp list, the preserve memo, the init pass's visited row, the
// shared-context signature mask and the change-point counters — lives in a
// Scratch that Solve and SolveAll borrow from one process-wide sync.Pool
// and return when they finish. A worker that solves loop after loop
// therefore reuses one set of rows, and a finished Result holds only its
// change-point form (rows.go).
package dataflow

import (
	"sync"

	"repro/internal/lattice"
)

// Scratch is a reusable bundle of solver transients. It is not safe for
// concurrent use; each solve holds one for its duration.
type Scratch struct {
	visited []bool
	mask    []byte
	// words are the per-solve word rows (IN, OUT, LO, HI, GEN, one-row
	// scratch, preserve memo bits); ints the compiler's candidate stamps,
	// form IDs, and per-array extra-form counts and chain heads; extra the
	// extra killer forms; base the per-array memo block offsets; dists the
	// preserve memo; clamps the compiled clamp list; changes and runs the
	// change-point encoder's collected points and per-run counts. Keeping
	// the per-array layout here, not per compile, is what keeps a reused
	// scratch's compiles allocation-free.
	words   [7][]uint64
	ints    [4][]int32
	extra   []extraForm
	base    []int
	dists   []lattice.Dist
	clamps  []clamp
	changes []change
	runs    []uint32
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
