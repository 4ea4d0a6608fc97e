// Pooling of solver storage. Two mechanisms cooperate:
//
//   - Scratch is an explicitly-owned free list of the per-solve buffers that
//     never escape a solve (the LO/HI/GEN bound rows, the compiled clamp
//     list, the preserve memo, the init pass's visited row, the
//     shared-context signature mask). A driver keeps one Scratch per worker
//     goroutine and routes it through Options.Scratch, so a worker's steady
//     state re-solves loops with zero transient allocations. When
//     Options.Scratch is nil the solver borrows one from a process-wide
//     sync.Pool, which degrades gracefully to per-P free lists.
//
//   - Result.Release returns a discarded Result's packed rows to a
//     process-wide pool. Only the sole owner of a Result may call it; the
//     driver uses it for the §3.6 with-respect-to solves whose Results are
//     dropped after reuse extraction when the memo cache is disabled.
package dataflow

import (
	"sync"

	"repro/internal/lattice"
)

// Scratch is a reusable bundle of solver transients. It is not safe for
// concurrent use; callers keep one per worker. The zero value is ready.
type Scratch struct {
	visited []bool
	mask    []byte
	// words are the per-solve word rows (LO, HI, GEN, one-row scratch,
	// preserve memo bits); ints the compiler's candidate stamps and form
	// IDs; dists the preserve memo; clamps the compiled clamp list.
	words  [5][]uint64
	ints   [2][]int32
	dists  []lattice.Dist
	clamps []clamp
}

// NewScratch returns an empty scratch bundle (buffers grow on demand).
func NewScratch() *Scratch { return &Scratch{} }

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

// scratchPool backs solves whose Options carry no Scratch.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// scratchFor resolves the scratch for a solve: the caller-owned one when
// set, a pooled one otherwise. done returns a pooled scratch; it is a no-op
// for caller-owned scratches.
func scratchFor(opts *Options) (sc *Scratch, done func()) {
	if opts.Scratch != nil {
		return opts.Scratch, func() {}
	}
	sc = scratchPool.Get().(*Scratch)
	return sc, func() { scratchPool.Put(sc) }
}

// packedPool recycles Result row backings (*[]uint64).
var packedPool sync.Pool

// getRows returns a zeroed row backing of length n; undersized pooled
// backings are dropped for the allocator.
func getRows(n int) []uint64 {
	if v := packedPool.Get(); v != nil {
		if s := *(v.(*[]uint64)); cap(s) >= n {
			s = s[:n]
			clear(s)
			return s
		}
	}
	return make([]uint64, n)
}

// Release returns the Result's packed rows to the solver's pool. Call it
// only when this Result is about to be discarded and nothing else holds a
// reference to it (never on a memoized/shared Result). Reuse records,
// Classes, Metrics, Trace, and the Graph stay valid; InAt, OutAt,
// TupleTable, InitIn and InitOut do not.
func (res *Result) Release() {
	if cap(res.rows) > 0 {
		rows := res.rows[:0]
		packedPool.Put(&rows)
	}
	res.rows = nil
}
