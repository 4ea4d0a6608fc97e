// Package interp is a reference interpreter for the loop mini-language.
//
// It serves as the semantic oracle of this reproduction: every optimization
// (register pipelining, load/store elimination, unrolling, peeling) is
// validated by running the original and the transformed program on the same
// inputs and comparing final memory states. The interpreter also counts
// source-level array loads and stores, giving an architecture-independent
// measure of the memory traffic the optimizations remove.
//
// A program runs in a compiled form (Compile), built once and run as often
// as needed; Run compiles and runs in one call.
package interp

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/token"
)

// State is the mutable program state. Array elements live in per-array
// tables keyed by their integer subscript tuples; a cell that was never
// written reads through the state's Seed, or as 0 without one.
type State struct {
	Scalars map[string]int64
	arrays  map[string]*cells
	seed    *Seed
}

// NewState returns an empty state.
func NewState() *State {
	return &State{Scalars: map[string]int64{}, arrays: map[string]*cells{}}
}

// NewSeededState returns an empty state whose never-written array cells
// read through seed. The seed must not change once a state uses it; clones
// share it.
func NewSeededState(seed *Seed) *State {
	st := NewState()
	st.seed = seed
	return st
}

// Clone deep-copies the state. The seed is shared, not copied.
func (s *State) Clone() *State {
	out := &State{
		Scalars: make(map[string]int64, len(s.Scalars)),
		arrays:  make(map[string]*cells, len(s.arrays)),
		seed:    s.seed,
	}
	for k, v := range s.Scalars {
		out.Scalars[k] = v
	}
	for a, c := range s.arrays {
		out.arrays[a] = c.clone()
	}
	return out
}

// SetArray sets one element of a one-dimensional array.
func (s *State) SetArray(name string, idx int64, v int64) {
	s.SetArrayN(name, []int64{idx}, v)
}

// GetArray reads one element of a one-dimensional array (default 0).
func (s *State) GetArray(name string, idx int64) int64 {
	return s.GetArrayN(name, []int64{idx})
}

// SetArrayN sets a multi-dimensional element.
func (s *State) SetArrayN(name string, idx []int64, v int64) {
	s.table(name, len(idx), true).set(idx, v)
}

// GetArrayN reads a multi-dimensional element: its last written value, or
// the seed's value when it was never written.
func (s *State) GetArrayN(name string, idx []int64) int64 {
	if v, ok := s.table(name, len(idx), false).get(idx); ok {
		return v
	}
	return s.seed.Value(name, idx)
}

// EachCell calls fn for every written element of the named array, in no
// particular order. fn must not retain or mutate idx.
func (s *State) EachCell(name string, fn func(idx []int64, v int64)) {
	for t := s.arrays[name]; t != nil; t = t.next {
		t.each(fn)
	}
}

// table returns the name's cell table for subscript tuples of the given
// rank, creating it when asked. Checked programs use one rank per array;
// the chain keeps other ranks apart, as distinct keys.
func (s *State) table(name string, rank int, create bool) *cells {
	head := s.arrays[name]
	last := head
	for t := head; t != nil; t = t.next {
		if t.rank == rank {
			return t
		}
		last = t
	}
	if !create {
		return nil
	}
	t := &cells{rank: rank}
	if last == nil {
		s.arrays[name] = t
	} else {
		last.next = t
	}
	return t
}

// cells is one array's written elements of one rank: an open-addressing
// table whose slot k holds the subscript tuple keys[k*rank:(k+1)*rank] and
// the value vals[k].
type cells struct {
	rank int
	n    int
	keys []int64
	vals []int64
	used []bool
	next *cells
}

func hashSubs(idx []int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range idx {
		h ^= uint64(v)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// slot returns the slot holding idx, or the empty slot where it belongs.
func (t *cells) slot(idx []int64) (int, bool) {
	mask := len(t.used) - 1
	for k := int(hashSubs(idx)) & mask; ; k = (k + 1) & mask {
		if !t.used[k] {
			return k, false
		}
		key := t.keys[k*t.rank : (k+1)*t.rank]
		same := true
		for d, v := range idx {
			if key[d] != v {
				same = false
				break
			}
		}
		if same {
			return k, true
		}
	}
}

func (t *cells) get(idx []int64) (int64, bool) {
	if t == nil || t.n == 0 {
		return 0, false
	}
	k, ok := t.slot(idx)
	if !ok {
		return 0, false
	}
	return t.vals[k], true
}

// set stores v at idx, first doubling the table (16 slots at first) past
// a load of 3/4.
func (t *cells) set(idx []int64, v int64) {
	if 4*(t.n+1) > 3*len(t.used) {
		old := *t
		size := max(2*len(old.used), 16)
		t.keys = make([]int64, size*t.rank)
		t.vals = make([]int64, size)
		t.used = make([]bool, size)
		t.n = 0
		old.each(t.put)
	}
	t.put(idx, v)
}

// put stores v at idx in a table with room for it.
func (t *cells) put(idx []int64, v int64) {
	k, ok := t.slot(idx)
	if !ok {
		t.used[k] = true
		copy(t.keys[k*t.rank:], idx)
		t.n++
	}
	t.vals[k] = v
}

func (t *cells) each(fn func(idx []int64, v int64)) {
	for k, u := range t.used {
		if u {
			fn(t.keys[k*t.rank:(k+1)*t.rank], t.vals[k])
		}
	}
}

func (t *cells) clone() *cells {
	if t == nil {
		return nil
	}
	return &cells{
		rank: t.rank,
		n:    t.n,
		keys: append([]int64(nil), t.keys...),
		vals: append([]int64(nil), t.vals...),
		used: append([]bool(nil), t.used...),
		next: t.next.clone(),
	}
}

// Seed gives the never-written cells of chosen arrays distinct
// deterministic nonzero values over a bounded index box, computed on first
// read; cells outside every box read 0. A cell's value is a pure function
// of the array name and the subscript tuple.
type Seed struct {
	boxes map[string]seedBox
}

type seedBox struct{ lo, hi []int64 }

// NewSeed returns a seed with no boxes (every cell reads 0).
func NewSeed() *Seed { return &Seed{boxes: map[string]seedBox{}} }

// Box seeds the cells of array whose subscript tuple lies within [lo, hi]
// in every dimension. lo and hi are copied.
func (sd *Seed) Box(array string, lo, hi []int64) {
	sd.boxes[array] = seedBox{lo: append([]int64(nil), lo...), hi: append([]int64(nil), hi...)}
}

// Value returns the initial value of one cell: inside the array's box,
// FNV-32a over the name, a zero byte and the decimal key "i,j", reduced to
// 1..997; 0 elsewhere (and on a nil seed).
func (sd *Seed) Value(array string, idx []int64) int64 {
	r := sd.reader(array, len(idx))
	return r.value(idx)
}

const prime32 = 16777619

// seedPrefix is the FNV-32a state after the array name and the zero
// separator byte: the part of every cell's hash that one array shares.
func seedPrefix(array string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(array); i++ {
		h = (h ^ uint32(array[i])) * prime32
	}
	return h * prime32
}

// seedReader reads the seeded values of one array's cells of one rank:
// its box, resolved once, and its name's hash prefix. The zero reader reads
// 0 everywhere.
type seedReader struct {
	box    seedBox
	seeded bool
	prefix uint32
}

// reader resolves array's box for subscript tuples of the given rank.
func (sd *Seed) reader(array string, rank int) seedReader {
	if sd == nil {
		return seedReader{}
	}
	box, ok := sd.boxes[array]
	if !ok || len(box.lo) != rank {
		return seedReader{}
	}
	return seedReader{box: box, seeded: true, prefix: seedPrefix(array)}
}

func (r *seedReader) value(idx []int64) int64 {
	if !r.seeded {
		return 0
	}
	for d, v := range idx {
		if v < r.box.lo[d] || v > r.box.hi[d] {
			return 0
		}
	}
	h := r.prefix
	var buf [96]byte
	for _, c := range appendKey(buf[:0], idx) {
		h = (h ^ uint32(c)) * prime32
	}
	return int64(h%997) + 1
}

// each calls fn for every cell inside the array's box, in row-major order.
func (box seedBox) each(fn func(idx []int64)) {
	idx := append([]int64(nil), box.lo...)
	for d := range idx {
		if box.hi[d] < box.lo[d] {
			return
		}
	}
	for {
		fn(idx)
		d := len(idx) - 1
		for ; d >= 0; d-- {
			if idx[d] < box.hi[d] {
				idx[d]++
				break
			}
			idx[d] = box.lo[d]
		}
		if d < 0 {
			return
		}
	}
}

// appendKey renders a subscript tuple as its decimal key "i,j".
func appendKey(b []byte, idx []int64) []byte {
	for d, v := range idx {
		if d > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return b
}

// ArraysEqual compares the array portions of two states, treating missing
// entries as zero.
func ArraysEqual(a, b *State) bool { return DiffArrays(a, b) == "" }

// DiffArrays describes the first few differences between the array states,
// or "" when equal. A cell that was never written reads through its
// state's seed (0 without one). Arrays are visited in name order and cells
// in the string order of their keys "i,j". The states are compared on
// their integer tables; only differing cells have their keys rendered.
func DiffArrays(a, b *State) string {
	type diff struct {
		name, key string
		av, bv    int64
	}
	var diffs []diff
	eachDiff(a, b, func(name string, idx []int64, av, bv int64) {
		diffs = append(diffs, diff{name, string(appendKey(nil, idx)), av, bv})
	})
	slices.SortFunc(diffs, func(x, y diff) int {
		if c := strings.Compare(x.name, y.name); c != 0 {
			return c
		}
		return strings.Compare(x.key, y.key)
	})
	var msg strings.Builder
	for i, d := range diffs {
		if i == 8 {
			break
		}
		if i > 0 {
			msg.WriteString("; ")
		}
		fmt.Fprintf(&msg, "%s[%s]: %d vs %d", d.name, d.key, d.av, d.bv)
	}
	if len(diffs) >= 8 {
		msg.WriteString("; ...")
	}
	return msg.String()
}

// eachDiff calls fn, in no particular order, once for every cell that
// reads differently in a and b: the cells either state wrote and, under
// different seeds, the boxed cells neither wrote.
func eachDiff(a, b *State, fn func(name string, idx []int64, av, bv int64)) {
	for name, head := range a.arrays {
		for ta := head; ta != nil; ta = ta.next {
			tb, rb := b.table(name, ta.rank, false), b.seed.reader(name, ta.rank)
			ta.each(func(idx []int64, av int64) {
				bv, ok := tb.get(idx)
				if !ok {
					bv = rb.value(idx)
				}
				if av != bv {
					fn(name, idx, av, bv)
				}
			})
		}
	}
	for name, head := range b.arrays {
		for tb := head; tb != nil; tb = tb.next {
			ta, ra := a.table(name, tb.rank, false), a.seed.reader(name, tb.rank)
			tb.each(func(idx []int64, bv int64) {
				if _, ok := ta.get(idx); ok {
					return // compared above
				}
				if av := ra.value(idx); av != bv {
					fn(name, idx, av, bv)
				}
			})
		}
	}
	if a.seed == b.seed {
		// Cells neither state wrote read the same under one shared seed.
		return
	}
	for _, sd := range []*Seed{a.seed, b.seed} {
		if sd == nil {
			continue
		}
		for name, box := range sd.boxes {
			rank := len(box.lo)
			ta, tb := a.table(name, rank, false), b.table(name, rank, false)
			ra, rb := a.seed.reader(name, rank), b.seed.reader(name, rank)
			box.each(func(idx []int64) {
				if _, ok := ta.get(idx); ok {
					return
				}
				if _, ok := tb.get(idx); ok {
					return
				}
				// A cell inside both seeds' boxes reads the same under
				// each, so no cell is reported twice.
				if av, bv := ra.value(idx), rb.value(idx); av != bv {
					fn(name, idx, av, bv)
				}
			})
		}
	}
}

// Stats counts dynamic events during execution.
type Stats struct {
	// ArrayLoads / ArrayStores count element reads and writes per array.
	ArrayLoads  map[string]int64
	ArrayStores map[string]int64
	// Stmts counts executed assignments; Iterations counts loop-iteration
	// entries across all loops.
	Stmts      int64
	Iterations int64
}

// TotalLoads sums loads across arrays.
func (st *Stats) TotalLoads() int64 {
	var n int64
	for _, v := range st.ArrayLoads {
		n += v
	}
	return n
}

// TotalStores sums stores across arrays.
func (st *Stats) TotalStores() int64 {
	var n int64
	for _, v := range st.ArrayStores {
		n += v
	}
	return n
}

// RuntimeError is an execution error with position.
type RuntimeError struct {
	Pos token.Pos
	Msg string
}

func (e *RuntimeError) Error() string { return fmt.Sprintf("%s: runtime: %s", e.Pos, e.Msg) }

// msgStepLimit is the message of the RuntimeError a run reports when it
// exceeds Options.MaxSteps.
const msgStepLimit = "step limit exceeded"

// IsStepLimit reports whether err stopped a run on Options.MaxSteps.
func IsStepLimit(err error) bool {
	var re *RuntimeError
	return errors.As(err, &re) && re.Msg == msgStepLimit
}

// Options bounds execution and exposes the instrumentation hooks the
// certifying analyzers use (witness replay and parallel permutation checks
// in internal/lint).
type Options struct {
	// MaxSteps caps executed assignments+iterations (default 50 million).
	MaxSteps int64
	// TraceRef, when set, observes every array element access: the
	// syntactic reference being executed, whether it is a store, and the
	// concrete subscript tuple. The callback must not mutate idx or retain
	// it after returning.
	TraceRef func(ref *ast.ArrayRef, isStore bool, idx []int64)
	// LoopIter, when set, observes the start of every loop iteration with
	// the loop being run and the induction value for the iteration.
	LoopIter func(loop *ast.DoLoop, iter int64)
	// LoopDone, when set, observes a loop finishing (after its last
	// iteration, before the induction variable is restored).
	LoopDone func(loop *ast.DoLoop)
	// LoopOrder, when set, may permute a loop's iteration schedule: it
	// receives the loop and the natural induction-value sequence and
	// returns the order to execute (nil keeps the natural order). The
	// parallel permutation check runs provably-parallel loops through a
	// shuffled order and compares final memories.
	LoopOrder func(loop *ast.DoLoop, iters []int64) []int64
}

// Run executes the program on a copy of init (nil = empty) and returns the
// final state and statistics. It compiles the program for this one run;
// callers that run one program many times compile it once with Compile.
func Run(prog *ast.Program, init *State, opts *Options) (*State, *Stats, error) {
	return Compile(prog).Run(init, opts)
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
