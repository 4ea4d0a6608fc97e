// Package interp is a reference interpreter for the loop mini-language.
//
// It serves as the semantic oracle of this reproduction: every optimization
// (register pipelining, load/store elimination, unrolling, peeling) is
// validated by running the original and the transformed program on the same
// inputs and comparing final memory states. The interpreter also counts
// source-level array loads and stores, giving an architecture-independent
// measure of the memory traffic the optimizations remove.
package interp

import (
	"errors"
	"fmt"
	"sort"
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
	if sd == nil {
		return 0
	}
	box, ok := sd.boxes[array]
	if !ok || len(box.lo) != len(idx) {
		return 0
	}
	for d, v := range idx {
		if v < box.lo[d] || v > box.hi[d] {
			return 0
		}
	}
	const prime32 = 16777619
	h := uint32(2166136261)
	for i := 0; i < len(array); i++ {
		h = (h ^ uint32(array[i])) * prime32
	}
	h *= prime32 // the zero separator byte
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
// in the string order of their keys "i,j".
func DiffArrays(a, b *State) string {
	names := map[string]bool{}
	for _, st := range []*State{a, b} {
		for n := range st.arrays {
			names[n] = true
		}
		if st.seed != nil && a.seed != b.seed {
			for n := range st.seed.boxes {
				names[n] = true
			}
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	var diffs []string
	for _, n := range sorted {
		keys := map[string][]int64{}
		add := func(idx []int64) {
			k := string(appendKey(nil, idx))
			if _, ok := keys[k]; !ok {
				keys[k] = append([]int64(nil), idx...)
			}
		}
		for _, st := range []*State{a, b} {
			st.EachCell(n, func(idx []int64, _ int64) { add(idx) })
			// Cells neither state wrote read the same value under one
			// shared seed; under different seeds every boxed cell counts.
			if st.seed != nil && a.seed != b.seed {
				if box, ok := st.seed.boxes[n]; ok {
					box.each(add)
				}
			}
		}
		sk := make([]string, 0, len(keys))
		for k := range keys {
			sk = append(sk, k)
		}
		sort.Strings(sk)
		for _, k := range sk {
			av, bv := a.GetArrayN(n, keys[k]), b.GetArrayN(n, keys[k])
			if av != bv {
				diffs = append(diffs, fmt.Sprintf("%s[%s]: %d vs %d", n, k, av, bv))
				if len(diffs) >= 8 {
					return strings.Join(diffs, "; ") + "; ..."
				}
			}
		}
	}
	return strings.Join(diffs, "; ")
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

type machine struct {
	st    *State
	stats *Stats
	steps int64
	max   int64
	opts  Options
	// subs is the subscript stack: evalSubs pushes one tuple, and its
	// caller pops it once the access is done.
	subs []int64
}

// Run executes the program on a copy of init (nil = empty) and returns the
// final state and statistics.
func Run(prog *ast.Program, init *State, opts *Options) (*State, *Stats, error) {
	if init == nil {
		init = NewState()
	}
	maxSteps := int64(50_000_000)
	if opts != nil && opts.MaxSteps > 0 {
		maxSteps = opts.MaxSteps
	}
	m := &machine{
		st:    init.Clone(),
		stats: &Stats{ArrayLoads: map[string]int64{}, ArrayStores: map[string]int64{}},
		max:   maxSteps,
	}
	if opts != nil {
		m.opts = *opts
	}
	if err := m.execBlock(prog.Body); err != nil {
		return m.st, m.stats, err
	}
	return m.st, m.stats, nil
}

func (m *machine) step(pos token.Pos) error {
	m.steps++
	if m.steps > m.max {
		return &RuntimeError{Pos: pos, Msg: msgStepLimit}
	}
	return nil
}

func (m *machine) execBlock(body []ast.Stmt) error {
	for _, s := range body {
		if err := m.execStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (m *machine) execStmt(s ast.Stmt) error {
	switch st := s.(type) {
	case *ast.Assign:
		if err := m.step(st.Pos()); err != nil {
			return err
		}
		m.stats.Stmts++
		v, err := m.eval(st.RHS)
		if err != nil {
			return err
		}
		switch lhs := st.LHS.(type) {
		case *ast.Ident:
			m.st.Scalars[lhs.Name] = v
		case *ast.ArrayRef:
			idx, base, err := m.evalSubs(lhs)
			if err != nil {
				return err
			}
			if m.opts.TraceRef != nil {
				m.opts.TraceRef(lhs, true, idx)
			}
			m.st.SetArrayN(lhs.Name, idx, v)
			m.subs = m.subs[:base]
			m.stats.ArrayStores[lhs.Name]++
		default:
			return &RuntimeError{Pos: st.Pos(), Msg: "invalid assignment target"}
		}
		return nil

	case *ast.If:
		c, err := m.eval(st.Cond)
		if err != nil {
			return err
		}
		if c != 0 {
			return m.execBlock(st.Then)
		}
		return m.execBlock(st.Else)

	case *ast.DoLoop:
		lo, err := m.eval(st.Lo)
		if err != nil {
			return err
		}
		hi, err := m.eval(st.Hi)
		if err != nil {
			return err
		}
		step := int64(1)
		if st.Step != nil {
			step, err = m.eval(st.Step)
			if err != nil {
				return err
			}
			if step == 0 {
				return &RuntimeError{Pos: st.Pos(), Msg: "zero loop step"}
			}
		}
		saved, had := m.st.Scalars[st.Var]
		runIter := func(i int64) error {
			if err := m.step(st.Pos()); err != nil {
				return err
			}
			m.stats.Iterations++
			if m.opts.LoopIter != nil {
				m.opts.LoopIter(st, i)
			}
			m.st.Scalars[st.Var] = i
			return m.execBlock(st.Body)
		}
		if m.opts.LoopOrder != nil {
			// Materialize the natural schedule and let the hook permute it.
			// The schedule length is already bounded by the step budget.
			var iters []int64
			for i := lo; (step > 0 && i <= hi) || (step < 0 && i >= hi); i += step {
				iters = append(iters, i)
				if int64(len(iters)) > m.max {
					return &RuntimeError{Pos: st.Pos(), Msg: msgStepLimit}
				}
			}
			if order := m.opts.LoopOrder(st, iters); order != nil {
				iters = order
			}
			for _, i := range iters {
				if err := runIter(i); err != nil {
					return err
				}
			}
		} else {
			for i := lo; (step > 0 && i <= hi) || (step < 0 && i >= hi); i += step {
				if err := runIter(i); err != nil {
					return err
				}
			}
		}
		if m.opts.LoopDone != nil {
			m.opts.LoopDone(st)
		}
		// Restore the induction variable so programs after the loop see the
		// pre-loop binding (the language gives it loop-local scope).
		if had {
			m.st.Scalars[st.Var] = saved
		} else {
			delete(m.st.Scalars, st.Var)
		}
		return nil

	case *ast.Dim:
		// Declarations have no runtime effect; the interpreter's arrays
		// grow on demand.
		return nil
	}
	return &RuntimeError{Msg: "unknown statement"}
}

// evalSubs pushes ref's subscript values onto the subscript stack and
// returns them with the stack height to pop back to. A nested access in a
// subscript pushes and pops above the values pushed so far.
func (m *machine) evalSubs(ref *ast.ArrayRef) (idx []int64, base int, err error) {
	base = len(m.subs)
	for _, sub := range ref.Subs {
		v, err := m.eval(sub)
		if err != nil {
			m.subs = m.subs[:base]
			return nil, base, err
		}
		m.subs = append(m.subs, v)
	}
	return m.subs[base:], base, nil
}

func (m *machine) eval(e ast.Expr) (int64, error) {
	switch ex := e.(type) {
	case *ast.IntLit:
		return ex.Value, nil
	case *ast.Ident:
		return m.st.Scalars[ex.Name], nil
	case *ast.ArrayRef:
		idx, base, err := m.evalSubs(ex)
		if err != nil {
			return 0, err
		}
		if m.opts.TraceRef != nil {
			m.opts.TraceRef(ex, false, idx)
		}
		m.stats.ArrayLoads[ex.Name]++
		v := m.st.GetArrayN(ex.Name, idx)
		m.subs = m.subs[:base]
		return v, nil
	case *ast.Unary:
		v, err := m.eval(ex.X)
		if err != nil {
			return 0, err
		}
		switch ex.Op {
		case token.MINUS:
			return -v, nil
		case token.NOT:
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, &RuntimeError{Pos: ex.Pos(), Msg: "bad unary operator"}
	case *ast.Binary:
		// Short-circuit boolean operators.
		switch ex.Op {
		case token.AND:
			l, err := m.eval(ex.L)
			if err != nil || l == 0 {
				return 0, err
			}
			r, err := m.eval(ex.R)
			if err != nil {
				return 0, err
			}
			return boolToInt(r != 0), nil
		case token.OR:
			l, err := m.eval(ex.L)
			if err != nil {
				return 0, err
			}
			if l != 0 {
				return 1, nil
			}
			r, err := m.eval(ex.R)
			if err != nil {
				return 0, err
			}
			return boolToInt(r != 0), nil
		}
		l, err := m.eval(ex.L)
		if err != nil {
			return 0, err
		}
		r, err := m.eval(ex.R)
		if err != nil {
			return 0, err
		}
		switch ex.Op {
		case token.PLUS:
			return l + r, nil
		case token.MINUS:
			return l - r, nil
		case token.STAR:
			return l * r, nil
		case token.SLASH:
			if r == 0 {
				return 0, &RuntimeError{Pos: ex.Pos(), Msg: "division by zero"}
			}
			return l / r, nil
		case token.MOD:
			if r == 0 {
				return 0, &RuntimeError{Pos: ex.Pos(), Msg: "modulo by zero"}
			}
			return l % r, nil
		case token.EQ:
			return boolToInt(l == r), nil
		case token.NEQ:
			return boolToInt(l != r), nil
		case token.LT:
			return boolToInt(l < r), nil
		case token.LEQ:
			return boolToInt(l <= r), nil
		case token.GT:
			return boolToInt(l > r), nil
		case token.GEQ:
			return boolToInt(l >= r), nil
		}
		return 0, &RuntimeError{Pos: ex.Pos(), Msg: "bad binary operator"}
	}
	return 0, &RuntimeError{Msg: "unknown expression"}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
