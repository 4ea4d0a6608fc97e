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
	"strings"

	"repro/internal/ast"
	"repro/internal/token"
)

// Elem identifies one array element by name and subscript values.
type Elem struct {
	Array string
	// Key encodes the subscript tuple; one-dimensional elements use the
	// subscript value directly.
	Key string
}

func elemKey(subs []int64) string {
	parts := make([]string, len(subs))
	for i, s := range subs {
		parts[i] = fmt.Sprintf("%d", s)
	}
	return strings.Join(parts, ",")
}

// State is the mutable program state.
type State struct {
	Scalars map[string]int64
	Arrays  map[string]map[string]int64
}

// NewState returns an empty state.
func NewState() *State {
	return &State{Scalars: map[string]int64{}, Arrays: map[string]map[string]int64{}}
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	out := NewState()
	for k, v := range s.Scalars {
		out.Scalars[k] = v
	}
	for a, m := range s.Arrays {
		cm := make(map[string]int64, len(m))
		for k, v := range m {
			cm[k] = v
		}
		out.Arrays[a] = cm
	}
	return out
}

// SetArray sets one element of a one-dimensional array.
func (s *State) SetArray(name string, idx int64, v int64) {
	m := s.Arrays[name]
	if m == nil {
		m = map[string]int64{}
		s.Arrays[name] = m
	}
	m[elemKey([]int64{idx})] = v
}

// GetArray reads one element of a one-dimensional array (default 0).
func (s *State) GetArray(name string, idx int64) int64 {
	return s.Arrays[name][elemKey([]int64{idx})]
}

// SetArrayN sets a multi-dimensional element.
func (s *State) SetArrayN(name string, idx []int64, v int64) {
	m := s.Arrays[name]
	if m == nil {
		m = map[string]int64{}
		s.Arrays[name] = m
	}
	m[elemKey(idx)] = v
}

// GetArrayN reads a multi-dimensional element.
func (s *State) GetArrayN(name string, idx []int64) int64 {
	return s.Arrays[name][elemKey(idx)]
}

// ArraysEqual compares the array portions of two states, treating missing
// entries as zero.
func ArraysEqual(a, b *State) bool { return DiffArrays(a, b) == "" }

// DiffArrays describes the first few differences between the array states,
// or "" when equal (missing entries are zero).
func DiffArrays(a, b *State) string {
	var diffs []string
	names := map[string]bool{}
	for n := range a.Arrays {
		names[n] = true
	}
	for n := range b.Arrays {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		keys := map[string]bool{}
		for k := range a.Arrays[n] {
			keys[k] = true
		}
		for k := range b.Arrays[n] {
			keys[k] = true
		}
		sk := make([]string, 0, len(keys))
		for k := range keys {
			sk = append(sk, k)
		}
		sort.Strings(sk)
		for _, k := range sk {
			av, bv := a.Arrays[n][k], b.Arrays[n][k]
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
	// concrete subscript tuple. The callback must not mutate idx.
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
			idx, err := m.evalSubs(lhs)
			if err != nil {
				return err
			}
			if m.opts.TraceRef != nil {
				m.opts.TraceRef(lhs, true, idx)
			}
			m.st.SetArrayN(lhs.Name, idx, v)
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

func (m *machine) evalSubs(ref *ast.ArrayRef) ([]int64, error) {
	idx := make([]int64, len(ref.Subs))
	for k, sub := range ref.Subs {
		v, err := m.eval(sub)
		if err != nil {
			return nil, err
		}
		idx[k] = v
	}
	return idx, nil
}

func (m *machine) eval(e ast.Expr) (int64, error) {
	switch ex := e.(type) {
	case *ast.IntLit:
		return ex.Value, nil
	case *ast.Ident:
		return m.st.Scalars[ex.Name], nil
	case *ast.ArrayRef:
		idx, err := m.evalSubs(ex)
		if err != nil {
			return 0, err
		}
		if m.opts.TraceRef != nil {
			m.opts.TraceRef(ex, false, idx)
		}
		m.stats.ArrayLoads[ex.Name]++
		return m.st.GetArrayN(ex.Name, idx), nil
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
