package interp

// The tree-walking interpreter that Run used before programs were
// compiled, kept verbatim as the oracle of TestCompiledMatchesReference and
// FuzzInterp, and the string-keyed state comparison DiffArrays used before
// it compared integer tables, the oracle of TestDiffArraysMatchesReference.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/token"
)

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

// referenceRun is the former Run: it walks the tree directly. It is the
// oracle the compiled form must match.
func referenceRun(prog *ast.Program, init *State, opts *Options) (*State, *Stats, error) {
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

// referenceDiffArrays is the former DiffArrays: it collects every cell key
// of each array as a string. It is the oracle of DiffArrays' comparison and
// message.
func referenceDiffArrays(a, b *State) string {
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
