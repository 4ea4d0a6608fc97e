package interp

import (
	"repro/internal/ast"
	"repro/internal/token"
)

// Compiled is a program lowered for execution. Every scalar name and every
// (array, rank) pair is resolved to a dense slot once; statements live in
// one flat slice, and expressions are postfix code in another, evaluated on
// a value stack that also holds the subscripts of the access being made. A
// Compiled is read-only once built, so concurrent runs may share it.
type Compiled struct {
	stmts []cstmt
	code  []instr
	body  span // the top-level statements
	// depth is the most values the stack ever holds.
	depth int
	// scalars and arrays name the slots.
	scalars []string
	arrays  []arraySlot
	// refs and loops are the hooks' arguments; pos holds the positions of
	// the operators that can fail.
	refs  []*ast.ArrayRef
	loops []*ast.DoLoop
	pos   []token.Pos
}

// span is a half-open index range into Compiled.stmts or Compiled.code.
type span struct{ lo, hi int32 }

func (s span) empty() bool { return s.lo == s.hi }

type arraySlot struct {
	name string
	rank int
}

type stmtOp uint8

const (
	sNop       stmtOp = iota // a declaration: no runtime effect
	sScalar                  // scalar := a
	sStore                   // array[b] := a
	sBadTarget               // steps and evaluates a, then fails
	sIf                      // if a then b else c
	sLoop                    // do slot = a, b[, c]: body d
	sUnknown                 // fails when reached
)

// cstmt is one compiled statement. The spans a and b are code of an
// assignment's RHS and LHS subscripts, a is an if's condition, and a, b, c
// a loop's lower bound, upper bound and step (empty: 1). An if's then and
// else blocks (b, c) and a loop's body (d) are statement spans.
type cstmt struct {
	op stmtOp
	// slot is the scalar slot of an assignment or loop variable, or the
	// array slot of a store; node indexes refs for a store and loops for
	// a loop.
	slot, node int32
	// pos is where a step-limit, zero-step or invalid-target error points.
	pos        token.Pos
	a, b, c, d span
}

type opcode uint8

const (
	opConst     opcode = iota // push val
	opScalar                  // push scalar slot arg
	opScalarAdd               // push scalar slot arg + val: a subscript i + c or i - c in one step
	opLoad                    // pop the subscripts of array slot arg, push the element; refs[val] is traced
	opNeg                     // unary minus
	opNot                     // logical not
	opAdd                     // the binary operators pop R, then L, and push the result
	opSub
	opMul
	opDiv // pos[arg] is the position of a division by zero
	opMod // and of a modulo by zero
	opEq
	opNeq
	opLt
	opLeq
	opGt
	opGeq
	opAnd       // pop L; when it is 0, push 0 and jump to arg
	opOr        // pop L; when it is not 0, push 1 and jump to arg
	opTruth     // replace the top with 1 when it is not 0
	opBadUnary  // fail at pos[arg]
	opBadBinary // fail at pos[arg]
	opUnknown   // fail: an expression the language does not have
)

type instr struct {
	op  opcode
	arg int32
	val int64
}

// Compile lowers prog. Constructs the interpreter cannot execute compile
// to operations that fail when, and only when, a run reaches them.
func Compile(prog *ast.Program) *Compiled {
	// Count first, so each flat slice is allocated once.
	var stmts, code, refs, loops int
	ast.Inspect(prog.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DoLoop:
			stmts++
			loops++
		case ast.Stmt:
			stmts++
		case *ast.ArrayRef:
			code++
			refs++
		case *ast.Binary:
			code++
			if x.Op == token.AND || x.Op == token.OR {
				code++ // the jump
			}
		default:
			code++
		}
		return true
	})
	c := &compiler{
		out: &Compiled{
			stmts: make([]cstmt, 0, stmts),
			code:  make([]instr, 0, code),
			refs:  make([]*ast.ArrayRef, 0, refs),
			loops: make([]*ast.DoLoop, 0, loops),
		},
		scalars: map[string]int32{},
		arrays:  map[arraySlot]int32{},
	}
	c.out.body = c.block(prog.Body)
	return c.out
}

type compiler struct {
	out     *Compiled
	scalars map[string]int32
	arrays  map[arraySlot]int32
	// depth is the stack height the code emitted so far leaves.
	depth int
}

func (c *compiler) scalar(name string) int32 {
	k, ok := c.scalars[name]
	if !ok {
		k = int32(len(c.out.scalars))
		c.scalars[name] = k
		c.out.scalars = append(c.out.scalars, name)
	}
	return k
}

func (c *compiler) array(name string, rank int) int32 {
	a := arraySlot{name, rank}
	k, ok := c.arrays[a]
	if !ok {
		k = int32(len(c.out.arrays))
		c.arrays[a] = k
		c.out.arrays = append(c.out.arrays, a)
	}
	return k
}

// block reserves the block's statements contiguously, then compiles each;
// nested blocks land after them.
func (c *compiler) block(body []ast.Stmt) span {
	lo := int32(len(c.out.stmts))
	c.out.stmts = append(c.out.stmts, make([]cstmt, len(body))...)
	for i, s := range body {
		st := c.stmt(s)
		c.out.stmts[int(lo)+i] = st
	}
	return span{lo, lo + int32(len(body))}
}

func (c *compiler) stmt(s ast.Stmt) cstmt {
	switch st := s.(type) {
	case *ast.Assign:
		out := cstmt{op: sBadTarget, pos: st.Pos(), a: c.expr(st.RHS)}
		switch lhs := st.LHS.(type) {
		case *ast.Ident:
			out.op, out.slot = sScalar, c.scalar(lhs.Name)
		case *ast.ArrayRef:
			out.op, out.slot, out.node = sStore, c.array(lhs.Name, len(lhs.Subs)), c.ref(lhs)
			out.b = c.subs(lhs)
			c.depth = 0
		}
		return out
	case *ast.If:
		cond := c.expr(st.Cond)
		return cstmt{op: sIf, a: cond, b: c.block(st.Then), c: c.block(st.Else)}
	case *ast.DoLoop:
		out := cstmt{op: sLoop, pos: st.Pos(), slot: c.scalar(st.Var), a: c.expr(st.Lo), b: c.expr(st.Hi)}
		if st.Step != nil {
			out.c = c.expr(st.Step)
		}
		out.node = int32(len(c.out.loops))
		c.out.loops = append(c.out.loops, st)
		out.d = c.block(st.Body)
		return out
	case *ast.Dim:
		return cstmt{op: sNop}
	}
	return cstmt{op: sUnknown}
}

func (c *compiler) ref(r *ast.ArrayRef) int32 {
	c.out.refs = append(c.out.refs, r)
	return int32(len(c.out.refs) - 1)
}

// emit appends one instruction that changes the stack height by effect.
func (c *compiler) emit(op opcode, arg int32, val int64, effect int) {
	c.out.code = append(c.out.code, instr{op: op, arg: arg, val: val})
	c.depth += effect
	c.out.depth = max(c.out.depth, c.depth)
}

// failAt records the position an operator fails at. A binary operator
// without a left operand fails on that operand first, so it needs none.
func (c *compiler) failAt(e ast.Expr) int32 {
	var pos token.Pos
	if b, ok := e.(*ast.Binary); !ok || b.L != nil {
		pos = e.Pos()
	}
	c.out.pos = append(c.out.pos, pos)
	return int32(len(c.out.pos) - 1)
}

// expr compiles e to code that pushes its value onto an empty stack; a
// run pops it.
func (c *compiler) expr(e ast.Expr) span {
	lo := int32(len(c.out.code))
	c.push(e)
	c.depth = 0
	return span{lo, int32(len(c.out.code))}
}

// subs compiles code that pushes ref's subscripts, leftmost first.
func (c *compiler) subs(ref *ast.ArrayRef) span {
	lo := int32(len(c.out.code))
	for _, sub := range ref.Subs {
		c.push(sub)
	}
	return span{lo, int32(len(c.out.code))}
}

func (c *compiler) push(e ast.Expr) {
	switch ex := e.(type) {
	case *ast.IntLit:
		c.emit(opConst, 0, ex.Value, 1)
	case *ast.Ident:
		c.emit(opScalar, c.scalar(ex.Name), 0, 1)
	case *ast.ArrayRef:
		c.subs(ex)
		c.emit(opLoad, c.array(ex.Name, len(ex.Subs)), int64(c.ref(ex)), 1-len(ex.Subs))
	case *ast.Unary:
		c.push(ex.X)
		switch ex.Op {
		case token.MINUS:
			c.emit(opNeg, 0, 0, 0)
		case token.NOT:
			c.emit(opNot, 0, 0, 0)
		default:
			c.emit(opBadUnary, c.failAt(ex), 0, 0)
		}
	case *ast.Binary:
		if id, ok := ex.L.(*ast.Ident); ok {
			if lit, ok := ex.R.(*ast.IntLit); ok && (ex.Op == token.PLUS || ex.Op == token.MINUS) {
				v := lit.Value
				if ex.Op == token.MINUS {
					v = -v // wraps as i - v does
				}
				c.emit(opScalarAdd, c.scalar(id.Name), v, 1)
				return
			}
		}
		if ex.Op == token.AND || ex.Op == token.OR {
			c.push(ex.L)
			jump := len(c.out.code)
			// The jump keeps the left value as the result; falling
			// through pops it for the right operand's.
			if ex.Op == token.AND {
				c.emit(opAnd, 0, 0, -1)
			} else {
				c.emit(opOr, 0, 0, -1)
			}
			c.push(ex.R)
			c.emit(opTruth, 0, 0, 0)
			c.out.code[jump].arg = int32(len(c.out.code))
			return
		}
		c.push(ex.L)
		c.push(ex.R)
		op, ok := binaryOps[ex.Op]
		switch {
		case !ok:
			c.emit(opBadBinary, c.failAt(ex), 0, -1)
		case op == opDiv || op == opMod:
			c.emit(op, c.failAt(ex), 0, -1)
		default:
			c.emit(op, 0, 0, -1)
		}
	default:
		// Fails when reached; it stands for one value so the heights of
		// the code around it stay right.
		c.emit(opUnknown, 0, 0, 1)
	}
}

var binaryOps = map[token.Kind]opcode{
	token.PLUS: opAdd, token.MINUS: opSub, token.STAR: opMul, token.SLASH: opDiv, token.MOD: opMod,
	token.EQ: opEq, token.NEQ: opNeq, token.LT: opLt, token.LEQ: opLeq, token.GT: opGt, token.GEQ: opGeq,
}

// Run executes the compiled program on a copy of init (nil = empty) and
// returns the final state and statistics, exactly as Run does.
func (c *Compiled) Run(init *State, opts *Options) (*State, *Stats, error) {
	if init == nil {
		init = NewState()
	}
	r := &runner{
		c:       c,
		st:      init.Clone(),
		max:     50_000_000,
		scalars: make([]scalarCell, len(c.scalars)),
		arrays:  make([]arrayCell, len(c.arrays)),
		stack:   make([]int64, c.depth),
	}
	if opts != nil {
		r.opts = *opts
		if opts.MaxSteps > 0 {
			r.max = opts.MaxSteps
		}
	}
	for k, name := range c.scalars {
		if v, ok := r.st.Scalars[name]; ok {
			r.scalars[k] = scalarCell{v, true}
		}
	}
	for k, a := range c.arrays {
		r.arrays[k] = arrayCell{
			t:    r.st.table(a.name, a.rank, false),
			seed: r.st.seed.reader(a.name, a.rank),
			rank: a.rank,
		}
	}
	err := r.block(c.body)

	for k, name := range c.scalars {
		if s := r.scalars[k]; s.bound {
			r.st.Scalars[name] = s.v
		} else {
			delete(r.st.Scalars, name)
		}
	}
	stats := &Stats{ArrayLoads: map[string]int64{}, ArrayStores: map[string]int64{}, Stmts: r.stmts, Iterations: r.iters}
	for k, a := range c.arrays {
		if n := r.arrays[k].loads; n > 0 {
			stats.ArrayLoads[a.name] += n
		}
		if n := r.arrays[k].stores; n > 0 {
			stats.ArrayStores[a.name] += n
		}
	}
	return r.st, stats, err
}

// runner is the state of one run: slot-indexed scalars and array tables,
// the value stack, and the step counter.
type runner struct {
	c       *Compiled
	st      *State
	opts    Options
	scalars []scalarCell
	arrays  []arrayCell
	// stack[:sp] holds the values of the expression being evaluated.
	stack []int64
	sp    int
	// steps counts executed assignments and iterations against max.
	steps, max   int64
	stmts, iters int64
}

// scalarCell is one scalar slot; an unbound scalar reads 0.
type scalarCell struct {
	v     int64
	bound bool
}

// arrayCell is one array slot: its cell table in the run's state (nil
// until the run first writes one when the initial state had none), its
// seed, its rank and its access counts.
type arrayCell struct {
	t             *cells
	seed          seedReader
	rank          int
	loads, stores int64
}

// step counts one assignment or iteration against the budget.
func (r *runner) step(s *cstmt) error {
	r.steps++
	if r.steps > r.max {
		return &RuntimeError{Pos: s.pos, Msg: msgStepLimit}
	}
	return nil
}

func (r *runner) block(b span) error {
	for k := b.lo; k < b.hi; k++ {
		if err := r.stmt(&r.c.stmts[k]); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) stmt(s *cstmt) error {
	switch s.op {
	case sScalar, sStore, sBadTarget:
		if err := r.step(s); err != nil {
			return err
		}
		r.stmts++
		v, err := r.eval(s.a)
		if err != nil {
			return err
		}
		switch s.op {
		case sScalar:
			r.scalars[s.slot] = scalarCell{v, true}
		case sStore:
			if err := r.exec(s.b); err != nil {
				return err
			}
			a := &r.arrays[s.slot]
			idx := r.stack[:a.rank]
			if r.opts.TraceRef != nil {
				r.opts.TraceRef(r.c.refs[s.node], true, idx)
			}
			if a.t == nil {
				slot := r.c.arrays[s.slot]
				a.t = r.st.table(slot.name, slot.rank, true)
			}
			a.t.set(idx, v)
			a.stores++
			r.sp = 0
		default:
			return &RuntimeError{Pos: s.pos, Msg: "invalid assignment target"}
		}
		return nil

	case sIf:
		cond, err := r.eval(s.a)
		if err != nil {
			return err
		}
		if cond != 0 {
			return r.block(s.b)
		}
		return r.block(s.c)

	case sLoop:
		return r.loop(s)

	case sNop:
		return nil
	}
	return &RuntimeError{Msg: "unknown statement"}
}

func (r *runner) loop(s *cstmt) error {
	lo, err := r.eval(s.a)
	if err != nil {
		return err
	}
	hi, err := r.eval(s.b)
	if err != nil {
		return err
	}
	step := int64(1)
	if !s.c.empty() {
		if step, err = r.eval(s.c); err != nil {
			return err
		}
		if step == 0 {
			return &RuntimeError{Pos: s.pos, Msg: "zero loop step"}
		}
	}
	saved := r.scalars[s.slot]
	loop := r.c.loops[s.node]
	if r.opts.LoopOrder != nil {
		// Materialize the natural schedule and let the hook permute it.
		// The schedule length is already bounded by the step budget.
		var iters []int64
		for i := lo; (step > 0 && i <= hi) || (step < 0 && i >= hi); i += step {
			iters = append(iters, i)
			if int64(len(iters)) > r.max {
				return &RuntimeError{Pos: s.pos, Msg: msgStepLimit}
			}
		}
		if order := r.opts.LoopOrder(loop, iters); order != nil {
			iters = order
		}
		for _, i := range iters {
			if err := r.iter(s, loop, i); err != nil {
				return err
			}
		}
	} else {
		for i := lo; (step > 0 && i <= hi) || (step < 0 && i >= hi); i += step {
			if err := r.iter(s, loop, i); err != nil {
				return err
			}
		}
	}
	if r.opts.LoopDone != nil {
		r.opts.LoopDone(loop)
	}
	// Restore the induction variable so programs after the loop see the
	// pre-loop binding (the language gives it loop-local scope).
	r.scalars[s.slot] = saved
	return nil
}

func (r *runner) iter(s *cstmt, loop *ast.DoLoop, i int64) error {
	if err := r.step(s); err != nil {
		return err
	}
	r.iters++
	if r.opts.LoopIter != nil {
		r.opts.LoopIter(loop, i)
	}
	r.scalars[s.slot] = scalarCell{i, true}
	return r.block(s.d)
}

// eval runs code that pushes one value onto the empty stack, and pops it.
func (r *runner) eval(x span) (int64, error) {
	if err := r.exec(x); err != nil {
		return 0, err
	}
	r.sp = 0
	return r.stack[0], nil
}

// exec runs code over the value stack.
func (r *runner) exec(x span) error {
	code, st, sp := r.c.code, r.stack, r.sp
	for pc := x.lo; pc < x.hi; pc++ {
		in := &code[pc]
		switch in.op {
		case opConst:
			st[sp] = in.val
			sp++
		case opScalar:
			st[sp] = r.scalars[in.arg].v
			sp++
		case opScalarAdd:
			st[sp] = r.scalars[in.arg].v + in.val
			sp++
		case opLoad:
			a := &r.arrays[in.arg]
			base := sp - a.rank
			idx := st[base:sp]
			if r.opts.TraceRef != nil {
				r.opts.TraceRef(r.c.refs[in.val], false, idx)
			}
			a.loads++
			v, ok := a.t.get(idx)
			if !ok {
				v = a.seed.value(idx)
			}
			st[base] = v
			sp = base + 1
		case opNeg:
			st[sp-1] = -st[sp-1]
		case opNot:
			st[sp-1] = boolToInt(st[sp-1] == 0)
		case opTruth:
			st[sp-1] = boolToInt(st[sp-1] != 0)
		case opAnd:
			if st[sp-1] == 0 {
				pc = in.arg - 1
			} else {
				sp--
			}
		case opOr:
			if st[sp-1] != 0 {
				st[sp-1] = 1
				pc = in.arg - 1
			} else {
				sp--
			}
		case opAdd:
			sp--
			st[sp-1] += st[sp]
		case opSub:
			sp--
			st[sp-1] -= st[sp]
		case opMul:
			sp--
			st[sp-1] *= st[sp]
		case opDiv:
			sp--
			if st[sp] == 0 {
				return &RuntimeError{Pos: r.c.pos[in.arg], Msg: "division by zero"}
			}
			st[sp-1] /= st[sp]
		case opMod:
			sp--
			if st[sp] == 0 {
				return &RuntimeError{Pos: r.c.pos[in.arg], Msg: "modulo by zero"}
			}
			st[sp-1] %= st[sp]
		case opEq:
			sp--
			st[sp-1] = boolToInt(st[sp-1] == st[sp])
		case opNeq:
			sp--
			st[sp-1] = boolToInt(st[sp-1] != st[sp])
		case opLt:
			sp--
			st[sp-1] = boolToInt(st[sp-1] < st[sp])
		case opLeq:
			sp--
			st[sp-1] = boolToInt(st[sp-1] <= st[sp])
		case opGt:
			sp--
			st[sp-1] = boolToInt(st[sp-1] > st[sp])
		case opGeq:
			sp--
			st[sp-1] = boolToInt(st[sp-1] >= st[sp])
		case opBadUnary:
			return &RuntimeError{Pos: r.c.pos[in.arg], Msg: "bad unary operator"}
		case opBadBinary:
			return &RuntimeError{Pos: r.c.pos[in.arg], Msg: "bad binary operator"}
		default: // opUnknown
			return &RuntimeError{Msg: "unknown expression"}
		}
	}
	r.sp = sp
	return nil
}
