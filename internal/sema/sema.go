package sema

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/token"
)

// Info summarizes a checked program.
type Info struct {
	// Arrays maps each array name to its number of dimensions.
	Arrays map[string]int
	// Scalars is the set of scalar variable names (read or written),
	// excluding induction variables.
	Scalars map[string]bool
	// Loops lists every DO loop in source order (outer before inner).
	Loops []*ast.DoLoop
	// IVs is the set of induction variable names.
	IVs map[string]bool
	// Bounds maps each dim-declared array to its per-dimension sizes
	// (1-based: dim A[n] declares indices 1..n). Arrays without a dim
	// declaration are absent.
	Bounds map[string][]int64
	// Dims maps each declared array to its dim statement (for positions).
	Dims map[string]*ast.Dim
}

// ArrayNames returns the array names in sorted order.
func (in *Info) ArrayNames() []string {
	out := make([]string, 0, len(in.Arrays))
	for a := range in.Arrays {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Error is a semantic error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Per-symbol classification flags, mirrored from the Info maps so the hot
// per-node membership tests are dense int-indexed loads instead of string-
// keyed map lookups.
const (
	flagIV = 1 << iota
	flagScalar
	flagArray
)

type checker struct {
	info  *Info
	errs  []error
	syms  *token.Interner
	trust bool    // node Syms index c.syms (program carries its interner)
	state []uint8 // indexed by token.Sym; flags above
}

// symOf resolves a node's interned symbol. Node syms are only trusted when
// the program carries the interner they index; otherwise (sub-programs and
// hand-built ASTs with a nil Syms table) every spelling is re-interned so
// symbols from a foreign table can't collide with fresh ones.
func (c *checker) symOf(name string, s token.Sym) token.Sym {
	if c.trust && s != 0 {
		return s
	}
	return c.syms.InternString(name)
}

func (c *checker) flags(s token.Sym) uint8 {
	if int(s) < len(c.state) {
		return c.state[s]
	}
	return 0
}

func (c *checker) setFlag(s token.Sym, f uint8) {
	for int(s) >= len(c.state) {
		c.state = append(c.state, 0)
	}
	c.state[s] |= f
}

// Check validates a program against the restrictions the framework assumes
// (paper §1):
//
//   - loops are DO loops controlled by a basic induction variable;
//   - no statement in a loop assigns to any enclosing induction variable;
//   - no loop's lower bound reads the loop's own induction variable (the
//     value before the loop, which normalization cannot keep apart from
//     the normalized variable);
//   - induction variables are not used as arrays and vice versa;
//   - every array is used with a consistent number of dimensions;
//   - array subscripts are polynomial expressions (affineness with respect
//     to a particular loop is checked later, per analysis).
//
// It returns the collected Info and the first error encountered (all errors
// are available via the returned slice when the caller needs them).
func Check(prog *ast.Program) (*Info, error) {
	info, errs := CheckAll(prog)
	if len(errs) > 0 {
		return info, errs[0]
	}
	return info, nil
}

// CheckAll is Check but returns every error.
func CheckAll(prog *ast.Program) (*Info, []error) {
	info := &Info{
		Arrays:  map[string]int{},
		Scalars: map[string]bool{},
		IVs:     map[string]bool{},
		Bounds:  map[string][]int64{},
		Dims:    map[string]*ast.Dim{},
	}
	syms := prog.Syms
	trust := syms != nil
	if syms == nil {
		syms = token.NewInterner()
	}
	// The flag table grows lazily to the highest Sym this program actually
	// touches (setFlag) rather than being sized to the whole interner: in
	// batch/serve mode one shared table serves many programs, and sizing by
	// syms.Len() would make every Check allocate proportional to the global
	// table instead of the program being checked.
	c := &checker{info: info, syms: syms, trust: trust, state: make([]uint8, 0, 64)}
	c.checkBlock(prog.Body, nil)
	return info, c.errs
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) checkBlock(body []ast.Stmt, enclosing []token.Sym) {
	for _, s := range body {
		switch st := s.(type) {
		case *ast.DoLoop:
			c.info.Loops = append(c.info.Loops, st)
			vs := c.symOf(st.Var, st.VarSym)
			c.info.IVs[st.Var] = true
			c.setFlag(vs, flagIV)
			for _, iv := range enclosing {
				if iv == vs {
					c.errorf(st.Pos(), "loop reuses enclosing induction variable %s", st.Var)
				}
			}
			if err := selfReadError(st); err != nil {
				c.errs = append(c.errs, err)
			}
			c.checkExpr(st.Lo)
			c.checkExpr(st.Hi)
			if st.Step != nil {
				c.checkExpr(st.Step)
			}
			c.checkBlock(st.Body, append(enclosing, vs))
		case *ast.If:
			c.checkExpr(st.Cond)
			c.checkBlock(st.Then, enclosing)
			c.checkBlock(st.Else, enclosing)
		case *ast.Dim:
			c.noteDim(st)
		case *ast.Assign:
			switch lhs := st.LHS.(type) {
			case *ast.Ident:
				ls := c.symOf(lhs.Name, lhs.Sym)
				for _, iv := range enclosing {
					if iv == ls {
						c.errorf(lhs.Pos(), "assignment to induction variable %s inside its loop", lhs.Name)
					}
				}
				c.noteScalar(lhs.Name, ls, lhs.Pos())
			case *ast.ArrayRef:
				c.noteArray(lhs)
				for _, sub := range lhs.Subs {
					c.checkExpr(sub)
				}
			default:
				c.errorf(st.Pos(), "invalid assignment target")
			}
			c.checkExpr(st.RHS)
		}
	}
}

func (c *checker) checkExpr(e ast.Expr) {
	ast.InspectExpr(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ArrayRef:
			c.noteArray(x)
		case *ast.Ident:
			s := c.symOf(x.Name, x.Sym)
			if x.Name != "_" && c.flags(s)&flagIV == 0 {
				c.noteScalar(x.Name, s, x.Pos())
			}
		}
		return true
	})
}

func (c *checker) noteScalar(name string, sym token.Sym, pos token.Pos) {
	f := c.flags(sym)
	if f&flagArray != 0 {
		c.errorf(pos, "%s used both as scalar and as array", name)
		return
	}
	if f&flagIV == 0 {
		if f&flagScalar == 0 {
			c.info.Scalars[name] = true
			c.setFlag(sym, flagScalar)
		}
	}
}

func (c *checker) noteArray(ref *ast.ArrayRef) {
	s := c.symOf(ref.Name, ref.Sym)
	f := c.flags(s)
	if f&(flagScalar|flagIV) != 0 {
		c.errorf(ref.Pos(), "%s used both as array and as scalar", ref.Name)
		return
	}
	if d, ok := c.info.Arrays[ref.Name]; ok {
		if d != len(ref.Subs) {
			c.errorf(ref.Pos(), "%s used with %d subscripts, previously %d", ref.Name, len(ref.Subs), d)
		}
		return
	}
	c.info.Arrays[ref.Name] = len(ref.Subs)
	c.setFlag(s, flagArray)
}

// noteDim records a dim declaration: sizes must be positive integer
// constants, redeclarations must agree, and the dimension count must match
// every subscripted use of the array.
func (c *checker) noteDim(d *ast.Dim) {
	ds := c.symOf(d.Name, d.Sym)
	if c.flags(ds)&(flagScalar|flagIV) != 0 {
		c.errorf(d.NamePos, "%s declared as array (dim) but used as scalar", d.Name)
		return
	}
	sizes := make([]int64, 0, len(d.Sizes))
	for _, sz := range d.Sizes {
		v, ok := constValue(sz)
		if !ok || v < 1 {
			c.errorf(sz.Pos(), "dim %s: size %q must be a positive integer constant", d.Name, ast.ExprString(sz))
			return
		}
		sizes = append(sizes, v)
	}
	if prev, ok := c.info.Bounds[d.Name]; ok {
		if !equalSizes(prev, sizes) {
			c.errorf(d.NamePos, "%s redeclared with different sizes (previous dim at %s)",
				d.Name, c.info.Dims[d.Name].Pos())
		}
		return
	}
	if nd, ok := c.info.Arrays[d.Name]; ok && nd != len(sizes) {
		c.errorf(d.NamePos, "dim %s declares %d dimensions but %s is used with %d subscripts",
			d.Name, len(sizes), d.Name, nd)
		return
	}
	c.info.Arrays[d.Name] = len(sizes)
	c.setFlag(ds, flagArray)
	c.info.Bounds[d.Name] = sizes
	c.info.Dims[d.Name] = d
}

func equalSizes(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
