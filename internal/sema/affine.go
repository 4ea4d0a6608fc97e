// Package sema provides the semantic analyses the data flow framework
// assumes as preconditions (paper §1, §3.6): loop normalization, affine
// subscript extraction with symbolic constants, validation of the
// structured-loop restrictions, and multi-dimensional reference
// linearization.
package sema

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/poly"
	"repro/internal/token"
)

// AffineForm is a subscript decomposed as A·iv + B with respect to the
// induction variable iv; A and B are polynomials over symbolic constants
// (enclosing induction variables, dimension sizes) that do not mention iv.
type AffineForm struct {
	IV string
	A  poly.Poly
	B  poly.Poly
}

// String renders the form as "a*iv + b".
func (f AffineForm) String() string {
	return fmt.Sprintf("(%s)*%s + (%s)", f.A, f.IV, f.B)
}

// ConstCoeffs returns (a, b, true) when both coefficients are integer
// constants — the common single-loop case X[a·i+b].
func (f AffineForm) ConstCoeffs() (a, b int64, ok bool) {
	a, okA := f.A.IsConst()
	b, okB := f.B.IsConst()
	return a, b, okA && okB
}

// EvalAt evaluates the subscript at iteration iv=i under env for symbols.
func (f AffineForm) EvalAt(i int64, env map[string]int64) int64 {
	return f.A.Eval(env)*i + f.B.Eval(env)
}

// ErrNotAffine reports that an expression is not an affine (degree ≤ 1)
// function of the induction variable, or not a polynomial at all.
type ErrNotAffine struct {
	Expr ast.Expr
	IV   string
	Why  string
}

func (e *ErrNotAffine) Error() string {
	return fmt.Sprintf("%s: %q is not affine in %s: %s",
		e.Expr.Pos(), ast.ExprString(e.Expr), e.IV, e.Why)
}

// ExprToPoly converts an arithmetic expression to a polynomial, treating
// every identifier as a symbol. It fails on relational/boolean operators,
// on '%' and on inexact division.
func ExprToPoly(e ast.Expr) (poly.Poly, error) { return polyIn(e, nil, nil) }

// symPolys holds one single-symbol polynomial per name, created on first
// use.
type symPolys map[string]poly.Poly

// get returns name's single-symbol polynomial, from s when s is non-nil.
func (s *symPolys) get(name string) poly.Poly {
	if s == nil {
		return poly.Sym(name)
	}
	p, ok := (*s)[name]
	if !ok {
		if *s == nil {
			*s = symPolys{}
		}
		p = poly.Sym(name)
		(*s)[name] = p
	}
	return p
}

// polyIn is ExprToPoly with each identifier that env binds standing for
// its binding's polynomial (see Normalize), and every other one for its
// polynomial from syms.
func polyIn(e ast.Expr, env []binding, syms *symPolys) (poly.Poly, error) {
	switch ex := e.(type) {
	case *ast.IntLit:
		return poly.Const(ex.Value), nil
	case *ast.Ident:
		if b := lookup(env, ex.Name); b != nil {
			return b.p, b.err
		}
		return syms.get(ex.Name), nil
	case *ast.Unary:
		if ex.Op != token.MINUS {
			return poly.Zero, fmt.Errorf("%s: operator %s not allowed in subscript", ex.Pos(), ex.Op)
		}
		p, err := polyIn(ex.X, env, syms)
		if err != nil {
			return poly.Zero, err
		}
		return p.Neg(), nil
	case *ast.Binary:
		l, err := polyIn(ex.L, env, syms)
		if err != nil {
			return poly.Zero, err
		}
		r, err := polyIn(ex.R, env, syms)
		if err != nil {
			return poly.Zero, err
		}
		switch ex.Op {
		case token.PLUS:
			return l.Add(r), nil
		case token.MINUS:
			return l.Sub(r), nil
		case token.STAR:
			return l.Mul(r), nil
		case token.SLASH:
			q, ok := l.DivExact(r)
			if !ok {
				return poly.Zero, fmt.Errorf("%s: inexact division in subscript", ex.Pos())
			}
			return q, nil
		default:
			return poly.Zero, fmt.Errorf("%s: operator %s not allowed in subscript", ex.Pos(), ex.Op)
		}
	case *ast.ArrayRef:
		return poly.Zero, fmt.Errorf("%s: array reference %s not allowed in subscript", ex.Pos(), ex.Name)
	}
	return poly.Zero, fmt.Errorf("unsupported expression in subscript")
}

// AffineOf decomposes expression e as A·iv + B. It fails when e is not a
// polynomial or mentions iv non-linearly.
func AffineOf(e ast.Expr, iv string) (AffineForm, error) {
	p, err := ExprToPoly(e)
	if err != nil {
		return AffineForm{}, &ErrNotAffine{Expr: e, IV: iv, Why: err.Error()}
	}
	a, b, ok := p.CoeffOf(iv)
	if !ok {
		return AffineForm{}, &ErrNotAffine{Expr: e, IV: iv, Why: "induction variable occurs with degree > 1"}
	}
	for _, s := range a.Symbols() {
		if s == iv {
			return AffineForm{}, &ErrNotAffine{Expr: e, IV: iv, Why: "nonlinear in induction variable"}
		}
	}
	return AffineForm{IV: iv, A: a, B: b}, nil
}

// Linearize maps a (possibly multi-dimensional) array reference to a single
// linear subscript polynomial using row-major strides, following paper §3.6:
// X[s1, s2] with first-dimension size N linearizes to s1·N + s2, so that
// X[i+1, j] becomes N·i + (N + j).
//
// dims gives the size of each dimension as a polynomial; dims[k] is the size
// of dimension k (0-based). Only dims[1:] participate in strides (row-major),
// so dims[0] may be poly.Zero when unknown. len(dims) must equal the number
// of subscripts.
func Linearize(ref *ast.ArrayRef, dims []poly.Poly) (poly.Poly, error) {
	if len(dims) != len(ref.Subs) {
		return poly.Zero, fmt.Errorf("%s: %s has %d subscripts but %d dimension sizes supplied",
			ref.Pos(), ref.Name, len(ref.Subs), len(dims))
	}
	total := poly.Zero
	for k, sub := range ref.Subs {
		p, err := ExprToPoly(sub)
		if err != nil {
			return poly.Zero, err
		}
		// stride_k = Π_{m>k} dims[m]
		stride := poly.Const(1)
		for m := k + 1; m < len(dims); m++ {
			stride = stride.Mul(dims[m])
		}
		total = total.Add(p.Mul(stride))
	}
	return total, nil
}

// DefaultDims returns symbolic dimension sizes for an array: the size of
// dimension k of array X is the symbol "X#k". Using one symbol per
// (array, dimension) makes strides of distinct references to the same array
// comparable, which is what the symbolic-evaluation step in §3.6 relies on.
func DefaultDims(array string, n int) []poly.Poly {
	out := make([]poly.Poly, n)
	for k := range out {
		out[k] = poly.Sym(fmt.Sprintf("%s#%d", array, k))
	}
	return out
}

// LinearAffine linearizes ref and decomposes the result with respect to iv.
// dims may be nil, in which case DefaultDims is used.
func LinearAffine(ref *ast.ArrayRef, iv string, dims []poly.Poly) (AffineForm, error) {
	if len(ref.Subs) == 1 && (dims == nil || len(dims) == 1) {
		// One subscript: the stride is 1 regardless of dims, so the
		// linearization is the subscript polynomial itself.
		p, err := ExprToPoly(ref.Subs[0])
		if err != nil {
			return AffineForm{}, err
		}
		a, b, ok := p.CoeffOf(iv)
		if !ok {
			return AffineForm{}, &ErrNotAffine{Expr: ref, IV: iv, Why: "induction variable occurs with degree > 1 after linearization"}
		}
		return AffineForm{IV: iv, A: a, B: b}, nil
	}
	if dims == nil {
		dims = DefaultDims(ref.Name, len(ref.Subs))
	}
	lin, err := Linearize(ref, dims)
	if err != nil {
		return AffineForm{}, err
	}
	a, b, ok := lin.CoeffOf(iv)
	if !ok {
		return AffineForm{}, &ErrNotAffine{Expr: ref, IV: iv, Why: "induction variable occurs with degree > 1 after linearization"}
	}
	return AffineForm{IV: iv, A: a, B: b}, nil
}
