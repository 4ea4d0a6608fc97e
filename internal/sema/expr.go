package sema

import (
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/poly"
	"repro/internal/token"
)

// PolyToExpr converts a polynomial back into a source expression: its
// terms in the order poly.String lists them, each written |c|·s1·s2·… and
// joined by + and −, with ×1 elided and the constant last. A constant
// polynomial is a single literal. Symbols become identifiers. Stride
// symbols of the form "X#k" produced by DefaultDims are not convertible —
// callers that generate runtime code must use concrete dimension sizes
// instead; PolyToExpr reports them via ok=false.
func PolyToExpr(p poly.Poly) (ast.Expr, bool) { return polyToExpr(nil, p) }

// polyToExpr is PolyToExpr with the nodes taken from a (each allocated on
// its own when a is nil).
func polyToExpr(a *ast.Alloc, p poly.Poly) (ast.Expr, bool) {
	var expr ast.Expr
	for i := 0; i < p.NumTerms(); i++ {
		c, key := p.Term(i)
		if strings.IndexByte(key, '#') >= 0 {
			return nil, false
		}
		expr = appendTerm(a, expr, c, termExpr(a, abs64(c), key))
	}
	k := p.ConstPart()
	switch {
	case expr == nil:
		return a.IntLit(ast.IntLit{Value: k}), true
	case k != 0:
		expr = appendTerm(a, expr, k, a.IntLit(ast.IntLit{Value: abs64(k)}))
	}
	return expr, true
}

// appendTerm adds the term c·… whose magnitude is mag to the sum expr
// (nil for the first term).
func appendTerm(a *ast.Alloc, expr ast.Expr, c int64, mag ast.Expr) ast.Expr {
	switch {
	case expr == nil && c < 0:
		return a.Unary(ast.Unary{Op: token.MINUS, X: mag})
	case expr == nil:
		return mag
	case c < 0:
		return a.Binary(ast.Binary{Op: token.MINUS, L: expr, R: mag})
	}
	return a.Binary(ast.Binary{Op: token.PLUS, L: expr, R: mag})
}

// termExpr renders c·s1·s2·… for the monomial key of a non-constant term.
func termExpr(a *ast.Alloc, c int64, key string) ast.Expr {
	f, key := poly.NextFactor(key)
	var prod ast.Expr = a.Ident(ast.Ident{Name: f})
	for key != "" {
		f, key = poly.NextFactor(key)
		prod = a.Binary(ast.Binary{Op: token.STAR, L: prod, R: a.Ident(ast.Ident{Name: f})})
	}
	if c == 1 {
		return prod
	}
	return a.Binary(ast.Binary{Op: token.STAR, L: a.IntLit(ast.IntLit{Value: c}), R: prod})
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// AffineAtExpr builds the source expression for f(at) = A·at + B where at
// is itself an expression (used for pipeline initialization loads
// X[f(1−j)] and peeled iterations). ok=false when the form involves
// non-convertible stride symbols.
func AffineAtExpr(f AffineForm, at ast.Expr) (ast.Expr, bool) {
	aExpr, ok := PolyToExpr(f.A)
	if !ok {
		return nil, false
	}
	bExpr, ok := PolyToExpr(f.B)
	if !ok {
		return nil, false
	}
	prod := &ast.Binary{Op: token.STAR, L: aExpr, R: ast.CloneExpr(at)}
	sum := &ast.Binary{Op: token.PLUS, L: prod, R: bExpr}
	return Simplify(sum), true
}

// SortedSymbols exposes a polynomial's symbols sorted (diagnostics helper).
func SortedSymbols(p poly.Poly) []string {
	s := p.Symbols()
	sort.Strings(s)
	return s
}

// CanonicalizeSubscripts returns a deep copy of the program in which every
// polynomial array subscript is rewritten to its canonical affine form
// (e.g. "1 + (i-1)*3 + 2" becomes "3*i", as PolyToExpr writes it). Loop
// unrolling and derived-IV removal substitute expressions into subscripts;
// canonicalization collapses the residue so downstream code generation
// emits a single multiply per subscript, which strength reduction can then
// remove entirely. Non-polynomial subscripts are left unchanged, array
// references inside them included. Normalize canonicalizes the same way,
// in the same walk.
func CanonicalizeSubscripts(prog *ast.Program) *ast.Program {
	var w rewriter
	w.a.Expect(prog.Body)
	body, _ := w.block(prog.Body) // only loop normalization can fail
	return &ast.Program{Body: body, Syms: prog.Syms, Directives: prog.Directives}
}
