package lint

import (
	"strconv"

	"repro/internal/ast"
	"repro/internal/diag"
	"repro/internal/sema"
	"repro/internal/token"
)

// boundsAnalyzer compares the extreme values of each affine subscript over
// the loop's iteration space against the array's dim-declared bounds.
// Arrays without a dim declaration are never reported (their extent is
// unknown), and extremes that depend on a symbolic loop bound are skipped —
// only provable violations fire.
var boundsAnalyzer = &Analyzer{
	ID:      "bounds",
	Doc:     "affine subscript provably outside the dim-declared bounds",
	Problem: "affine subscript forms over the normalized iteration space",
	Default: diag.Error,
	Run:     runBounds,
}

func runBounds(c *Context) []diag.Finding {
	g := c.Loop.Graph()
	var out []diag.Finding
	for _, ref := range g.Refs {
		if ref.FromInner {
			// Inner-loop references are checked by the inner loop's own run.
			continue
		}
		// The loop's own expression, whose subscripts sit at its own
		// positions; the shared graph's has the same content.
		expr := c.Loop.RefExpr(ref)
		sizes, declared := c.Info.Bounds[ref.Array]
		if !declared || len(sizes) != len(expr.Subs) {
			continue
		}
		for k, sub := range expr.Subs {
			f, err := sema.AffineOf(sub, g.IV)
			if err != nil {
				continue
			}
			a, b, ok := f.ConstCoeffs()
			if !ok {
				continue
			}
			// Normalized loops run iv = 1..UB, so a·iv+b is monotone in iv:
			// one extreme sits at iv=1, the other at iv=UB (known only for
			// constant bounds).
			lo, hi, loKnown, hiKnown := subscriptRange(a, b, g.HasUB, g.UBConst)
			if loKnown && lo < 1 {
				out = append(out, c.boundsFinding(expr, sub, k, sizes[k], lo, a, b, g.HasUB, g.UBConst, true))
			}
			if hiKnown && hi > sizes[k] {
				out = append(out, c.boundsFinding(expr, sub, k, sizes[k], hi, a, b, g.HasUB, g.UBConst, false))
			}
		}
	}
	return out
}

// subscriptRange evaluates the extremes of a·iv+b for iv in [1, UB].
func subscriptRange(a, b int64, hasUB bool, ub int64) (lo, hi int64, loKnown, hiKnown bool) {
	atOne := a + b
	switch {
	case a == 0:
		return b, b, true, true
	case a > 0:
		lo, loKnown = atOne, true
		if hasUB {
			hi, hiKnown = a*ub+b, true
		}
	default:
		hi, hiKnown = atOne, true
		if hasUB {
			lo, loKnown = a*ub+b, true
		}
	}
	return lo, hi, loKnown, hiKnown
}

func (c *Context) boundsFinding(ref *ast.ArrayRef, sub ast.Expr, dim int, size, value, a, b int64,
	hasUB bool, ub int64, below bool) diag.Finding {
	// The violating iteration: the minimum of a·iv+b sits at iv=1 for a>0
	// and at iv=UB for a<0 (and vice versa for the maximum).
	atIter := int64(1)
	if (a > 0) != below && hasUB {
		atIter = ub
	}
	side := "above"
	if below {
		side = "below"
	}
	pos := sub.Pos()
	if !pos.IsValid() {
		pos = ref.Pos()
	}
	f := diag.Finding{
		Analyzer: "bounds",
		Pos:      pos,
		Severity: diag.Error,
		Message: "subscript " + strconv.Itoa(dim+1) + " of " + ast.ExprString(ref) + " reaches " + itoa(value) +
			", " + side + " the declared range 1.." + itoa(size),
		Detail: map[string]string{
			"array":     ref.Name,
			"dimension": strconv.Itoa(dim + 1),
			"value":     itoa(value),
			"range":     "1.." + itoa(size),
			"at":        c.Loop.Graph().IV + " = " + itoa(atIter),
		},
	}
	if a == 0 {
		delete(f.Detail, "at") // constant subscript: every iteration violates
	}
	if d := c.Info.Dims[ref.Name]; d != nil {
		f.Related = append(f.Related, diag.Related{Pos: d.Pos(), Message: "bounds declared here"})
		if !below {
			if fix, ok := growDimFix(c.vet().lines, c.vet().dimsOf(d), dim, value); ok {
				f.SuggestedFixes = append(f.SuggestedFixes, fix)
			}
		}
	}
	return f
}

// growDimFix suggests widening the array's declared size to cover the
// subscript's proven maximum, in every dim declaration of the array
// (decls): sema accepts a redeclaration only when its sizes agree, so
// growing one alone would break the program. Only literal sizes are
// editable, and the source text of each is verified before the fix is
// offered. Underflow (below 1) has no declaration-side fix — arrays are
// 1-based.
func growDimFix(lines *diag.LineIndex, decls []*ast.Dim, dim int, value int64) (diag.SuggestedFix, bool) {
	if lines == nil {
		return diag.SuggestedFix{}, false
	}
	fix := diag.SuggestedFix{Message: "grow dimension " + strconv.Itoa(dim+1) + " of " + decls[0].Name + " to " + itoa(value)}
	for _, d := range decls {
		if dim >= len(d.Sizes) {
			return diag.SuggestedFix{}, false
		}
		lit, ok := d.Sizes[dim].(*ast.IntLit)
		if !ok {
			return diag.SuggestedFix{}, false
		}
		old := itoa(lit.Value)
		pos := lit.Pos()
		text, ok := lines.Line(pos.Line)
		if !ok || pos.Col < 1 || pos.Col-1+len(old) > len(text) || text[pos.Col-1:pos.Col-1+len(old)] != old {
			return diag.SuggestedFix{}, false
		}
		fix.Edits = append(fix.Edits, diag.TextEdit{
			Pos:     pos,
			End:     token.Pos{Line: pos.Line, Col: pos.Col + len(old)},
			NewText: itoa(value),
		})
	}
	return fix, true
}
