package lint

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/problems"
)

// deadStoreAnalyzer reports δ-redundant stores (paper §4.2.1): a store
// whose element is overwritten δ iterations later on every path with no
// intervening use, read off the δ-busy-stores solution.
var deadStoreAnalyzer = &Analyzer{
	ID:      "deadstore",
	Doc:     "store overwritten on every path with no intervening read",
	Problem: "δ-busy stores (§4.2.1)",
	Default: diag.Warning,
	Run:     runDeadStore,
}

func runDeadStore(c *Context) []diag.Finding {
	res := c.result("delta-busy-stores")
	if res == nil {
		return nil
	}
	var out []diag.Finding
	for _, rs := range problems.FindRedundantStores(res) {
		when := "later in the same iteration"
		if rs.Distance > 0 {
			when = iterations(rs.Distance) + " later"
		}
		f := diag.Finding{
			Analyzer: "deadstore",
			Pos:      rs.Store.Expr.Pos(),
			Severity: diag.Warning,
			Message: fmt.Sprintf("store to %s is dead: %s overwrites the element %s with no intervening read",
				ast.ExprString(rs.Store.Expr), rs.By, when),
			Detail: map[string]string{
				"array":         rs.Store.Array,
				"distance":      fmt.Sprintf("%d", rs.Distance),
				"overwrittenBy": rs.By.String(),
			},
		}
		if len(rs.By.Members) > 0 {
			f.Related = append(f.Related, diag.Related{
				Pos:     rs.By.Members[0].Expr.Pos(),
				Message: fmt.Sprintf("overwritten by this store (%s)", rs.By),
			})
		}
		if fix, ok := deadStoreFix(c.vet().lines, rs.Store); ok {
			f.SuggestedFixes = append(f.SuggestedFixes, fix)
		}
		out = append(out, f)
	}
	return out
}

// deadStoreFix suggests deleting the dead store's source line. The fix is
// only offered when the line provably holds exactly one assignment to the
// store's array (the mini-language puts one statement per line), so the
// deletion removes the dead statement and nothing else.
func deadStoreFix(lines *diag.LineIndex, store *ir.Ref) (diag.SuggestedFix, bool) {
	if lines == nil {
		return diag.SuggestedFix{}, false
	}
	line := store.Expr.Pos().Line
	text, ok := lines.Line(line)
	if !ok {
		return diag.SuggestedFix{}, false
	}
	trimmed := strings.TrimSpace(text)
	rest, ok := strings.CutPrefix(trimmed, store.Array)
	if !ok || !strings.Contains(rest, ":=") {
		return diag.SuggestedFix{}, false
	}
	if r := strings.TrimLeft(rest, " \t"); len(r) == 0 || (r[0] != '[' && r[0] != '(') {
		return diag.SuggestedFix{}, false
	}
	edit, ok := lines.DeleteLineEdit(line)
	if !ok {
		return diag.SuggestedFix{}, false
	}
	return diag.SuggestedFix{
		Message: fmt.Sprintf("delete the dead store to %s", ast.ExprString(store.Expr)),
		Edits:   []diag.TextEdit{edit},
	}, true
}
