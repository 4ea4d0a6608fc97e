package lint

import (
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/diag"
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
	stores := problems.FindRedundantStores(res)
	out := make([]diag.Finding, 0, len(stores))
	for _, rs := range stores {
		when := "later in the same iteration"
		if rs.Distance > 0 {
			when = iterations(rs.Distance) + " later"
		}
		store, by := ast.ExprString(rs.Store.Expr), rs.By.String()
		pos := c.Loop.RefExpr(rs.Store).Pos()
		f := diag.Finding{
			Analyzer: "deadstore",
			Pos:      pos,
			Severity: diag.Warning,
			Message:  "store to " + store + " is dead: " + by + " overwrites the element " + when + " with no intervening read",
			Detail: map[string]string{
				"array":         rs.Store.Array,
				"distance":      strconv.FormatInt(rs.Distance, 10),
				"overwrittenBy": by,
			},
		}
		if len(rs.By.Members) > 0 {
			f.Related = append(f.Related, diag.Related{
				Pos:     c.Loop.RefExpr(rs.By.Members[0]).Pos(),
				Message: "overwritten by this store (" + by + ")",
			})
		}
		if fix, ok := deadStoreFix(c.vet().lines, pos.Line, rs.Store.Array, store); ok {
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
func deadStoreFix(lines *diag.LineIndex, line int, array, storeText string) (diag.SuggestedFix, bool) {
	if lines == nil {
		return diag.SuggestedFix{}, false
	}
	text, ok := lines.Line(line)
	if !ok {
		return diag.SuggestedFix{}, false
	}
	trimmed := strings.TrimSpace(text)
	rest, ok := strings.CutPrefix(trimmed, array)
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
		Message: "delete the dead store to " + storeText,
		Edits:   []diag.TextEdit{edit},
	}, true
}
