package lint

import (
	"strconv"

	"repro/internal/ast"
	"repro/internal/diag"
	"repro/internal/problems"
)

// reuseAnalyzer reports guaranteed value reuses (paper §4.1): a load whose
// value is provably available from an earlier reference, read off the
// δ-available-values solution. These are optimization opportunities, so
// the severity is informational.
var reuseAnalyzer = &Analyzer{
	ID:      "reuse",
	Doc:     "load whose value is provably available from an earlier reference",
	Problem: "δ-available values (§4.1)",
	Default: diag.Info,
	Run:     runReuse,
}

func runReuse(c *Context) []diag.Finding {
	res := c.result("delta-available-values")
	if res == nil {
		return nil
	}
	reuses := problems.FindReuses(res)
	out := make([]diag.Finding, 0, len(reuses))
	for _, r := range reuses {
		when := "earlier in the same iteration"
		if r.Distance > 0 {
			when = iterations(r.Distance) + " earlier"
		}
		source := r.From.String()
		f := diag.Finding{
			Analyzer: "reuse",
			Pos:      c.Loop.RefExpr(r.At).Pos(),
			Severity: diag.Info,
			Message:  "load of " + ast.ExprString(r.At.Expr) + " reuses the value of " + source + " from " + when,
			Detail: map[string]string{
				"array":    r.At.Array,
				"distance": strconv.FormatInt(r.Distance, 10),
				"source":   source,
			},
		}
		if len(r.From.Members) > 0 {
			f.Related = append(f.Related, diag.Related{
				Pos:     c.Loop.RefExpr(r.From.Members[0]).Pos(),
				Message: "value available from here (" + source + ")",
			})
		}
		out = append(out, f)
	}
	return out
}
