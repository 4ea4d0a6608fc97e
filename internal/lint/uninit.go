package lint

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/problems"
)

// uninitAnalyzer reports array reads that may see never-written elements.
// The framework's facts describe the loop's steady state; the analyzer
// detects the boundary gap arithmetically: when the earliest guaranteed
// producer of a read's element lags δ* ≥ 1 iterations (must-reaching
// definitions), the first δ* iterations read elements no statement has
// written. Reads with no guaranteed producer at all are reported when a
// same-shape store exists but is conditional or mis-ordered; arrays stored
// to before the loop, and reads with no matching store anywhere (loop
// inputs), stay silent.
var uninitAnalyzer = &Analyzer{
	ID:      "uninit",
	Doc:     "array read that may see a never-written element",
	Problem: "must-reaching definitions (§3.5)",
	Default: diag.Warning,
	Run:     runUninit,
}

func runUninit(c *Context) []diag.Finding {
	res := c.result("must-reaching-defs")
	if res == nil {
		return nil
	}
	if res.FuelExhausted {
		// The degraded solution guarantees nothing, which would make every
		// read look unprotected. Stay silent; the race analyzer carries the
		// fuel blocker for the loop.
		return nil
	}
	// Earliest guaranteed producer per use.
	guaranteed := map[*ir.Ref]problems.Reuse{}
	for _, r := range problems.FindReuses(res) {
		if prev, ok := guaranteed[r.At]; !ok || r.Distance < prev.Distance {
			guaranteed[r.At] = r
		}
	}
	var out []diag.Finding
	for _, u := range c.Loop.Graph().Refs {
		if u.Kind != ir.Use || !u.Affine || u.FromInner {
			continue
		}
		if c.DefinedBefore[u.Array] {
			continue
		}
		if r, ok := guaranteed[u]; ok {
			if r.Distance >= 1 {
				f := uninitGapFinding(u, r)
				if fix, ok := uninitFix(c, u, fmt.Sprintf("%d", r.Distance)); ok {
					f.SuggestedFixes = append(f.SuggestedFixes, fix)
				}
				out = append(out, f)
			}
			continue // distance 0: written earlier in the same iteration on every path
		}
		if f, ok := uninitMayFinding(u, res); ok {
			if fix, ok := uninitFix(c, u, ast.ExprString(c.Loop.Loop.Hi)); ok {
				f.SuggestedFixes = append(f.SuggestedFixes, fix)
			}
			out = append(out, f)
		}
	}
	return out
}

// uninitGapFinding reports the boundary gap of a use whose earliest
// guaranteed producer lags r.Distance iterations: that many leading
// iterations read elements nothing in the loop has written yet.
func uninitGapFinding(u *ir.Ref, r problems.Reuse) diag.Finding {
	f := diag.Finding{
		Analyzer: "uninit",
		Pos:      u.Expr.Pos(),
		Severity: diag.Warning,
		Message: fmt.Sprintf("%s reads a possibly uninitialized element during the first %s: the earliest guaranteed store (%s) lags %s",
			ast.ExprString(u.Expr), iterations(r.Distance), r.From, iterations(r.Distance)),
		Detail: map[string]string{
			"array":    u.Array,
			"gap":      fmt.Sprintf("%d", r.Distance),
			"producer": r.From.String(),
		},
	}
	if len(r.From.Members) > 0 {
		f.Related = append(f.Related, diag.Related{
			Pos:     r.From.Members[0].Expr.Pos(),
			Message: fmt.Sprintf("earliest guaranteed store (%s)", r.From),
		})
	}
	return f
}

// uninitMayFinding handles uses with no guaranteed producer: when some
// definition class writes the same elements at a computable distance, the
// read may still see uninitialized data — the store is conditional, or
// follows the read. With no computable candidate the analyzer stays
// silent (the array is a loop input or subscripts are symbolic).
func uninitMayFinding(u *ir.Ref, res *dataflow.Result) (diag.Finding, bool) {
	var best *dataflow.Class
	bestDist := int64(-1)
	for _, cl := range res.ClassesOf(u.Array) {
		d, ok := problems.ClassDistance(cl, u)
		if !ok {
			continue
		}
		if bestDist < 0 || d < bestDist {
			bestDist, best = d, cl
		}
	}
	if best == nil {
		return diag.Finding{}, false
	}
	f := diag.Finding{
		Analyzer: "uninit",
		Pos:      u.Expr.Pos(),
		Severity: diag.Warning,
		Message: fmt.Sprintf("%s may read an uninitialized element: the matching store %s is not guaranteed to precede the read on every path",
			ast.ExprString(u.Expr), best),
		Detail: map[string]string{
			"array":             u.Array,
			"candidate":         best.String(),
			"candidateDistance": fmt.Sprintf("%d", bestDist),
		},
	}
	if len(best.Members) > 0 {
		f.Related = append(f.Related, diag.Related{
			Pos:     best.Members[0].Expr.Pos(),
			Message: fmt.Sprintf("candidate store (%s)", best),
		})
	}
	return f, true
}

// uninitFix suggests a mechanical initialization prologue: a loop inserted
// immediately above the analyzed loop that zeroes exactly the elements the
// read touches during the first `bound` iterations (the boundary gap), or
// over the full trip count for conditional-store reads. The prologue
// stores to the array before the loop, which is precisely the condition
// (DefinedBefore) under which the analyzer accepts the read — so the fix
// provably eliminates its finding and `vet -fix` converges.
func uninitFix(c *Context, u *ir.Ref, bound string) (diag.SuggestedFix, bool) {
	if c.Src == "" {
		return diag.SuggestedFix{}, false
	}
	loop := c.Loop.Loop
	line := loop.Pos().Line
	text, ok := diag.LineAt(c.Src, line)
	if !ok || !strings.HasPrefix(strings.TrimLeft(text, " \t"), "do") {
		return diag.SuggestedFix{}, false
	}
	iv := freshName(c.Program, "ii")
	subs := make([]string, len(u.Expr.Subs))
	for k, sub := range u.Expr.Subs {
		subs[k] = ast.ExprString(ast.SubstituteIdent(sub, c.Loop.Graph().IV, &ast.Ident{Name: iv}))
	}
	lines := []string{
		fmt.Sprintf("do %s = 1, %s", iv, bound),
		fmt.Sprintf("    %s[%s] := 0", u.Array, strings.Join(subs, ", ")),
		"enddo",
	}
	edit, ok := diag.InsertLinesEdit(c.Src, line, lines)
	if !ok {
		return diag.SuggestedFix{}, false
	}
	return diag.SuggestedFix{
		Message: fmt.Sprintf("initialize the elements %s reads before the loop", ast.ExprString(u.Expr)),
		Edits:   []diag.TextEdit{edit},
	}, true
}

// freshName returns base, or base with a numeric suffix, such that the
// name collides with no identifier in the program.
func freshName(prog *ast.Program, base string) string {
	used := map[string]bool{}
	ast.Inspect(prog.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			used[x.Name] = true
		case *ast.ArrayRef:
			used[x.Name] = true
		case *ast.DoLoop:
			used[x.Var] = true
		case *ast.Dim:
			used[x.Name] = true
		}
		return true
	})
	if !used[base] {
		return base
	}
	for k := 2; ; k++ {
		cand := fmt.Sprintf("%s%d", base, k)
		if !used[cand] {
			return cand
		}
	}
}
