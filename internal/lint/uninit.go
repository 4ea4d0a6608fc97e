package lint

import (
	"strconv"
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
	// Earliest guaranteed producer per use, from the reuses the driver
	// derived from this solve.
	guaranteed := map[*ir.Ref]problems.Reuse{}
	for _, r := range c.Loop.Reuses() {
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
				f := uninitGapFinding(c, u, r)
				if fix, ok := uninitFix(c, u, strconv.FormatInt(r.Distance, 10)); ok {
					f.SuggestedFixes = append(f.SuggestedFixes, fix)
				}
				out = append(out, f)
			}
			continue // distance 0: written earlier in the same iteration on every path
		}
		if f, ok := uninitMayFinding(c, u, res); ok {
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
func uninitGapFinding(c *Context, u *ir.Ref, r problems.Reuse) diag.Finding {
	gap, producer := iterations(r.Distance), r.From.String()
	f := diag.Finding{
		Analyzer: "uninit",
		Pos:      c.Loop.RefExpr(u).Pos(),
		Severity: diag.Warning,
		Message: ast.ExprString(u.Expr) + " reads a possibly uninitialized element during the first " + gap +
			": the earliest guaranteed store (" + producer + ") lags " + gap,
		Detail: map[string]string{
			"array":    u.Array,
			"gap":      strconv.FormatInt(r.Distance, 10),
			"producer": producer,
		},
	}
	if len(r.From.Members) > 0 {
		f.Related = append(f.Related, diag.Related{
			Pos:     c.Loop.RefExpr(r.From.Members[0]).Pos(),
			Message: "earliest guaranteed store (" + producer + ")",
		})
	}
	return f
}

// uninitMayFinding handles uses with no guaranteed producer: when some
// definition class writes the same elements at a computable distance, the
// read may still see uninitialized data — the store is conditional, or
// follows the read. With no computable candidate the analyzer stays
// silent (the array is a loop input or subscripts are symbolic).
func uninitMayFinding(c *Context, u *ir.Ref, res *dataflow.Result) (diag.Finding, bool) {
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
	candidate := best.String()
	f := diag.Finding{
		Analyzer: "uninit",
		Pos:      c.Loop.RefExpr(u).Pos(),
		Severity: diag.Warning,
		Message: ast.ExprString(u.Expr) + " may read an uninitialized element: the matching store " + candidate +
			" is not guaranteed to precede the read on every path",
		Detail: map[string]string{
			"array":             u.Array,
			"candidate":         candidate,
			"candidateDistance": strconv.FormatInt(bestDist, 10),
		},
	}
	if len(best.Members) > 0 {
		f.Related = append(f.Related, diag.Related{
			Pos:     c.Loop.RefExpr(best.Members[0]).Pos(),
			Message: "candidate store (" + candidate + ")",
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
	li := c.vet().lines
	if li == nil {
		return diag.SuggestedFix{}, false
	}
	loop := c.Loop.Loop
	line := loop.Pos().Line
	text, ok := li.Line(line)
	if !ok || !strings.HasPrefix(strings.TrimLeft(text, " \t"), "do") {
		return diag.SuggestedFix{}, false
	}
	iv := c.vet().freshIV()
	subs := make([]string, len(u.Expr.Subs))
	for k, sub := range u.Expr.Subs {
		subs[k] = ast.ExprString(ast.SubstituteIdent(sub, c.Loop.Graph().IV, &ast.Ident{Name: iv}))
	}
	lines := []string{
		"do " + iv + " = 1, " + bound,
		"    " + u.Array + "[" + strings.Join(subs, ", ") + "] := 0",
		"enddo",
	}
	edit, ok := li.InsertLinesEdit(line, lines)
	if !ok {
		return diag.SuggestedFix{}, false
	}
	return diag.SuggestedFix{
		Message: "initialize the elements " + ast.ExprString(u.Expr) + " reads before the loop",
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
		cand := base + strconv.Itoa(k)
		if !used[cand] {
			return cand
		}
	}
}
