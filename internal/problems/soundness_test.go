package problems

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/synth"
	"repro/internal/token"
)

// These tests validate the analyses end-to-end against ground truth
// obtained by *executing* random loops: every reuse the must-analyses
// claim is checked in a real run, and every dependence the execution
// exhibits must be found by the may-analysis.

// instrumentedRun executes the program while recording, for each array
// read, which statement instance (value) it observes — realized by
// tracking a shadow "writer tag" per array element.
type shadowState struct {
	// tag[array][index] = iteration and site of the last write.
	tag map[string]map[int64]writeTag
}

type writeTag struct {
	iter int64
	site string // rendered LHS reference, e.g. "C[i + 2]"
}

// runShadow interprets the loop manually (single top-level loop over
// straight-line/if body) collecting, for every executed array use, the tag
// of the value it reads. Scalar state uses the real interpreter's semantics
// via a local evaluator.
func runShadow(t *testing.T, loop *ast.DoLoop, scalars map[string]int64, arrays map[string]map[int64]int64, ub int64) []observation {
	t.Helper()
	sh := &shadowState{tag: map[string]map[int64]writeTag{}}
	st := interp.NewState()
	for k, v := range scalars {
		st.Scalars[k] = v
	}
	for a, m := range arrays {
		for i, v := range m {
			st.SetArray(a, i, v)
		}
	}
	var obs []observation
	var iter int64

	var evalExpr func(e ast.Expr) int64
	evalExpr = func(e ast.Expr) int64 {
		switch ex := e.(type) {
		case *ast.IntLit:
			return ex.Value
		case *ast.Ident:
			return st.Scalars[ex.Name]
		case *ast.ArrayRef:
			idx := evalExpr(ex.Subs[0])
			if tags := sh.tag[ex.Name]; tags != nil {
				if tg, ok := tags[idx]; ok {
					obs = append(obs, observation{
						iter: iter, use: ast.ExprString(ex), useNodeExpr: ex,
						writerIter: tg.iter, writerSite: tg.site,
					})
				}
			}
			return st.GetArray(ex.Name, idx)
		case *ast.Unary:
			v := evalExpr(ex.X)
			if ex.Op == token.MINUS {
				return -v
			}
			if v == 0 {
				return 1
			}
			return 0
		case *ast.Binary:
			l := evalExpr(ex.L)
			switch ex.Op {
			case token.AND:
				if l == 0 {
					return 0
				}
				if evalExpr(ex.R) != 0 {
					return 1
				}
				return 0
			case token.OR:
				if l != 0 {
					return 1
				}
				if evalExpr(ex.R) != 0 {
					return 1
				}
				return 0
			}
			r := evalExpr(ex.R)
			switch ex.Op {
			case token.PLUS:
				return l + r
			case token.MINUS:
				return l - r
			case token.STAR:
				return l * r
			case token.SLASH:
				if r == 0 {
					return 0
				}
				return l / r
			case token.MOD:
				if r == 0 {
					return 0
				}
				return l % r
			case token.EQ:
				return b2i(l == r)
			case token.NEQ:
				return b2i(l != r)
			case token.LT:
				return b2i(l < r)
			case token.LEQ:
				return b2i(l <= r)
			case token.GT:
				return b2i(l > r)
			case token.GEQ:
				return b2i(l >= r)
			}
		}
		t.Fatalf("shadow eval: unsupported expression %T", e)
		return 0
	}

	var execBlock func(stmts []ast.Stmt)
	execBlock = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			switch stm := s.(type) {
			case *ast.Assign:
				v := evalExpr(stm.RHS)
				switch lhs := stm.LHS.(type) {
				case *ast.Ident:
					st.Scalars[lhs.Name] = v
				case *ast.ArrayRef:
					idx := evalExpr(lhs.Subs[0])
					st.SetArray(lhs.Name, idx, v)
					tags := sh.tag[lhs.Name]
					if tags == nil {
						tags = map[int64]writeTag{}
						sh.tag[lhs.Name] = tags
					}
					tags[idx] = writeTag{iter: iter, site: ast.ExprString(lhs)}
				}
			case *ast.If:
				if evalExpr(stm.Cond) != 0 {
					execBlock(stm.Then)
				} else {
					execBlock(stm.Else)
				}
			case *ast.DoLoop:
				t.Fatal("shadow runner supports single loops only")
			}
		}
	}

	for iter = 1; iter <= ub; iter++ {
		st.Scalars[loop.Var] = iter
		execBlock(loop.Body)
	}
	return obs
}

type observation struct {
	iter        int64
	use         string
	useNodeExpr *ast.ArrayRef
	writerIter  int64
	writerSite  string
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestMustReusesHoldInExecution: for random loops and random inputs, every
// claimed reuse (use u gets class c's value from δ iterations back) is
// checked against the shadow execution: whenever u executes at iteration
// i > δ (past start-up) and the read element was written inside the loop,
// the writer must be a member site of class c writing at iteration i−δ.
func TestMustReusesHoldInExecution(t *testing.T) {
	const ub = 14
	for seed := int64(1); seed <= 60; seed++ {
		prog := synth.Loop(synth.Params{
			Seed: seed, Stmts: 5, Arrays: 2, MaxDist: 3,
			CondProb: 0.35, UB: ub,
		})
		loop := prog.Body[0].(*ast.DoLoop)
		g := ir.Build(loop, nil)
		res := Solve(g, MustReachingDefs())
		reuses := FindReuses(res)
		if len(reuses) == 0 {
			continue
		}

		rng := rand.New(rand.NewSource(seed * 17))
		scalars := map[string]int64{}
		for _, s := range []string{"x0", "x1", "x2", "c0", "c1", "c2", "c3"} {
			scalars[s] = rng.Int63n(7) - 3
		}
		arrays := map[string]map[int64]int64{}
		for a := 0; a < 2; a++ {
			m := map[int64]int64{}
			for i := int64(-4); i <= ub+5; i++ {
				m[i] = rng.Int63n(100)
			}
			arrays[fmt.Sprintf("A%d", a)] = m
		}
		obs := runShadow(t, loop, scalars, arrays, ub)

		byUse := map[*ast.ArrayRef][]observation{}
		for _, o := range obs {
			byUse[o.useNodeExpr] = append(byUse[o.useNodeExpr], o)
		}

		for _, r := range reuses {
			memberSites := map[string]bool{}
			for _, m := range r.From.Members {
				memberSites[ast.ExprString(m.Expr)] = true
			}
			for _, o := range byUse[r.At.Expr] {
				if o.iter <= r.Distance {
					continue // start-up iterations are exempt (paper §3.2)
				}
				if o.writerIter != o.iter-r.Distance || !memberSites[o.writerSite] {
					// The claim says the value comes from the class at
					// distance δ. Another member of the same class writing
					// the same element at the same iteration is fine; a
					// different iteration or site is a soundness bug.
					t.Errorf("seed %d: reuse %s violated at iter %d: value written by %s@iter %d\n%s",
						seed, r, o.iter, o.writerSite, o.writerIter,
						ast.ProgramString(prog))
				}
			}
		}
	}
}

// TestExecutionDependencesAreFound: every flow of a value between two
// subscripted references observed during execution must be covered by a
// dependence the may-analysis reports (completeness of δ-reaching refs for
// dependence distances within the bound).
func TestExecutionDependencesAreFound(t *testing.T) {
	const ub = 12
	for seed := int64(1); seed <= 60; seed++ {
		prog := synth.Loop(synth.Params{
			Seed: seed + 500, Stmts: 4, Arrays: 2, MaxDist: 3,
			CondProb: 0.3, UB: ub,
		})
		loop := prog.Body[0].(*ast.DoLoop)
		g := ir.Build(loop, nil)
		res := Solve(g, ReachingRefs())
		deps := FindDependences(res, ub)
		type key struct {
			site string
			use  string
			dist int64
		}
		covered := map[key]bool{}
		for _, d := range deps {
			if d.Kind != "flow" {
				continue
			}
			covered[key{
				site: ast.ExprString(d.From.Expr),
				use:  ast.ExprString(d.To.Expr),
				dist: d.Distance,
			}] = true
		}

		rng := rand.New(rand.NewSource(seed * 31))
		scalars := map[string]int64{}
		for _, s := range []string{"x0", "x1", "x2", "c0", "c1", "c2", "c3"} {
			scalars[s] = rng.Int63n(7) - 3
		}
		arrays := map[string]map[int64]int64{}
		for a := 0; a < 2; a++ {
			m := map[int64]int64{}
			for i := int64(-4); i <= ub+5; i++ {
				m[i] = rng.Int63n(100)
			}
			arrays[fmt.Sprintf("A%d", a)] = m
		}
		for _, o := range runShadow(t, loop, scalars, arrays, ub) {
			dist := o.iter - o.writerIter
			k := key{site: o.writerSite, use: o.use, dist: dist}
			if !covered[k] {
				t.Errorf("seed %d: executed flow %s@%d -> %s@%d (distance %d) not reported\n%s",
					seed, o.writerSite, o.writerIter, o.use, o.iter, dist,
					ast.ProgramString(prog))
			}
		}
	}
}

// TestReusesFig1Execution grounds the paper's own example: the §3.5
// conclusions hold in a concrete execution of Figure 1.
func TestReusesFig1Execution(t *testing.T) {
	prog := parser.MustParse(fig1)
	loop := prog.Body[0].(*ast.DoLoop)
	g := ir.Build(loop, nil)
	res := Solve(g, MustReachingDefs())
	reuses := FindReuses(res)

	scalars := map[string]int64{"X": 3, "UB": 0}
	arrays := map[string]map[int64]int64{"B": {}, "C": {}}
	rng := rand.New(rand.NewSource(99))
	for i := int64(-3); i <= 40; i++ {
		arrays["B"][i] = rng.Int63n(50)
		arrays["C"][i] = rng.Int63n(50)
	}
	const ub = 20
	obs := runShadow(t, loop, scalars, arrays, ub)
	byUse := map[*ast.ArrayRef][]observation{}
	for _, o := range obs {
		byUse[o.useNodeExpr] = append(byUse[o.useNodeExpr], o)
	}
	checked := 0
	for _, r := range reuses {
		for _, o := range byUse[r.At.Expr] {
			if o.iter <= r.Distance {
				continue
			}
			if o.writerIter != o.iter-r.Distance {
				t.Errorf("reuse %s violated at iter %d (writer iter %d)", r, o.iter, o.writerIter)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no observations checked — shadow runner broken?")
	}
}
