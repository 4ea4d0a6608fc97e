// Differential testing of the lowering: every lowered unit retains its
// original go/ast loop, so the same seeded initial memory can be run both
// through the mini-language interpreter (on the lowered program) and
// through a direct Go-subset evaluator (on the original loop). Agreement
// of the final memories — modulo the +1 subscript shift — is the lowering
// correctness oracle cmd/corpus and the tests sample.
package goimport

import (
	"fmt"
	goast "go/ast"
	"go/constant"
	gotoken "go/token"
	"go/types"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/interp"
)

// DiffStatus classifies one differential run.
type DiffStatus string

const (
	// DiffMatch: both executions ran to completion with identical final
	// memories.
	DiffMatch DiffStatus = "match"
	// DiffMismatch: both ran, memories differ — a lowering bug.
	DiffMismatch DiffStatus = "mismatch"
	// DiffError: one side failed to run (division by zero, step cap).
	DiffError DiffStatus = "error"
	// DiffSkipped: the unit uses integer types narrower than 64 bits,
	// whose overflow semantics the mini-language does not model.
	DiffSkipped DiffStatus = "skipped"
)

// DiffResult reports one seeded differential execution.
type DiffResult struct {
	Status DiffStatus
	// Detail explains mismatches, errors, and skips.
	Detail string
}

// diffMaxSteps bounds both executions. Lowered loops have constant
// nonzero steps, so they terminate; the cap only bounds pathological
// iteration counts from large synthesized bounds.
const diffMaxSteps = 500_000

// Differential executes u's lowered program and its original Go loop from
// the same seeded initial memory and compares the final memories.
func Differential(u *Unit, seed int64) DiffResult {
	if reason := ineligible(u); reason != "" {
		return DiffResult{Status: DiffSkipped, Detail: reason}
	}
	rng := rand.New(rand.NewSource(seed))

	// Synthesize per-array shapes (slice lengths drawn small), then the
	// initial memories: the mini side keys elements 1-based, the Go side
	// 0-based, with identical values.
	lens := map[string]int64{}
	init := interp.NewState()
	ge := &goEval{
		u:       u,
		scalars: map[string]int64{},
		arrays:  map[string]map[string]int64{},
		lens:    lens,
		max:     diffMaxSteps,
	}
	for _, name := range sortedKeys(u.Arrays) {
		ai := u.Arrays[name]
		shape := ai.Shape
		if len(shape) == 0 {
			// len-only slice: rank unknown, elements never touched.
			shape = []int64{-1}
		}
		concrete := make([]int64, len(shape))
		for k, d := range shape {
			if d < 0 {
				concrete[k] = 4 + rng.Int63n(6)
			} else {
				concrete[k] = d
			}
		}
		lens[name] = concrete[0]
		gom := map[string]int64{}
		fillCells(concrete, nil, func(idx []int64) {
			v := rng.Int63n(21) - 10
			key := cellKey(idx, 0)
			init.SetArrayN(name, keyIdx(key, +1), v)
			gom[key] = v
		})
		ge.arrays[name] = gom
	}
	for _, name := range sortedKeys(u.Scalars) {
		si := u.Scalars[name]
		var v int64
		if si.LenOf != "" {
			v = lens[si.LenOf]
		} else {
			v = rng.Int63n(8)
		}
		init.Scalars[name] = v
		ge.scalars[name] = v
	}

	final, _, err := interp.Run(u.Program, init, &interp.Options{MaxSteps: diffMaxSteps})
	goErr := ge.stmt(u.GoLoop)
	if err != nil || goErr != nil {
		return DiffResult{Status: DiffError, Detail: fmt.Sprintf("interp: %v; go: %v", err, goErr)}
	}

	// Compare scalars the unit knows about (the evaluator scopes loop
	// variables exactly as the interpreter restores them).
	for _, name := range sortedKeys(u.Scalars) {
		if final.Scalars[name] != ge.scalars[name] {
			return DiffResult{Status: DiffMismatch,
				Detail: fmt.Sprintf("scalar %s: interp %d, go %d", name, final.Scalars[name], ge.scalars[name])}
		}
	}
	// Compare arrays under the inverse shift: mini cell (i1,...,in) holds
	// Go cell (i1-1,...,in-1).
	for _, name := range sortedKeys(u.Arrays) {
		goArr := ge.arrays[name]
		detail := ""
		compare := func(idx []int64, mini, gov int64) {
			if detail == "" && mini != gov {
				detail = fmt.Sprintf("array %s[%s]: interp %d, go %d", name, cellKey(idx, 0), mini, gov)
			}
		}
		final.EachCell(name, func(idx []int64, v int64) { compare(idx, v, goArr[cellKey(idx, -1)]) })
		for k, v := range goArr {
			idx := keyIdx(k, +1)
			compare(idx, final.GetArrayN(name, idx), v)
		}
		if detail != "" {
			return DiffResult{Status: DiffMismatch, Detail: detail}
		}
	}
	return DiffResult{Status: DiffMatch}
}

// ineligible reports why a unit cannot be differentially executed: the
// mini-language computes in int64, so any narrower (or unsigned 64-bit)
// Go integer type could diverge on overflow.
func ineligible(u *Unit) string {
	reason := ""
	wide := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		if !ok {
			return false
		}
		switch b.Kind() {
		case types.Int, types.Int64, types.UntypedInt:
			return true
		}
		return false
	}
	goast.Inspect(u.GoLoop, func(n goast.Node) bool {
		if reason != "" {
			return false
		}
		id, ok := n.(*goast.Ident)
		if !ok || u.info == nil {
			return true
		}
		obj := u.info.ObjectOf(id)
		if obj == nil {
			return true
		}
		if _, tracked := u.names[obj]; !tracked {
			return true
		}
		t := obj.Type()
		if isInteger(t) && !wide(t) {
			reason = fmt.Sprintf("variable %s has %s-bit semantics the mini-language does not model", id.Name, t)
			return false
		}
		if dims, elem, ok := elemStructure(t, rankOf(u, obj)); ok && len(dims) > 0 {
			if isInteger(elem) && !wide(elem) {
				reason = fmt.Sprintf("array %s has %s elements", id.Name, elem)
				return false
			}
		}
		return true
	})
	return reason
}

func rankOf(u *Unit, obj types.Object) int {
	name, ok := u.names[obj]
	if !ok {
		return 0
	}
	if ai, ok := u.Arrays[name]; ok {
		return ai.Rank
	}
	return 0
}

// fillCells enumerates every cell of a concrete shape.
func fillCells(shape []int64, prefix []int64, f func(idx []int64)) {
	if len(shape) == 0 {
		f(prefix)
		return
	}
	for i := int64(0); i < shape[0]; i++ {
		fillCells(shape[1:], append(prefix, i), f)
	}
}

// cellKey renders a 0-based index tuple in the interpreter's element-key
// format, shifted by base.
func cellKey(idx []int64, base int64) string {
	parts := make([]string, len(idx))
	for i, v := range idx {
		parts[i] = strconv.FormatInt(v+base, 10)
	}
	return strings.Join(parts, ",")
}

// keyIdx parses an element key back into its index tuple, shifted by
// delta.
func keyIdx(key string, delta int64) []int64 {
	parts := strings.Split(key, ",")
	idx := make([]int64, len(parts))
	for i, p := range parts {
		v, _ := strconv.ParseInt(p, 10, 64)
		idx[i] = v + delta
	}
	return idx
}

// goEval is a direct evaluator for the lowered Go subset. State is keyed
// by the unit's mini names so the final memories compare directly.
type goEval struct {
	u       *Unit
	scalars map[string]int64
	arrays  map[string]map[string]int64
	lens    map[string]int64
	steps   int64
	max     int64
}

func (g *goEval) tick() error {
	g.steps++
	if g.steps > g.max {
		return fmt.Errorf("go evaluation exceeded %d steps", g.max)
	}
	return nil
}

func (g *goEval) nameOf(id *goast.Ident) (string, error) {
	obj := g.u.info.ObjectOf(id)
	if obj == nil {
		return "", fmt.Errorf("unresolved identifier %s", id.Name)
	}
	name, ok := g.u.names[obj]
	if !ok {
		return "", fmt.Errorf("identifier %s not tracked by the lowering", id.Name)
	}
	return name, nil
}

func (g *goEval) stmt(s goast.Stmt) error {
	if err := g.tick(); err != nil {
		return err
	}
	switch st := s.(type) {
	case *goast.BlockStmt:
		return g.block(st.List)
	case *goast.ForStmt:
		return g.forStmt(st)
	case *goast.RangeStmt:
		return g.rangeStmt(st)
	case *goast.AssignStmt:
		return g.assign(st)
	case *goast.IncDecStmt:
		delta := int64(1)
		if st.Tok == gotoken.DEC {
			delta = -1
		}
		v, err := g.expr(st.X)
		if err != nil {
			return err
		}
		return g.store(st.X, v+delta)
	case *goast.IfStmt:
		cond, err := g.cond(st.Cond)
		if err != nil {
			return err
		}
		if cond {
			return g.block(st.Body.List)
		}
		if st.Else != nil {
			return g.stmt(st.Else)
		}
		return nil
	case *goast.DeclStmt:
		gd := st.Decl.(*goast.GenDecl)
		for _, spec := range gd.Specs {
			vs := spec.(*goast.ValueSpec)
			for i, name := range vs.Names {
				var v int64
				if i < len(vs.Values) {
					var err error
					v, err = g.expr(vs.Values[i])
					if err != nil {
						return err
					}
				}
				mini, err := g.nameOf(name)
				if err != nil {
					return err
				}
				g.scalars[mini] = v
			}
		}
		return nil
	case *goast.EmptyStmt:
		return nil
	}
	return fmt.Errorf("unexpected statement %T in lowered loop", s)
}

func (g *goEval) block(stmts []goast.Stmt) error {
	for _, s := range stmts {
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

// scoped runs body with the loop variable's scalar slot saved and
// restored, matching both Go scoping and the interpreter's restoration of
// induction variables.
func (g *goEval) scoped(mini string, body func() error) error {
	saved, had := g.scalars[mini]
	err := body()
	if had {
		g.scalars[mini] = saved
	} else {
		delete(g.scalars, mini)
	}
	return err
}

func (g *goEval) forStmt(st *goast.ForStmt) error {
	init := st.Init.(*goast.AssignStmt)
	ivIdent := init.Lhs[0].(*goast.Ident)
	mini, err := g.nameOf(ivIdent)
	if err != nil {
		return err
	}
	return g.scoped(mini, func() error {
		v, err := g.expr(init.Rhs[0])
		if err != nil {
			return err
		}
		g.scalars[mini] = v
		for {
			if err := g.tick(); err != nil {
				return err
			}
			cont, err := g.cond(st.Cond)
			if err != nil {
				return err
			}
			if !cont {
				return nil
			}
			if err := g.block(st.Body.List); err != nil {
				return err
			}
			switch p := st.Post.(type) {
			case *goast.IncDecStmt:
				if p.Tok == gotoken.INC {
					g.scalars[mini]++
				} else {
					g.scalars[mini]--
				}
			case *goast.AssignStmt:
				c, err := g.expr(p.Rhs[0])
				if err != nil {
					return err
				}
				if p.Tok == gotoken.ADD_ASSIGN {
					g.scalars[mini] += c
				} else {
					g.scalars[mini] -= c
				}
			}
		}
	})
}

func (g *goEval) rangeStmt(st *goast.RangeStmt) error {
	ivIdent := st.Key.(*goast.Ident)
	ivMini := ""
	if ivIdent.Name != "_" {
		var err error
		ivMini, err = g.nameOf(ivIdent)
		if err != nil {
			return err
		}
	}
	var n int64
	var err error
	var arrMini string
	rt := typeOf(g.u.info, st.X)
	if isInteger(rt) {
		n, err = g.expr(st.X)
		if err != nil {
			return err
		}
	} else {
		id := goast.Unparen(st.X).(*goast.Ident)
		n, err = g.lenOf(id)
		if err != nil {
			return err
		}
		arrMini, err = g.nameOf(id)
		if err != nil {
			return err
		}
	}
	// The element copy of `for i, v := range s`: v is assigned at each
	// iteration start and keeps its last value after the loop, exactly
	// like the lowered body-leading `v := s[i+1]`.
	vMini := ""
	if st.Value != nil {
		if vIdent, ok := st.Value.(*goast.Ident); ok && vIdent.Name != "_" {
			vMini, err = g.nameOf(vIdent)
			if err != nil {
				return err
			}
		}
	}
	run := func() error {
		for i := int64(0); i < n; i++ {
			if err := g.tick(); err != nil {
				return err
			}
			if ivMini != "" {
				g.scalars[ivMini] = i
			}
			if vMini != "" {
				g.scalars[vMini] = g.arrays[arrMini][cellKey([]int64{i}, 0)]
			}
			if err := g.block(st.Body.List); err != nil {
				return err
			}
		}
		return nil
	}
	if ivMini == "" {
		return run()
	}
	return g.scoped(ivMini, run)
}

func (g *goEval) assign(st *goast.AssignStmt) error {
	rhs, err := g.expr(st.Rhs[0])
	if err != nil {
		return err
	}
	switch st.Tok {
	case gotoken.ASSIGN, gotoken.DEFINE:
		return g.store(st.Lhs[0], rhs)
	}
	cur, err := g.expr(st.Lhs[0])
	if err != nil {
		return err
	}
	var v int64
	switch st.Tok {
	case gotoken.ADD_ASSIGN:
		v = cur + rhs
	case gotoken.SUB_ASSIGN:
		v = cur - rhs
	case gotoken.MUL_ASSIGN:
		v = cur * rhs
	case gotoken.QUO_ASSIGN:
		if rhs == 0 {
			return fmt.Errorf("division by zero")
		}
		v = cur / rhs
	case gotoken.REM_ASSIGN:
		if rhs == 0 {
			return fmt.Errorf("division by zero")
		}
		v = cur % rhs
	default:
		return fmt.Errorf("unexpected assignment operator %s", st.Tok)
	}
	return g.store(st.Lhs[0], v)
}

func (g *goEval) store(lhs goast.Expr, v int64) error {
	switch x := goast.Unparen(lhs).(type) {
	case *goast.Ident:
		mini, err := g.nameOf(x)
		if err != nil {
			return err
		}
		g.scalars[mini] = v
		return nil
	case *goast.IndexExpr:
		name, key, err := g.ref(x)
		if err != nil {
			return err
		}
		arr := g.arrays[name]
		if arr == nil {
			arr = map[string]int64{}
			g.arrays[name] = arr
		}
		arr[key] = v
		return nil
	}
	return fmt.Errorf("unexpected assignment target %T", lhs)
}

// ref resolves a (nested) index expression to (mini array name, 0-based
// element key).
func (g *goEval) ref(e *goast.IndexExpr) (string, string, error) {
	var subs []goast.Expr
	base := goast.Expr(e)
	for {
		ix, ok := goast.Unparen(base).(*goast.IndexExpr)
		if !ok {
			break
		}
		subs = append([]goast.Expr{ix.Index}, subs...)
		base = ix.X
	}
	id, ok := goast.Unparen(base).(*goast.Ident)
	if !ok {
		return "", "", fmt.Errorf("unexpected index base %T", base)
	}
	name, err := g.nameOf(id)
	if err != nil {
		return "", "", err
	}
	idx := make([]int64, len(subs))
	for i, sub := range subs {
		v, err := g.expr(sub)
		if err != nil {
			return "", "", err
		}
		idx[i] = v
	}
	return name, cellKey(idx, 0), nil
}

func (g *goEval) expr(e goast.Expr) (int64, error) {
	e = goast.Unparen(e)
	if g.u.info != nil {
		if tv, ok := g.u.info.Types[e]; ok && tv.Value != nil {
			if v, exact := constIntValue(tv); exact {
				return v, nil
			}
		}
	}
	switch x := e.(type) {
	case *goast.Ident:
		mini, err := g.nameOf(x)
		if err != nil {
			return 0, err
		}
		return g.scalars[mini], nil
	case *goast.BinaryExpr:
		l, err := g.expr(x.X)
		if err != nil {
			return 0, err
		}
		r, err := g.expr(x.Y)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case gotoken.ADD:
			return l + r, nil
		case gotoken.SUB:
			return l - r, nil
		case gotoken.MUL:
			return l * r, nil
		case gotoken.QUO:
			if r == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			return l / r, nil
		case gotoken.REM:
			if r == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			return l % r, nil
		}
		return 0, fmt.Errorf("unexpected operator %s", x.Op)
	case *goast.UnaryExpr:
		v, err := g.expr(x.X)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case gotoken.SUB:
			return -v, nil
		case gotoken.ADD:
			return v, nil
		}
		return 0, fmt.Errorf("unexpected unary operator %s", x.Op)
	case *goast.IndexExpr:
		name, key, err := g.ref(x)
		if err != nil {
			return 0, err
		}
		return g.arrays[name][key], nil
	case *goast.CallExpr:
		id, ok := goast.Unparen(x.Args[0]).(*goast.Ident)
		if !ok {
			return 0, fmt.Errorf("unexpected len operand")
		}
		return g.lenOf(id)
	}
	return 0, fmt.Errorf("unexpected expression %T", e)
}

// lenOf yields len(id): the constant for arrays, the synthesized length
// for slices.
func (g *goEval) lenOf(id *goast.Ident) (int64, error) {
	obj := g.u.info.ObjectOf(id)
	if obj == nil {
		return 0, fmt.Errorf("unresolved len operand %s", id.Name)
	}
	t := obj.Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if arr, ok := t.Underlying().(*types.Array); ok {
		return arr.Len(), nil
	}
	name, err := g.nameOf(id)
	if err != nil {
		return 0, err
	}
	n, ok := g.lens[name]
	if !ok {
		return 0, fmt.Errorf("no synthesized length for %s", id.Name)
	}
	return n, nil
}

func (g *goEval) cond(e goast.Expr) (bool, error) {
	switch x := goast.Unparen(e).(type) {
	case *goast.BinaryExpr:
		switch x.Op {
		case gotoken.LAND:
			l, err := g.cond(x.X)
			if err != nil || !l {
				return false, err
			}
			return g.cond(x.Y)
		case gotoken.LOR:
			l, err := g.cond(x.X)
			if err != nil || l {
				return l, err
			}
			return g.cond(x.Y)
		}
		l, err := g.expr(x.X)
		if err != nil {
			return false, err
		}
		r, err := g.expr(x.Y)
		if err != nil {
			return false, err
		}
		switch x.Op {
		case gotoken.EQL:
			return l == r, nil
		case gotoken.NEQ:
			return l != r, nil
		case gotoken.LSS:
			return l < r, nil
		case gotoken.LEQ:
			return l <= r, nil
		case gotoken.GTR:
			return l > r, nil
		case gotoken.GEQ:
			return l >= r, nil
		}
		return false, fmt.Errorf("unexpected comparison %s", x.Op)
	case *goast.UnaryExpr:
		if x.Op == gotoken.NOT {
			v, err := g.cond(x.X)
			return !v, err
		}
	}
	return false, fmt.Errorf("unexpected condition %T", e)
}

// constIntValue extracts an exact int64 from a constant TypeAndValue.
func constIntValue(tv types.TypeAndValue) (int64, bool) {
	if tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}
