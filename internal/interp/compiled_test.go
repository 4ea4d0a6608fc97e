package interp

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/synth"
)

// corpusMaxSteps bounds every differential run, as the race analyzer's
// dynamic checks bound theirs.
const corpusMaxSteps = 100_000

// hookMode picks the instrumentation a differential run installs.
type hookMode int

const (
	noHooks      hookMode = iota
	traceHooks            // TraceRef, LoopIter and LoopDone
	shuffleHooks          // the trace hooks plus a LoopOrder that permutes
)

// runOutcome is everything a run shows: the final state, the statistics,
// the error and the hook calls in order.
type runOutcome struct {
	st    *State
	stats *Stats
	err   string
	hooks []string
}

// recordedRun runs prog through run with the hooks mode asks for, logging
// every hook call with its arguments. The LoopOrder hook reverses the
// schedule of every loop whose label is odd and shuffles the others from a
// fixed seed, so both implementations see the same permutations when they
// make the same calls.
func recordedRun(run func(*ast.Program, *State, *Options) (*State, *Stats, error), prog *ast.Program, init *State, maxSteps int64, mode hookMode) runOutcome {
	var out runOutcome
	opts := &Options{MaxSteps: maxSteps}
	if mode >= traceHooks {
		opts.TraceRef = func(ref *ast.ArrayRef, isStore bool, idx []int64) {
			out.hooks = append(out.hooks, fmt.Sprintf("ref %p %s store=%v %v", ref, ref.Name, isStore, idx))
		}
		opts.LoopIter = func(l *ast.DoLoop, i int64) {
			out.hooks = append(out.hooks, fmt.Sprintf("iter %p %s %d", l, l.Var, i))
		}
		opts.LoopDone = func(l *ast.DoLoop) {
			out.hooks = append(out.hooks, fmt.Sprintf("done %p %s", l, l.Var))
		}
	}
	if mode == shuffleHooks {
		rng := rand.New(rand.NewSource(7))
		opts.LoopOrder = func(l *ast.DoLoop, iters []int64) []int64 {
			out.hooks = append(out.hooks, fmt.Sprintf("order %p %s %v", l, l.Var, iters))
			order := slices.Clone(iters)
			if l.Label%2 == 1 {
				slices.Reverse(order)
			} else {
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			return order
		}
	}
	st, stats, err := run(prog, init, opts)
	out.st, out.stats = st, stats
	out.err = "<nil>"
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// compareRuns fails unless the compiled form and the reference machine
// agree on prog from init: error text with its position, final scalars,
// array tables (layout included, so EachCell visits cells in the same
// order), statistics, and every hook call.
func compareRuns(t *testing.T, label string, prog *ast.Program, init *State, maxSteps int64, mode hookMode) {
	t.Helper()
	want := recordedRun(referenceRun, prog, init, maxSteps, mode)
	got := recordedRun(Run, prog, init, maxSteps, mode)
	if got.err != want.err {
		t.Fatalf("%s: error %q, reference %q", label, got.err, want.err)
	}
	if !reflect.DeepEqual(got.st.Scalars, want.st.Scalars) {
		t.Fatalf("%s: scalars %v, reference %v", label, got.st.Scalars, want.st.Scalars)
	}
	if d := DiffArrays(got.st, want.st); d != "" {
		t.Fatalf("%s: arrays differ from the reference: %s", label, d)
	}
	if d := DiffArrays(want.st, got.st); d != "" {
		t.Fatalf("%s: reference arrays differ: %s", label, d)
	}
	if !reflect.DeepEqual(got.st.arrays, want.st.arrays) {
		t.Fatalf("%s: array tables laid out differently from the reference", label)
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Fatalf("%s: stats %+v, reference %+v", label, *got.stats, *want.stats)
	}
	if !slices.Equal(got.hooks, want.hooks) {
		for i := range min(len(got.hooks), len(want.hooks)) {
			if got.hooks[i] != want.hooks[i] {
				t.Fatalf("%s: hook call %d is %q, reference %q", label, i, got.hooks[i], want.hooks[i])
			}
		}
		t.Fatalf("%s: %d hook calls, reference %d", label, len(got.hooks), len(want.hooks))
	}
}

// testSeed boxes every array prog names over a small box around the
// origin, negative indices included, at the largest rank it is used with.
func testSeed(prog *ast.Program) *Seed {
	ranks := map[string]int{}
	ast.Inspect(prog.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ArrayRef); ok && len(r.Subs) > ranks[r.Name] {
			ranks[r.Name] = len(r.Subs)
		}
		return true
	})
	seed := NewSeed()
	for name, rank := range ranks {
		lo, hi := make([]int64, rank), make([]int64, rank)
		for d := range lo {
			lo[d], hi[d] = -4, 12
		}
		seed.Box(name, lo, hi)
	}
	return seed
}

// boundScalars binds, in sorted order, to 5, 7, 9, ... — the values the
// race analyzer's bridge first gives free scalars — either the names prog
// uses but never assigns (its inputs, as the bridge binds them) or, with
// all, every name it uses, induction variables included (bound before
// their loops).
func boundScalars(prog *ast.Program, all bool) map[string]int64 {
	assigned := map[string]bool{}
	var names []string
	ast.Inspect(prog.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Assign:
			if id, ok := x.LHS.(*ast.Ident); ok {
				assigned[id.Name] = true
			}
		case *ast.DoLoop:
			assigned[x.Var] = true
		case *ast.Ident:
			if !slices.Contains(names, x.Name) {
				names = append(names, x.Name)
			}
		}
		return true
	})
	if !all {
		names = slices.DeleteFunc(names, func(name string) bool { return assigned[name] })
	}
	slices.Sort(names)
	env := make(map[string]int64, len(names))
	for k, name := range names {
		env[name] = int64(5 + 2*k)
	}
	return env
}

// compareProgram runs the differential over prog raw and normalized, from
// seeded and unseeded states, with no scalar bound, its inputs bound, or
// every name it reads bound, under every hook mode.
func compareProgram(t *testing.T, name string, prog *ast.Program, modes []hookMode) {
	t.Helper()
	forms := []struct {
		label string
		prog  *ast.Program
	}{{"raw", prog}}
	if norm, err := sema.Normalize(prog); err == nil {
		forms = append(forms, struct {
			label string
			prog  *ast.Program
		}{"normalized", norm})
	}
	for _, f := range forms {
		envs := []map[string]int64{nil, boundScalars(f.prog, false), boundScalars(f.prog, true)}
		for _, seeded := range []bool{false, true} {
			for bound, env := range envs {
				init := NewState()
				if seeded {
					init = NewSeededState(testSeed(f.prog))
				}
				for k, v := range env {
					init.Scalars[k] = v
				}
				for _, mode := range modes {
					label := fmt.Sprintf("%s %s seeded=%v bound=%d hooks=%d", name, f.label, seeded, bound, mode)
					compareRuns(t, label, f.prog, init, corpusMaxSteps, mode)
				}
			}
		}
	}
}

var allHookModes = []hookMode{noHooks, traceHooks, shuffleHooks}

// differentialSources returns the corpus: every example program and a
// seeded sweep of synthetic programs, single loops and multi-loop programs
// with nests, constant and symbolic bounds.
func differentialSources(tb testing.TB) map[string]*ast.Program {
	tb.Helper()
	out := map[string]*ast.Program{}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.loop"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no example programs: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		prog, err := parser.Parse(string(b))
		if err != nil {
			tb.Fatalf("%s: %v", p, err)
		}
		out[filepath.Base(p)] = prog
	}
	for seed := int64(1); seed <= 8; seed++ {
		ub := int64(0)
		if seed%2 == 0 {
			ub = 12
		}
		out[fmt.Sprintf("multi-%d", seed)] = synth.MultiLoopProgram(synth.MultiParams{Seed: seed, Loops: 4, StmtsPer: 4, NestEvery: 2, UB: ub})
		out[fmt.Sprintf("loop-%d", seed)] = synth.Loop(synth.Params{Seed: seed, Stmts: 6, Arrays: 3, MaxDist: 3, CondProb: 0.3, UB: ub})
	}
	return out
}

// TestCompiledMatchesReference holds the compiled form to the tree-walking
// machine it replaced on the example and synthetic corpus.
func TestCompiledMatchesReference(t *testing.T) {
	progs := differentialSources(t)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		compareProgram(t, name, progs[name], allHookModes)
	}
}

// TestCompiledMatchesReferenceHandCases covers the edges the corpus may
// miss, each with the error text both implementations must give.
func TestCompiledMatchesReferenceHandCases(t *testing.T) {
	cases := []struct {
		name, src string
		maxSteps  int64
		scalars   map[string]int64
		wantErr   string
	}{
		{name: "step limit met exactly", src: "a := 1\nb := 2\nc := 3", maxSteps: 3, wantErr: "<nil>"},
		{name: "step limit in an assignment", src: "a := 1\nb := 2\nc := 3", maxSteps: 2,
			wantErr: "3:1: runtime: step limit exceeded"},
		{name: "step limit in a loop header", src: "x := 0\ndo i = 1, 3\nenddo", maxSteps: 3,
			wantErr: "2:1: runtime: step limit exceeded"},
		{name: "loop within the step limit", src: "x := 0\ndo i = 1, 3\nenddo", maxSteps: 4, wantErr: "<nil>"},
		{name: "division by zero", src: "a := 4\nb := a + 1 / z", wantErr: "2:10: runtime: division by zero"},
		{name: "modulo by zero", src: "do i = 1, 3\n  A[i % (i - 2)] := 1\nenddo", wantErr: "2:5: runtime: modulo by zero"},
		{name: "zero step", src: "do i = 1, 3, z\n  A[i] := 1\nenddo", wantErr: "1:1: runtime: zero loop step"},
		{name: "negative step", src: "do i = 9, 1, -2\n  A[i] := A[i + 2] + i\nenddo", wantErr: "<nil>"},
		{name: "nested subscript", src: "do i = 1, 6\n  B[i] := 7 - i\nenddo\ndo i = 1, 6\n  A[B[i]] := A[B[i + 1]] + B[A[i]]\nenddo",
			wantErr: "<nil>"},
		{name: "short-circuit and", src: "z := 0\nif z != 0 and 10 / z > 1 then\n  A[1] := 1\nendif\nif 1 and A[2] + 3 then\n  A[3] := 1\nendif",
			wantErr: "<nil>"},
		{name: "short-circuit or", src: "z := 0\nif z == 0 or 10 / z > 1 then\n  A[1] := 1\nendif\nif 0 or A[2] then\n  A[3] := 1\nendif\nb := 0 or 5",
			wantErr: "<nil>"},
		{name: "short-circuit error on the right", src: "z := 0\nb := 1 and 10 / z", wantErr: "2:12: runtime: division by zero"},
		{name: "induction variable bound before its loop", src: "i := 99\ndo i = 1, 3\n  A[i] := i\nenddo\nx := i",
			wantErr: "<nil>"},
		{name: "induction variable unbound before its loop", src: "do i = 1, 3\n  A[i] := i\nenddo\nx := i + 1",
			wantErr: "<nil>"},
		{name: "induction variable bound in the initial state", src: "do i = 1, 3\n  A[i] := i\nenddo",
			scalars: map[string]int64{"i": -4}, wantErr: "<nil>"},
		{name: "two ranks under one name", src: "A[1] := 5\nA[1, 2] := 6\nx := A[1] + A[1, 2] + A[2, 1] + A[2]",
			wantErr: "<nil>"},
		{name: "error inside a loop keeps the induction variable", src: "do i = 1, 5\n  A[i] := 10 / (3 - i)\nenddo",
			wantErr: "2:11: runtime: division by zero"},
		{name: "unary operators", src: "a := -3\nb := not a\nc := not (a + 3)\nd := -(-a)", wantErr: "<nil>"},
		{name: "comparisons", src: "a := (1 < 2) + (2 <= 2) + (3 > 4) + (4 >= 5) + (1 == 1) + (1 != 1)", wantErr: "<nil>"},
	}
	for _, c := range cases {
		prog, err := parser.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		maxSteps := c.maxSteps
		if maxSteps == 0 {
			maxSteps = corpusMaxSteps
		}
		for _, seeded := range []bool{false, true} {
			init := NewState()
			if seeded {
				init = NewSeededState(testSeed(prog))
			}
			for k, v := range c.scalars {
				init.Scalars[k] = v
			}
			for _, mode := range allHookModes {
				label := fmt.Sprintf("%s seeded=%v hooks=%d", c.name, seeded, mode)
				compareRuns(t, label, prog, init, maxSteps, mode)
				if got := recordedRun(Run, prog, init, maxSteps, mode).err; got != c.wantErr {
					t.Errorf("%s: error %q, want %q", label, got, c.wantErr)
				}
			}
		}
	}
}

// TestLoopOrderScheduleLimit checks the schedule a LoopOrder hook receives
// is bounded by the step budget in both implementations.
func TestLoopOrderScheduleLimit(t *testing.T) {
	prog := parser.MustParse("do i = 1, 100\n  A[i] := i\nenddo")
	for _, maxSteps := range []int64{50, 99, 100, 101} {
		compareRuns(t, fmt.Sprintf("max %d", maxSteps), prog, nil, maxSteps, shuffleHooks)
	}
	out := recordedRun(Run, prog, nil, 99, shuffleHooks)
	if out.err != "1:1: runtime: step limit exceeded" || len(out.hooks) != 0 {
		t.Fatalf("a 100-iteration schedule under a 99-step budget: error %q after %d hook calls", out.err, len(out.hooks))
	}
}

// TestCompiledRunsShareOneProgram runs one compiled program from several
// goroutines (go test -race checks it stays read-only) and from a state
// its earlier runs must not have touched.
func TestCompiledRunsShareOneProgram(t *testing.T) {
	prog := parser.MustParse("do i = 1, 40\n  A[i + 1] := A[i] + B[i, 2]\n  s := s + A[i]\nenddo")
	code := Compile(prog)
	init := NewSeededState(testSeed(prog))
	want, _, err := referenceRun(prog, init, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan string)
	for g := 0; g < 4; g++ {
		go func() {
			st, _, err := code.Run(init, nil)
			switch {
			case err != nil:
				done <- err.Error()
			case st.Scalars["s"] != want.Scalars["s"]:
				done <- "scalars differ"
			default:
				done <- DiffArrays(st, want)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		if d := <-done; d != "" {
			t.Errorf("concurrent run: %s", d)
		}
	}
	if len(init.Scalars) != 0 || len(init.arrays) != 0 {
		t.Errorf("runs wrote to their initial state: %v", init.Scalars)
	}
}

// FuzzInterp compares the compiled form with the reference machine on
// parsed input, raw and normalized, seeded and not, with bound scalars and
// every hook mode. Run with `go test -run '^$' -fuzz '^FuzzInterp$'
// ./internal/interp`; the seeds run as a normal test.
func FuzzInterp(f *testing.F) {
	b, err := os.ReadFile(filepath.Join("..", "parser", "testdata", "seeds.txt"))
	if err != nil {
		f.Fatalf("reading parser seeds: %v", err)
	}
	for n, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		s, err := strconv.Unquote(line)
		if err != nil {
			f.Fatalf("parser seeds:%d: %v", n+1, err)
		}
		f.Add(s)
	}
	for _, prog := range differentialSources(f) {
		f.Add(ast.ProgramString(prog))
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		prog, err := parser.Parse(src)
		if err != nil {
			return
		}
		compareProgram(t, "fuzz", prog, allHookModes)
	})
}

// diffStates returns two states differing at A[2], A[10], B[1, 3] and
// C[1] through C[8]; each state writes 1 where the other reads 0.
func diffStates() (a, b *State) {
	a, b = NewState(), NewState()
	a.SetArray("A", 2, 1)
	b.SetArray("A", 10, 1)
	a.SetArrayN("B", []int64{1, 3}, 1)
	for i := int64(1); i <= 8; i++ {
		b.SetArray("C", i, 1)
	}
	a.SetArray("A", 5, 4) // equal cells are not reported
	b.SetArray("A", 5, 4)
	return a, b
}

// TestDiffArraysMessageOrder pins the difference text: arrays in name
// order, cells in the string order of their keys (A[10] before A[2]), and
// at most eight differences, then "; ...".
func TestDiffArraysMessageOrder(t *testing.T) {
	a, b := diffStates()
	want := "A[10]: 0 vs 1; A[2]: 1 vs 0; B[1,3]: 1 vs 0; C[1]: 0 vs 1; C[2]: 0 vs 1; C[3]: 0 vs 1; C[4]: 0 vs 1; C[5]: 0 vs 1; ..."
	if got := DiffArrays(a, b); got != want {
		t.Errorf("DiffArrays(a, b) =\n%q\nwant\n%q", got, want)
	}
	want = "A[10]: 1 vs 0; A[2]: 0 vs 1; B[1,3]: 0 vs 1; C[1]: 1 vs 0; C[2]: 1 vs 0; C[3]: 1 vs 0; C[4]: 1 vs 0; C[5]: 1 vs 0; ..."
	if got := DiffArrays(b, a); got != want {
		t.Errorf("DiffArrays(b, a) =\n%q\nwant\n%q", got, want)
	}
	// Below the cap the message ends without the ellipsis.
	c, d := NewState(), NewState()
	c.SetArray("B", 10, 3)
	d.SetArray("A", 2, 1)
	if got, want := DiffArrays(c, d), "A[2]: 0 vs 1; B[10]: 3 vs 0"; got != want {
		t.Errorf("DiffArrays = %q, want %q", got, want)
	}
	if got := DiffArrays(a, a.Clone()); got != "" {
		t.Errorf("a state differs from its clone: %q", got)
	}
}

// randomState writes a few random cells of arrays A (ranks 1 and 2) and B
// over a small index range, under seed (nil: unseeded).
func randomState(rng *rand.Rand, seed *Seed) *State {
	st := NewSeededState(seed)
	for n := rng.Intn(12); n > 0; n-- {
		v := int64(rng.Intn(4))
		if rng.Intn(3) == 0 && seed != nil {
			// A seeded value written back explicitly reads the same.
			idx := []int64{int64(rng.Intn(8) - 2)}
			v = seed.Value("A", idx)
			st.SetArrayN("A", idx, v)
			continue
		}
		switch rng.Intn(3) {
		case 0:
			st.SetArrayN("A", []int64{int64(rng.Intn(8) - 2)}, v)
		case 1:
			st.SetArrayN("A", []int64{int64(rng.Intn(3)), int64(rng.Intn(3))}, v)
		default:
			st.SetArrayN("B", []int64{int64(rng.Intn(6))}, v)
		}
	}
	return st
}

// TestDiffArraysMatchesReference holds the integer-table comparison to the
// string-keyed one it replaced, message included, on random pairs of
// states under one shared seed, two different (overlapping) seeds, and
// none.
func TestDiffArraysMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s1, s2 := NewSeed(), NewSeed()
	s1.Box("A", []int64{-1}, []int64{4})
	s2.Box("A", []int64{0}, []int64{4})
	s2.Box("B", []int64{0, 0}, []int64{1, 1})
	seeds := []*Seed{nil, s1, s2}
	var equal, differ, capped int
	for trial := 0; trial < 20_000; trial++ {
		a := randomState(rng, seeds[rng.Intn(len(seeds))])
		b := a.Clone()
		if rng.Intn(2) == 0 {
			b = randomState(rng, seeds[rng.Intn(len(seeds))])
		} else if rng.Intn(2) == 0 {
			b.SetArray("A", int64(rng.Intn(8)-2), int64(rng.Intn(2)))
		}
		want := referenceDiffArrays(a, b)
		if got := DiffArrays(a, b); got != want {
			t.Fatalf("trial %d: DiffArrays = %q, reference %q", trial, got, want)
		}
		switch {
		case want == "":
			equal++
		case strings.HasSuffix(want, "; ..."):
			capped++
		default:
			differ++
		}
	}
	if equal < 1000 || differ < 1000 || capped < 100 {
		t.Fatalf("%d equal, %d differing and %d capped pairs; the sweep needs all three", equal, differ, capped)
	}
}
