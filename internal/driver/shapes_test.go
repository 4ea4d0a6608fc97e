package driver

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/parser"
	"repro/internal/problems"
	"repro/internal/sema"
	"repro/internal/synth"
)

// shape fixes everything about a generated program but the draws its seed
// makes (arrays, offsets, scalars, guards, loop order). The shapes below
// are those of the end-to-end benchmark's workloads (perfbench/_go), so
// tests measure what those workloads hold; the benchmark keeps its own
// generator so that no change here can change a workload.
type shape struct {
	constLoops int // flat loops with the constant trip count constTrip
	constTrip  int
	symLoops   int // flat loops bounded by the symbolic N
	nests      int // tight two-level nests bounded by the symbolic M and N
	stmts      int // assignments per innermost loop body
	// arrays is how many arrays each loop draws from; 0 gives every
	// statement its own stored array (classes grow with stmts).
	arrays  int
	maxDist int // subscript offsets lie in [0, maxDist]
	condPct int // percent of statements wrapped in a guard
}

// The five programs of one batch-cold bundle (two growing-class wide
// loops, one bounded-class long loop, two multi-loop programs with tight
// nests), the analyze-restart program and the vet-serve program.
var (
	batchColdShapes = []shape{
		{symLoops: 1, stmts: 512, maxDist: 3},
		{symLoops: 1, stmts: 768, maxDist: 3},
		{symLoops: 1, stmts: 1024, arrays: 4, maxDist: 5, condPct: 20},
		{symLoops: 12, nests: 4, stmts: 48, arrays: 4, maxDist: 4, condPct: 10},
		{symLoops: 12, nests: 4, stmts: 48, arrays: 4, maxDist: 4, condPct: 10},
	}
	restartShape  = shape{symLoops: 12, nests: 4, stmts: 48, arrays: 4, maxDist: 4, condPct: 10}
	vetServeShape = shape{constLoops: 4, constTrip: 16, symLoops: 2, nests: 2, stmts: 8, arrays: 3, maxDist: 3, condPct: 10}
)

// source returns the program of shape s drawn from seed. Loop l stores and
// loads arrays named A<l>_<k>; stores reach ahead (i+d), loads behind
// (i-d), and nest bodies add a j subscript.
func (s shape) source(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var kinds []byte
	kinds = append(kinds, strings.Repeat("c", s.constLoops)...)
	kinds = append(kinds, strings.Repeat("s", s.symLoops)...)
	kinds = append(kinds, strings.Repeat("n", s.nests)...)
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	var b strings.Builder
	b.WriteString("//lint:ignore race reviewed by hand\n")
	for l, kind := range kinds {
		prefix := fmt.Sprintf("A%d_", l)
		switch kind {
		case 'c':
			fmt.Fprintf(&b, "do i = 1, %d\n", s.constTrip)
			s.body(&b, rng, prefix, "  ", false)
			b.WriteString("enddo\n")
		case 's':
			b.WriteString("do i = 1, N\n")
			s.body(&b, rng, prefix, "  ", false)
			b.WriteString("enddo\n")
		default:
			b.WriteString("do j = 1, M\n  do i = 1, N\n")
			s.body(&b, rng, prefix, "    ", true)
			b.WriteString("  enddo\nenddo\n")
		}
	}
	return b.String()
}

// body draws the statements of one innermost loop body.
func (s shape) body(b *strings.Builder, rng *rand.Rand, prefix, indent string, twoDim bool) {
	offset := func(iv, sign string, d int) string {
		if d == 0 {
			return iv
		}
		return fmt.Sprintf("%s%s%d", iv, sign, d)
	}
	ref := func(array int, sign string) string {
		sub := offset("i", sign, rng.Intn(s.maxDist+1))
		if twoDim {
			sub += ", " + offset("j", sign, rng.Intn(2))
		}
		return fmt.Sprintf("%s%d[%s]", prefix, array, sub)
	}
	for k := 0; k < s.stmts; k++ {
		store := k
		if s.arrays > 0 {
			store = rng.Intn(s.arrays)
		}
		stmt := ref(store, "+") + " := "
		for n := 0; n < 1+rng.Intn(2); n++ {
			load := rng.Intn(store + 1)
			if s.arrays > 0 {
				load = rng.Intn(s.arrays)
			}
			stmt += ref(load, "-") + " + "
		}
		stmt += fmt.Sprintf("x%d", rng.Intn(4))
		if rng.Intn(100) < s.condPct {
			fmt.Fprintf(b, "%sif c%d > 0 then\n%s  %s\n%sendif\n", indent, rng.Intn(4), indent, stmt, indent)
		} else {
			fmt.Fprintf(b, "%s%s\n", indent, stmt)
		}
	}
}

// program parses and normalizes the program of shape s drawn from seed.
func (s shape) program(tb testing.TB, seed int64) *ast.Program {
	tb.Helper()
	prog, err := sema.Normalize(parser.MustParse(s.source(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// denseRowBytes is what res's fixed point held as dense word-packed rows
// before change points: IN and OUT, plus the initialization pass's two
// snapshots for a must-problem, n rows of ⌈m/lanes⌉ words each, with
// lanes as wide as the stored form's values (its first byte).
func denseRowBytes(res *dataflow.Result) int {
	sets := 4
	if res.Spec.May {
		sets = 2
	}
	perWord := 64 / int(res.Rows()[0])
	words := (len(res.Classes) + perWord - 1) / perWord
	return sets * len(res.Graph.Nodes) * words * 8
}

// TestCompactRowBytes reports the bytes each memoized loop's fixed points
// hold as change points against the dense rows they replace, over the
// ScalingLinear benchmark's loops and the end-to-end workloads' program
// shapes, each analyzed under its workload's specs (§3.6 re-analyses
// included, as the memo holds them). It holds the ratios to their bars:
// ≥ 20× on growing-classes loops of 512 statements and more and on the
// batch-cold bundle's three wide-loop programs, ≥ 5× on its two
// multi-loop programs and on the analyze-restart program.
func TestCompactRowBytes(t *testing.T) {
	type workload struct {
		name  string
		prog  *ast.Program
		specs []*dataflow.Spec
		bar   float64
	}
	var loads []workload
	for _, n := range []int{32, 128, 512, 2048} {
		loads = append(loads, workload{fmt.Sprintf("ScalingLinear/bounded-classes/stmts=%d", n),
			synth.Loop(synth.Params{Seed: 1, Stmts: n, Arrays: 4, MaxDist: 5, CondProb: 0.2}), nil, 0})
	}
	for _, n := range []int{32, 128, 512, 2048} {
		bar := 0.0
		if n >= 512 {
			bar = 20
		}
		loads = append(loads, workload{fmt.Sprintf("ScalingLinear/growing-classes/stmts=%d", n), synth.WideLoop(n, 0), nil, bar})
	}
	for i, sh := range batchColdShapes {
		bar := 20.0
		if i >= 3 {
			bar = 5
		}
		loads = append(loads, workload{fmt.Sprintf("batch-cold/shape%d", i), sh.program(t, int64(100+i)), nil, bar})
	}
	loads = append(loads,
		workload{"analyze-restart", restartShape.program(t, 200), nil, 5},
		workload{"vet-serve", vetServeShape.program(t, 300), problems.StandardSpecs(), 0})

	defer ResetCache()
	for _, w := range loads {
		ResetCache()
		if _, err := Analyze(w.prog, &Options{Specs: w.specs, Parallelism: 1}); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		dense, compact := 0, 0
		for _, e := range globalCache.entries {
			for _, res := range e.sv.parts.results {
				dense += denseRowBytes(res)
				compact += len(res.Rows())
			}
		}
		n := len(globalCache.entries)
		ratio := float64(dense) / float64(compact)
		t.Logf("%-40s %3d loops  dense %9d B/loop  change points %6d B/loop  %6.1f×", w.name, n, dense/n, compact/n, ratio)
		if ratio < w.bar {
			t.Errorf("%s: change points hold %.1f× fewer bytes than dense rows, want ≥ %.0f×", w.name, ratio, w.bar)
		}
	}
}
