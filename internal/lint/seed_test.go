package lint

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/sema"
)

// eagerSeededState is the oracle of the lazy seed: the bridge's former
// initial state, which wrote every cell of every array's box up front
// under an fmt-rendered element key. It returns the seeded array names.
func eagerSeededState(prog *ast.Program, env map[string]int64) (*interp.State, []string) {
	st := interp.NewState()
	for k, v := range env {
		st.Scalars[k] = v
	}
	ndims := map[string]int{}
	declared := map[string][]int64{}
	ast.Inspect(prog.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ArrayRef:
			if len(x.Subs) > ndims[x.Name] {
				ndims[x.Name] = len(x.Subs)
			}
		case *ast.Dim:
			var sizes []int64
			for _, sz := range x.Sizes {
				if lit, ok := sz.(*ast.IntLit); ok {
					sizes = append(sizes, lit.Value)
				} else {
					sizes = append(sizes, 0)
				}
			}
			declared[x.Name] = sizes
			if len(x.Sizes) > ndims[x.Name] {
				ndims[x.Name] = len(x.Sizes)
			}
		}
		return true
	})
	var names []string
	for name, nd := range ndims {
		if nd > 0 {
			lo, hi := seedRanges(nd, declared[name])
			eagerSeedArray(st, name, nil, lo, hi)
			names = append(names, name)
		}
	}
	return st, names
}

func eagerSeedArray(st *interp.State, name string, idx, lo, hi []int64) {
	d := len(idx)
	if d == len(lo) {
		parts := make([]string, len(idx))
		for i, v := range idx {
			parts[i] = fmt.Sprintf("%d", v)
		}
		h := fnv.New32a()
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write([]byte(strings.Join(parts, ",")))
		st.SetArrayN(name, idx, int64(h.Sum32()%997)+1)
		return
	}
	for v := lo[d]; v <= hi[d]; v++ {
		eagerSeedArray(st, name, append(idx, v), lo, hi)
	}
}

// TestLazySeedMatchesEagerSeeding checks the lazy seed against the eager
// oracle on every example: every boxed cell reads the same value, the
// natural runs end in the same final state, and shuffling any loop gives
// the same DiffArrays text from either initial state.
func TestLazySeedMatchesEagerSeeding(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.loop"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no examples: %v", err)
	}
	var diverged int
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := sema.Normalize(parser.MustParse(string(src)))
		if err != nil {
			t.Fatal(err)
		}
		b := newBridge(prog)
		env := map[string]int64{}
		for k, name := range b.free {
			env[name] = int64(5 + 2*k)
		}
		eager, names := eagerSeededState(prog, env)
		lazy := b.initState(env)
		cells := 0
		for _, name := range names {
			eager.EachCell(name, func(idx []int64, v int64) {
				cells++
				if got := lazy.GetArrayN(name, idx); got != v {
					t.Fatalf("%s: %s%v seeds %d lazily, %d eagerly", path, name, idx, got, v)
				}
			})
		}
		if cells == 0 {
			t.Fatalf("%s: the oracle seeded no cells", path)
		}
		run := func(init *interp.State, shuffle *ast.DoLoop) (*interp.State, string) {
			rng := rand.New(rand.NewSource(permutationSeed))
			final, _, err := interp.Run(prog, init, &interp.Options{
				MaxSteps: dynamicMaxSteps,
				LoopOrder: func(l *ast.DoLoop, iters []int64) []int64 {
					if l != shuffle {
						return nil
					}
					rng.Shuffle(len(iters), func(i, j int) { iters[i], iters[j] = iters[j], iters[i] })
					return iters
				},
			})
			return final, fmt.Sprint(err)
		}
		natE, errE := run(eager, nil)
		natL, errL := run(lazy, nil)
		if errE != errL {
			t.Fatalf("%s: natural runs ended %q eagerly, %q lazily", path, errE, errL)
		}
		if d := interp.DiffArrays(natE, natL); d != "" {
			t.Fatalf("%s: natural final states differ: %s", path, d)
		}
		ast.Inspect(prog.Body, func(n ast.Node) bool {
			loop, ok := n.(*ast.DoLoop)
			if !ok {
				return true
			}
			shufE, _ := run(eager, loop)
			shufL, _ := run(lazy, loop)
			de, dl := interp.DiffArrays(natE, shufE), interp.DiffArrays(natL, shufL)
			if de != dl {
				t.Errorf("%s: shuffling the loop at %s diverges eagerly as %q, lazily as %q", path, loop.Pos(), de, dl)
			}
			if de != "" {
				diverged++
			}
			return true
		})
	}
	if diverged == 0 {
		t.Fatal("no shuffled run diverged; the DiffArrays comparison is vacuous")
	}
}
