// Dynamic certification bridge: the race analyzer's static verdicts are
// validated on the reference interpreter. Racy witnesses replay concretely
// (the two claimed iterations must touch the same element), and
// provably-parallel loops run once in natural order and once under a
// shuffled iteration schedule with the final array states compared.
//
// Executed references are matched to witness references by rendered source
// text, not pointer identity: the driver's content-addressed memo cache
// may hand a loop the graph of a structurally identical twin, so the ref
// Exprs in a LoopAnalysis can alias a different loop's AST. The rendered
// text of a normalized reference is identical across such twins.
package lint

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/interp"
)

// permutationSeed fixes the shuffled schedule of the parallel permutation
// check; a constant keeps vet output byte-identical across runs.
const permutationSeed = 0x5eed

// dynamicMaxSteps bounds the dynamic certification checks so a
// pathological program cannot hang vet.
const dynamicMaxSteps = 4_000_000

// ReplayWitness executes the (checked, normalized) program and confirms
// that the witness's two references touch the same array element at the
// claimed iterations of loop. Free scalars — including a symbolic loop
// bound — are bound to deterministic values that drive the loop to at
// least IterLate iterations. A nil return means the race was observed.
func ReplayWitness(prog *ast.Program, loop *ast.DoLoop, w *Witness) error {
	env, err := realizeTrip(prog, loop, w.IterLate)
	if err != nil {
		return err
	}
	var expected string
	if w.HasCell {
		expected = cellKey(w.Cell)
	}
	var (
		active    bool
		cur       int64
		fromCells map[string]bool
		sawEarly  bool
		sawLate   bool
		confirmed bool
	)
	opts := &interp.Options{
		MaxSteps: dynamicMaxSteps,
		LoopIter: func(l *ast.DoLoop, i int64) {
			if l != loop {
				return
			}
			if i == 1 && !confirmed {
				// Normalized loops start at 1, so this is a new dynamic
				// instance; collisions must not span instances.
				fromCells = map[string]bool{}
			}
			active, cur = true, i
		},
		LoopDone: func(l *ast.DoLoop) {
			if l == loop {
				active = false
			}
		},
		TraceRef: func(ref *ast.ArrayRef, isStore bool, idx []int64) {
			if !active || confirmed || ref.Name != w.Array {
				return
			}
			key := cellKey(idx)
			text := ast.ExprString(ref)
			if cur == w.IterEarly && isStore == w.FromStore && text == w.FromText {
				sawEarly = true
				if !w.HasCell || key == expected {
					fromCells[key] = true
				}
			}
			if cur == w.IterLate && isStore == w.ToStore && text == w.ToText {
				sawLate = true
				if fromCells[key] {
					confirmed = true
				}
			}
		},
	}
	_, _, runErr := interp.Run(prog, seededState(prog, env), opts)
	if confirmed {
		return nil
	}
	if runErr != nil {
		return fmt.Errorf("interpreter run failed before the witness was reached: %v", runErr)
	}
	switch {
	case !sawEarly:
		return fmt.Errorf("%s did not execute at iteration %d of the loop over %s",
			accessText(w.FromText, w.FromStore), w.IterEarly, w.IV)
	case !sawLate:
		return fmt.Errorf("%s did not execute at iteration %d of the loop over %s",
			accessText(w.ToText, w.ToStore), w.IterLate, w.IV)
	default:
		return fmt.Errorf("%s (iteration %d) and %s (iteration %d) touched different elements of %s, expected %s",
			accessText(w.FromText, w.FromStore), w.IterEarly,
			accessText(w.ToText, w.ToStore), w.IterLate, w.Array, w.CellString())
	}
}

// PermutationCheck runs the program twice on identical seeded inputs —
// once with loop's natural iteration order, once with a deterministically
// shuffled schedule — and reports an error when the final array states
// differ. A certified-parallel loop must pass for any seed.
func PermutationCheck(prog *ast.Program, loop *ast.DoLoop, seed int64) error {
	env, err := realizeTrip(prog, loop, 3)
	if err != nil {
		// A shorter schedule still permutes when the loop runs at all;
		// a loop that cannot be driven has nothing to falsify.
		env, err = realizeTrip(prog, loop, 2)
		if err != nil {
			return nil
		}
	}
	init := seededState(prog, env)
	natural, _, errA := interp.Run(prog, init, &interp.Options{MaxSteps: dynamicMaxSteps})
	if errA != nil {
		// The probe inputs do not execute cleanly (e.g. division by zero in
		// unrelated code); there is no baseline to compare against.
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	shuffled, _, errB := interp.Run(prog, init, &interp.Options{
		MaxSteps: dynamicMaxSteps,
		LoopOrder: func(l *ast.DoLoop, iters []int64) []int64 {
			if l != loop {
				return nil
			}
			out := make([]int64, len(iters))
			copy(out, iters)
			rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			return out
		},
	})
	if errB != nil {
		return fmt.Errorf("shuffled run failed where the natural order succeeded: %v", errB)
	}
	if d := interp.DiffArrays(natural, shuffled); d != "" {
		return fmt.Errorf("final array states diverged: %s", d)
	}
	return nil
}

// realizeTrip binds every free scalar of the program to a deterministic
// value such that the given loop executes at least need iterations,
// growing the free scalars of the loop bound geometrically until the trip
// count (observed by actually running the program) suffices. Every
// iteration costs at least one interpreter step, so a need beyond the step
// budget is refused up front, and growth stops at the first probe that ran
// out of steps: a larger bound only needs more of them.
func realizeTrip(prog *ast.Program, loop *ast.DoLoop, need int64) (map[string]int64, error) {
	if need > dynamicMaxSteps {
		return nil, fmt.Errorf("cannot drive the loop to iteration %d within the %d-step replay budget", need, dynamicMaxSteps)
	}
	free := freeScalars(prog)
	env := make(map[string]int64, len(free))
	for k, name := range free {
		env[name] = int64(5 + 2*k)
	}
	hiIDs := freeIdentsIn(loop.Hi, free)
	for attempt := 0; ; attempt++ {
		trip, err := probeTrip(prog, loop, env)
		if trip >= need {
			return env, nil
		}
		if attempt >= 20 || len(hiIDs) == 0 || interp.IsStepLimit(err) {
			if err != nil {
				return nil, fmt.Errorf("cannot drive the loop to iteration %d: %v", need, err)
			}
			return nil, fmt.Errorf("cannot drive the loop to iteration %d (reached %d)", need, trip)
		}
		for k, id := range hiIDs {
			env[id] = env[id]*2 + need + int64(k)
		}
	}
}

// probeTrip runs the program under env and reports the largest induction
// value the target loop reached.
func probeTrip(prog *ast.Program, loop *ast.DoLoop, env map[string]int64) (int64, error) {
	st := interp.NewState()
	for k, v := range env {
		st.Scalars[k] = v
	}
	var max int64
	_, _, err := interp.Run(prog, st, &interp.Options{
		MaxSteps: dynamicMaxSteps,
		LoopIter: func(l *ast.DoLoop, i int64) {
			if l == loop && i > max {
				max = i
			}
		},
	})
	return max, err
}

// freeScalars returns the scalar names the program reads but never
// assigns (induction variables count as assigned), sorted.
func freeScalars(prog *ast.Program) []string {
	assigned := map[string]bool{}
	used := map[string]bool{}
	ast.Inspect(prog.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DoLoop:
			assigned[x.Var] = true
		case *ast.Assign:
			if id, ok := x.LHS.(*ast.Ident); ok {
				assigned[id.Name] = true
			}
		case *ast.Ident:
			used[x.Name] = true
		}
		return true
	})
	var out []string
	for name := range used {
		if !assigned[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// freeIdentsIn returns the subset of free that occurs in e, sorted.
func freeIdentsIn(e ast.Expr, free []string) []string {
	set := make(map[string]bool, len(free))
	for _, f := range free {
		set[f] = true
	}
	seen := map[string]bool{}
	var out []string
	ast.InspectExpr(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && set[id.Name] && !seen[id.Name] {
			seen[id.Name] = true
			out = append(out, id.Name)
		}
		return true
	})
	sort.Strings(out)
	return out
}

// seededState builds the initial interpreter state: env for the scalars,
// and every array pre-filled with distinct deterministic values over a
// bounded index box (declared bounds when present). Distinct values make
// order-dependent overwrites visible to the permutation check.
func seededState(prog *ast.Program, env map[string]int64) *interp.State {
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
	names := make([]string, 0, len(ndims))
	for n := range ndims {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		nd := ndims[name]
		if nd == 0 {
			continue
		}
		lo, hi := seedRanges(nd, declared[name])
		seedArray(st, name, make([]int64, 0, nd), lo, hi)
	}
	return st
}

// seedRanges picks the per-dimension index box to pre-fill: declared
// arrays seed their 1-based range (capped), undeclared arrays a small box
// around the origin including negative indices.
func seedRanges(nd int, sizes []int64) (lo, hi []int64) {
	lo = make([]int64, nd)
	hi = make([]int64, nd)
	var limit int64
	switch {
	case nd == 1:
		limit = 96
	case nd == 2:
		limit = 20
	default:
		limit = 8
	}
	for d := 0; d < nd; d++ {
		if d < len(sizes) && sizes[d] > 0 {
			lo[d] = 1
			hi[d] = sizes[d]
			if hi[d] > limit {
				hi[d] = limit
			}
		} else {
			lo[d] = -4
			hi[d] = limit
		}
	}
	return lo, hi
}

func seedArray(st *interp.State, name string, idx []int64, lo, hi []int64) {
	d := len(idx)
	if d == len(lo) {
		st.SetArrayN(name, idx, seedValue(name, cellKey(idx)))
		return
	}
	for v := lo[d]; v <= hi[d]; v++ {
		seedArray(st, name, append(idx, v), lo, hi)
	}
}

// seedValue derives a nonzero deterministic element value from the array
// name and element key.
func seedValue(name, key string) int64 {
	h := fnv.New32a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return int64(h.Sum32()%997) + 1
}

// cellKey matches the interpreter's element-key encoding.
func cellKey(idx []int64) string {
	parts := make([]string, len(idx))
	for i, v := range idx {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, ",")
}
