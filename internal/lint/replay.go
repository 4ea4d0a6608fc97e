// Dynamic certification bridge: the race analyzer's static verdicts are
// validated on the reference interpreter. Racy witnesses replay concretely
// (the two claimed iterations must touch the same element), and
// provably-parallel loops run once in natural order and once under a
// shuffled iteration schedule with the final array states compared.
//
// One bridge serves a whole program. The interpreter hooks only observe,
// so one run can check every loop at once: a trip probe per distinct
// environment records every loop's trip count, and a seeded natural-order
// run per environment confirms every witness of that environment and is
// the baseline of every permutation check in it. Only the permutation
// check needs runs of its own, one shuffled run per parallel loop. Each
// check's outcome equals the outcome of running it alone.
//
// Executed references are matched to witness references by rendered source
// text, not pointer identity: the driver's memo shares a loop's graph with
// every loop of the same content, wherever it sits, so the ref Exprs a
// witness was built from may belong to another AST, while the rendered
// text of a normalized reference is identical across them.
package lint

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"repro/internal/ast"
	"repro/internal/driver"
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
	job := &bridgeJob{loop: loop, witness: w}
	newBridge(prog).run([]*bridgeJob{job}, 1)
	return job.err
}

// PermutationCheck runs the program twice on identical seeded inputs —
// once with loop's natural iteration order, once with a deterministically
// shuffled schedule — and reports an error when the final array states
// differ. A certified-parallel loop must pass for any seed.
func PermutationCheck(prog *ast.Program, loop *ast.DoLoop, seed int64) error {
	job := &bridgeJob{loop: loop, shuffleSeed: seed}
	newBridge(prog).run([]*bridgeJob{job}, 1)
	return job.err
}

// bridgeJob is one dynamic check: a racy witness to replay, or (witness
// nil) a parallel loop to run under the schedule shuffleSeed picks. err is
// its outcome once the bridge has run.
type bridgeJob struct {
	loop        *ast.DoLoop
	witness     *Witness
	shuffleSeed int64

	env map[string]int64
	err error
}

// bridge runs the dynamic checks of one program.
type bridge struct {
	// code is the program compiled once; every run of the bridge executes
	// it, shuffled runs concurrently.
	code *interp.Compiled
	// free are the program's free scalars, sorted; realizeTrip binds them.
	free []string
	// seed gives every array the program names its initial cell values.
	seed *interp.Seed
	// probes memoizes trip probes by environment key.
	probes map[string]*tripProbe
	// text memoizes the rendered text of executed references.
	text map[*ast.ArrayRef]string
	// runs counts the interpreter runs made.
	runs int
}

// tripProbe is one unseeded run of the program under an environment: the
// largest induction value every loop reached, and how the run ended.
type tripProbe struct {
	trips map[*ast.DoLoop]int64
	err   error
}

func newBridge(prog *ast.Program) *bridge {
	return &bridge{
		code:   interp.Compile(prog),
		free:   freeScalars(prog),
		seed:   programSeed(prog),
		probes: map[string]*tripProbe{},
		text:   map[*ast.ArrayRef]string{},
	}
}

// run settles every job: realize its environment, then one natural run
// per distinct environment, then one shuffled run per permutation job
// whose natural run succeeded, fanned out over at most parallelism
// goroutines (0 = GOMAXPROCS). Outcomes do not depend on parallelism.
func (b *bridge) run(jobs []*bridgeJob, parallelism int) {
	var envs []string
	byEnv := map[string][]*bridgeJob{}
	for _, j := range jobs {
		var err error
		if j.witness != nil {
			j.env, err = b.realizeTrip(j.loop, j.witness.IterLate)
			if err != nil {
				j.err = err
				continue
			}
		} else if j.env, err = b.realizeTrip(j.loop, 3); err != nil {
			// A shorter schedule still permutes when the loop runs at all;
			// a loop that cannot be driven has nothing to falsify.
			if j.env, err = b.realizeTrip(j.loop, 2); err != nil {
				continue
			}
		}
		key := b.envKey(j.env)
		if _, ok := byEnv[key]; !ok {
			envs = append(envs, key)
		}
		byEnv[key] = append(byEnv[key], j)
	}

	type shuffle struct {
		job           *bridgeJob
		init, natural *interp.State
	}
	var shuffles []shuffle
	for _, key := range envs {
		group := byEnv[key]
		init := b.initState(group[0].env)
		natural, err := b.naturalRun(init, group)
		for _, j := range group {
			// Without a clean natural run (the probe inputs trap in
			// unrelated code) there is no baseline to compare against.
			if j.witness == nil && err == nil {
				shuffles = append(shuffles, shuffle{j, init, natural})
			}
		}
	}

	b.runs += len(shuffles)
	driver.FanOut(len(shuffles), parallelism, func(i int) {
		s := shuffles[i]
		s.job.err = b.shuffledRun(s.job, s.init, s.natural)
	})
}

// naturalRun executes the program once in natural order from init,
// replaying every witness of the group on its own tracker, and returns
// the final state and how the run ended. An access reaches only the
// trackers of the loops running at the time.
func (b *bridge) naturalRun(init *interp.State, group []*bridgeJob) (*interp.State, error) {
	var trackers, active []*tracker
	byLoop := map[*ast.DoLoop][]*tracker{}
	for _, j := range group {
		if j.witness != nil {
			t := &tracker{job: j}
			trackers = append(trackers, t)
			byLoop[j.loop] = append(byLoop[j.loop], t)
		}
	}
	opts := &interp.Options{MaxSteps: dynamicMaxSteps}
	if len(trackers) > 0 {
		opts.LoopIter = func(l *ast.DoLoop, i int64) {
			for _, t := range byLoop[l] {
				if !t.active {
					active = append(active, t)
				}
				t.iter(i)
			}
		}
		opts.LoopDone = func(l *ast.DoLoop) {
			for _, t := range byLoop[l] {
				t.active = false
			}
			active = slices.DeleteFunc(active, func(t *tracker) bool { return !t.active })
		}
		opts.TraceRef = func(ref *ast.ArrayRef, isStore bool, idx []int64) {
			for _, t := range active {
				t.access(b, ref, isStore, idx)
			}
		}
	}
	b.runs++
	final, _, err := b.code.Run(init, opts)
	for _, t := range trackers {
		t.job.err = t.verdict(err)
	}
	return final, err
}

// shuffledRun executes the program from init with the job's loop under a
// shuffled schedule and compares the final arrays with the natural run's.
func (b *bridge) shuffledRun(j *bridgeJob, init, natural *interp.State) error {
	rng := rand.New(rand.NewSource(j.shuffleSeed))
	shuffled, _, err := b.code.Run(init, &interp.Options{
		MaxSteps: dynamicMaxSteps,
		LoopOrder: func(l *ast.DoLoop, iters []int64) []int64 {
			if l != j.loop {
				return nil
			}
			out := make([]int64, len(iters))
			copy(out, iters)
			rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			return out
		},
	})
	if err != nil {
		return fmt.Errorf("shuffled run failed where the natural order succeeded: %v", err)
	}
	if d := interp.DiffArrays(natural, shuffled); d != "" {
		return fmt.Errorf("final array states diverged: %s", d)
	}
	return nil
}

// tracker replays one witness: it watches the witness's loop and records
// the cells the early reference touches at IterEarly within one dynamic
// instance of the loop, until the late reference touches one of them at
// IterLate.
type tracker struct {
	job       *bridgeJob
	active    bool
	cur       int64
	fromCells [][]int64
	sawEarly  bool
	sawLate   bool
	confirmed bool
}

func (t *tracker) iter(i int64) {
	if i == 1 && !t.confirmed {
		// Normalized loops start at 1, so this is a new dynamic instance;
		// collisions must not span instances.
		t.fromCells = t.fromCells[:0]
	}
	t.active, t.cur = true, i
}

func (t *tracker) access(b *bridge, ref *ast.ArrayRef, isStore bool, idx []int64) {
	w := t.job.witness
	if !t.active || t.confirmed || ref.Name != w.Array {
		return
	}
	early := t.cur == w.IterEarly && isStore == w.FromStore
	late := t.cur == w.IterLate && isStore == w.ToStore
	if !early && !late {
		return
	}
	text, ok := b.text[ref]
	if !ok {
		text = ast.ExprString(ref)
		b.text[ref] = text
	}
	if early && text == w.FromText {
		t.sawEarly = true
		if !w.HasCell || slices.Equal(idx, w.Cell) {
			t.fromCells = append(t.fromCells, slices.Clone(idx))
		}
	}
	if late && text == w.ToText {
		t.sawLate = true
		for _, c := range t.fromCells {
			if slices.Equal(c, idx) {
				t.confirmed = true
				break
			}
		}
	}
}

// verdict is the replay's outcome given how the run ended: nil when the
// race was observed.
func (t *tracker) verdict(runErr error) error {
	w := t.job.witness
	if t.confirmed {
		return nil
	}
	if runErr != nil {
		return fmt.Errorf("interpreter run failed before the witness was reached: %v", runErr)
	}
	switch {
	case !t.sawEarly:
		return fmt.Errorf("%s did not execute at iteration %d of the loop over %s",
			accessText(w.FromText, w.FromStore), w.IterEarly, w.IV)
	case !t.sawLate:
		return fmt.Errorf("%s did not execute at iteration %d of the loop over %s",
			accessText(w.ToText, w.ToStore), w.IterLate, w.IV)
	default:
		return fmt.Errorf("%s (iteration %d) and %s (iteration %d) touched different elements of %s, expected %s",
			accessText(w.FromText, w.FromStore), w.IterEarly,
			accessText(w.ToText, w.ToStore), w.IterLate, w.Array, w.CellString())
	}
}

// realizeTrip binds every free scalar of the program to a deterministic
// value such that the given loop executes at least need iterations,
// growing the free scalars of the loop bound geometrically until the trip
// count (observed by actually running the program) suffices. Every
// iteration costs at least one interpreter step, so a need beyond the step
// budget is refused up front, and growth stops at the first probe that ran
// out of steps: a larger bound only needs more of them.
func (b *bridge) realizeTrip(loop *ast.DoLoop, need int64) (map[string]int64, error) {
	if need > dynamicMaxSteps {
		return nil, fmt.Errorf("cannot drive the loop to iteration %d within the %d-step replay budget", need, dynamicMaxSteps)
	}
	env := make(map[string]int64, len(b.free))
	for k, name := range b.free {
		env[name] = int64(5 + 2*k)
	}
	hiIDs := freeIdentsIn(loop.Hi, b.free)
	for attempt := 0; ; attempt++ {
		p := b.probe(env)
		trip, err := p.trips[loop], p.err
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

// probe runs the program unseeded under env, once per distinct env, and
// records the largest induction value every loop reached.
func (b *bridge) probe(env map[string]int64) *tripProbe {
	key := b.envKey(env)
	if p, ok := b.probes[key]; ok {
		return p
	}
	st := interp.NewState()
	for k, v := range env {
		st.Scalars[k] = v
	}
	p := &tripProbe{trips: map[*ast.DoLoop]int64{}}
	b.runs++
	_, _, p.err = b.code.Run(st, &interp.Options{
		MaxSteps: dynamicMaxSteps,
		LoopIter: func(l *ast.DoLoop, i int64) {
			if i > p.trips[l] {
				p.trips[l] = i
			}
		},
	})
	b.probes[key] = p
	return p
}

// envKey renders env's values in free-scalar order.
func (b *bridge) envKey(env map[string]int64) string {
	var buf []byte
	for _, name := range b.free {
		buf = strconv.AppendInt(buf, env[name], 10)
		buf = append(buf, ',')
	}
	return string(buf)
}

// initState is the initial state of the seeded runs: env for the scalars,
// and every array reading the program's seed.
func (b *bridge) initState(env map[string]int64) *interp.State {
	st := interp.NewSeededState(b.seed)
	for k, v := range env {
		st.Scalars[k] = v
	}
	return st
}

// freeScalars returns the scalar names that some read may see before the
// program assigns them, sorted: the program's inputs, which realizeTrip
// binds. A name the program assigns only later (a bound of one loop that
// a later loop uses as its induction variable, a scalar computed after
// its first use) is still an input. The walk follows execution order: a
// loop's induction variable is bound only inside its body (the
// interpreter restores it after the loop), a loop may run no iteration,
// and only what both branches of an if assign is assigned after it.
func freeScalars(prog *ast.Program) []string {
	free := map[string]bool{}
	reads := func(e ast.Expr, assigned map[string]bool) {
		ast.InspectExpr(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !assigned[id.Name] {
				free[id.Name] = true
			}
			return true
		})
	}
	var block func(stmts []ast.Stmt, assigned map[string]bool)
	block = func(stmts []ast.Stmt, assigned map[string]bool) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *ast.Assign:
				reads(st.RHS, assigned)
				switch lhs := st.LHS.(type) {
				case *ast.Ident:
					assigned[lhs.Name] = true
				case *ast.ArrayRef:
					for _, sub := range lhs.Subs {
						reads(sub, assigned)
					}
				}
			case *ast.If:
				reads(st.Cond, assigned)
				then, els := maps.Clone(assigned), maps.Clone(assigned)
				block(st.Then, then)
				block(st.Else, els)
				for name := range then {
					if els[name] {
						assigned[name] = true
					}
				}
			case *ast.DoLoop:
				reads(st.Lo, assigned)
				reads(st.Hi, assigned)
				reads(st.Step, assigned)
				body := maps.Clone(assigned)
				body[st.Var] = true
				block(st.Body, body)
			}
		}
	}
	block(prog.Body, map[string]bool{})
	out := make([]string, 0, len(free))
	for name := range free {
		out = append(out, name)
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

// programSeed gives every array the program names distinct deterministic
// initial values over a bounded index box (declared bounds when present).
// Distinct values make order-dependent overwrites visible to the
// permutation check.
func programSeed(prog *ast.Program) *interp.Seed {
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
	seed := interp.NewSeed()
	for name, nd := range ndims {
		if nd > 0 {
			lo, hi := seedRanges(nd, declared[name])
			seed.Box(name, lo, hi)
		}
	}
	return seed
}

// seedRanges picks the per-dimension index box to seed: declared arrays
// seed their 1-based range (capped), undeclared arrays a small box around
// the origin including negative indices.
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
