package driver

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/parser"
	"repro/internal/poly"
	"repro/internal/problems"
	"repro/internal/rangefacts"
	"repro/internal/sema"
	"repro/internal/synth"
)

// fpKey builds a distinct memo key for testing eviction mechanics.
func fpKey(i int) memoKey {
	return memoKey{fp: ast.FP128{Hi: uint64(i), Lo: ^uint64(i)}}
}

// TestEvictionDropsOldestUntilFit exercises the eviction directly: filling
// a 400-byte table with four 100-byte entries and charging a fifth must
// evict the oldest entry alone, so re-claiming the four newest hits while
// the oldest misses. Claim order is serial here, so the hit/miss tallies
// are fully deterministic.
func TestEvictionDropsOldestUntilFit(t *testing.T) {
	c := newSolveCache()
	c.budget = 400
	fill := func(i int, n int64) {
		t.Helper()
		e, hit := c.claim(fpKey(i))
		if hit {
			t.Fatalf("key %d: unexpected hit on first claim", i)
		}
		c.charge(fpKey(i), e, n)
	}
	for i := 0; i < 4; i++ {
		fill(i, 100)
	}
	if len(c.entries) != 4 || c.bytes != 400 {
		t.Fatalf("table size %d holding %d bytes, want 4 holding 400", len(c.entries), c.bytes)
	}
	// Fifth charge: key 0 evicted, 1 through 4 survive at the full budget.
	fill(4, 100)
	if len(c.entries) != 4 || c.bytes != 400 {
		t.Fatalf("after eviction: %d entries holding %d bytes, want 4 holding 400", len(c.entries), c.bytes)
	}
	for _, i := range []int{1, 2, 3, 4} {
		if _, hit := c.claim(fpKey(i)); !hit {
			t.Errorf("key %d should have survived eviction", i)
		}
	}
	if _, hit := c.claim(fpKey(0)); hit {
		t.Errorf("key 0 should have been evicted")
	}
	if c.hits != 4 || c.misses != 6 {
		t.Errorf("tallies hits=%d misses=%d, want 4/6", c.hits, c.misses)
	}
	// A 250-byte charge evicts the oldest three (1, 2, 3): two would leave
	// 450 bytes.
	fill(5, 250)
	if len(c.entries) != 3 || c.bytes != 350 {
		t.Fatalf("after a 250-byte charge: %d entries holding %d bytes, want 3 holding 350", len(c.entries), c.bytes)
	}
	for _, i := range []int{4, 0, 5} {
		if c.entries[fpKey(i)] == nil {
			t.Errorf("key %d should be resident", i)
		}
	}
}

// TestClaimsAloneNeverEvict claims far more keys than a one-byte budget
// could hold entries: an entry holds nothing until its value is charged,
// so claims alone evict nothing.
func TestClaimsAloneNeverEvict(t *testing.T) {
	c := newSolveCache()
	c.budget = 1
	const n = 10_000
	for i := 0; i < n; i++ {
		c.claim(fpKey(i))
	}
	if entries, _, misses := c.stats(); entries != n || misses != n {
		t.Fatalf("%d entries / %d misses after %d claims, want %d/%d", entries, misses, n, n, n)
	}
}

// TestCacheDeterministicMissCount claims k distinct keys from many
// goroutines concurrently: exactly k misses must be tallied no matter how
// claims interleave, because the table counts under its lock and the
// singleflight cell is created exactly once per key.
func TestCacheDeterministicMissCount(t *testing.T) {
	const keys, claimers = 64, 8
	c := newSolveCache()
	var wg sync.WaitGroup
	for g := 0; g < claimers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				c.claim(fpKey(i))
			}
		}()
	}
	wg.Wait()
	entries, hits, misses := c.stats()
	if entries != keys || misses != keys || hits != keys*(claimers-1) {
		t.Fatalf("entries/hits/misses = %d/%d/%d, want %d/%d/%d",
			entries, hits, misses, keys, keys*(claimers-1), keys)
	}
}

// TestEvictionDeterministicHitMiss pins the memo end to end while its
// byte budget evicts. The global table's budget is cut to half of what
// three programs charge, and they are analyzed again in reverse order, so
// the second round hits the newest solves and re-solves the evicted
// oldest. The same serial Analyze sequence must produce identical tallies
// and reports on every repetition, and serial and 4-worker runs (the wave
// fan-out, and AnalyzeBatch with concurrent claims of one key racing
// eviction) must report exactly what the memo-free analysis does.
func TestEvictionDeterministicHitMiss(t *testing.T) {
	var seq []*ast.Program
	for i := 0; i < 3; i++ {
		seq = append(seq, synth.MultiLoopProgram(synth.MultiParams{
			Seed: int64(40 + i), Loops: 10, StmtsPer: 5, DistinctBodies: 10}))
	}
	seq = append(seq, seq[2], seq[1], seq[0])
	// The 4-worker runs also take the example and synthetic corpus, whose
	// nests route §3.6 re-analyses through the evicting memo.
	all := append(append([]*ast.Program{}, seq...), corpusPrograms(t)...)
	want := make([]string, len(all))
	for i, p := range all {
		pa, err := Analyze(p, &Options{DisableCache: true, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pa.Report()
	}
	ResetCache()
	for _, p := range seq[:3] {
		if _, err := Analyze(p, &Options{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	}
	globalCache.mu.Lock()
	budget := globalCache.bytes / 2
	globalCache.budget = budget
	globalCache.mu.Unlock()
	t.Cleanup(func() {
		globalCache.mu.Lock()
		globalCache.budget = memoBudget
		globalCache.mu.Unlock()
		ResetCache()
	})

	type tally struct{ hits, misses int }
	run := func() []tally {
		ResetCache()
		out := make([]tally, 0, len(seq))
		for i, p := range seq {
			pa, err := Analyze(p, &Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := pa.Report(); got != want[i] {
				t.Fatalf("serial, program %d: report differs from the memo-free one:\n%s\nwant:\n%s", i, got, want[i])
			}
			out = append(out, tally{pa.Metrics.CacheHits, pa.Metrics.CacheMisses})
			if held := CacheBytes(); held > budget {
				t.Fatalf("serial, program %d: memo holds %d bytes over the %d-byte budget", i, held, budget)
			}
		}
		return out
	}
	first := run()
	if first[3].hits == 0 || first[5].misses == 0 {
		t.Fatalf("second round tallies %v: want hits on the newest program and misses on the oldest", first[3:])
	}
	for rep := 0; rep < 3; rep++ {
		again := run()
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("rep %d prog %d: tallies diverged across evictions: got %d/%d, want %d/%d",
					rep, i, again[i].hits, again[i].misses, first[i].hits, first[i].misses)
			}
		}
	}

	ResetCache()
	for i, p := range all {
		pa, err := Analyze(p, &Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got := pa.Report(); got != want[i] {
			t.Fatalf("4 workers, program %d: report differs from the memo-free one", i)
		}
	}
	ResetCache()
	batch := append(append([]*ast.Program{}, all...), all...)
	for i, r := range AnalyzeBatch(batch, &Options{Parallelism: 4}) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if got := r.Analysis.Report(); got != want[i%len(all)] {
			t.Fatalf("4-worker batch, program %d: report differs from the memo-free one", i)
		}
	}
	if held := CacheBytes(); held > budget {
		t.Errorf("4-worker batch: memo holds %d bytes over the %d-byte budget", held, budget)
	}
}

// loopsOf collects every DoLoop of a checked program, nested included.
func loopsOf(prog *ast.Program) []*ast.DoLoop {
	var loops []*ast.DoLoop
	ast.Inspect(prog.Body, func(n ast.Node) bool {
		if l, ok := n.(*ast.DoLoop); ok {
			loops = append(loops, l)
		}
		return true
	})
	return loops
}

// corpusPrograms parses every example program plus a synth fuzz sweep.
func corpusPrograms(t *testing.T) []*ast.Program {
	t.Helper()
	var progs []*ast.Program
	files, _ := filepath.Glob(filepath.Join("..", "..", "examples", "*.loop"))
	if len(files) == 0 {
		t.Fatal("no example programs found")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.ParseBytes(src, nil)
		if err != nil {
			continue // some examples are intentionally invalid
		}
		if _, err := sema.Check(prog); err != nil {
			continue
		}
		progs = append(progs, prog)
	}
	for seed := int64(1); seed <= 24; seed++ {
		progs = append(progs, synth.MultiLoopProgram(synth.MultiParams{
			Seed: seed, Loops: 8, StmtsPer: 6,
			NestEvery: int(seed%4) + 1, DistinctBodies: int(seed%5) + 1}))
	}
	return progs
}

// canonicalKeyString renders the full string key — the exact byte stream
// cacheKey hashes — so the fingerprint partition can be checked against it.
func canonicalKeyString(loop *ast.DoLoop, specs []*dataflow.Spec, dims map[string][]poly.Poly, fuel int64, factsSig string) string {
	var b strings.Builder
	b.WriteString(ast.StmtString(loop, 0))
	for _, s := range specs {
		b.WriteByte('\x00')
		b.WriteString(s.Name)
	}
	b.WriteByte('\x00')
	b.WriteString(fuelSignature(fuel))
	if factsSig != "" {
		b.WriteByte('\x00')
		b.WriteString("!facts=" + factsSig)
	}
	for _, sig := range dimSignatures(loop, dims) {
		b.WriteByte('\x00')
		b.WriteString(sig)
	}
	return b.String()
}

// TestFingerprintPartitionMatchesCanonical is the differential check the
// fingerprint key rests on: over every example program and a synth fuzz
// sweep, two (loop, specs, dims, fuel, facts) keys get the same fingerprint
// exactly when they get the same canonical string key. Besides fixed
// variants, every loop is keyed with the dims and the range-fact signature
// the driver itself derives for it — the inputs real memo lookups see. A
// fingerprint collision (same hash, different rendering) or a split (same
// rendering, different hash — impossible by construction, but checked
// anyway) fails.
func TestFingerprintPartitionMatchesCanonical(t *testing.T) {
	specsets := [][]*dataflow.Spec{
		{problems.MustReachingDefs()},
		{problems.MustReachingDefs(), problems.BusyStores()},
	}
	// Declared-dims variants: none, and a map covering the corpus's usual
	// array names (dims only reach the key for loops that reference one of
	// these with two or more subscripts, so for most loops both variants
	// must produce the same key).
	fixedDims := map[string][]poly.Poly{"X": {poly.Const(8), poly.Const(8)}, "Y": {poly.Const(4), poly.Const(16)}}
	fuels := []int64{0, 1, 1 << 20}
	factsSigs := []string{"", "n - 1 >= 0 (loop bound)", "k - 1 >= 1 (guard);n - k >= 0 (guard)"}
	byFP := map[memoKey]string{}
	byStr := map[string]memoKey{}
	n, derivedFacts := 0, 0
	for _, prog := range corpusPrograms(t) {
		info, err := sema.Check(prog)
		if err != nil {
			t.Fatal(err)
		}
		dims := declaredDims(info)
		for _, loop := range loopsOf(prog) {
			derivedSig := ""
			if o := factsOracle(rangefacts.Derive(prog, info, loop, nil, 0)); o != nil {
				derivedSig = o.Signature()
				derivedFacts++
			}
			for _, specs := range specsets {
				for _, dimset := range []map[string][]poly.Poly{nil, fixedDims, dims} {
					for _, factsSig := range []string{factsSigs[n%len(factsSigs)], derivedSig} {
						fuel := fuels[n%len(fuels)]
						n++
						fp := cacheKey(loop, specs, dimset, fuel, factsSig)
						str := canonicalKeyString(loop, specs, dimset, fuel, factsSig)
						if prev, ok := byFP[fp]; ok && prev != str {
							t.Fatalf("fingerprint collision: %x/%x for %q and %q",
								fp.fp.Hi, fp.fp.Lo, prev, str)
						}
						if prev, ok := byStr[str]; ok && prev != fp {
							t.Fatalf("fingerprint split: same rendering %q hashed twice differently", str)
						}
						byFP[fp] = str
						byStr[str] = fp
					}
				}
			}
		}
	}
	if n < 100 {
		t.Fatalf("differential corpus too small: %d keys", n)
	}
	if derivedFacts == 0 {
		t.Fatal("no corpus loop derived range facts: the driver-derived signatures went unchecked")
	}
	if len(byFP) != len(byStr) {
		t.Fatalf("partition mismatch: %d fingerprint classes vs %d string classes", len(byFP), len(byStr))
	}
}

// TestMemoHitsKeepTheirOwnPositions pins the memo's position contract:
// every hit shares the entry's value, graph included, whatever the
// loop's source positions, and each loop reads its references' positions
// from its own source through RefExpr.
func TestMemoHitsKeepTheirOwnPositions(t *testing.T) {
	loop := "do i = 1, 10\n  A[i] := A[i-1] + 1\n  B[i] := A[i]\nenddo\n"
	analyze := func() *ProgramAnalysis {
		norm, err := sema.Normalize(parser.MustParse(loop + loop))
		if err != nil {
			t.Fatal(err)
		}
		pa, err := Analyze(norm, &Options{Specs: problems.StandardSpecs(), Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		return pa
	}
	ResetCache()
	first, again := analyze(), analyze()
	if first.Metrics.CacheMisses != 1 || again.Metrics.CacheHits != 2 {
		t.Fatalf("misses %d then hits %d, want 1 and 2", first.Metrics.CacheMisses, again.Metrics.CacheHits)
	}
	entry := first.Loops[0].Graph()
	for _, pa := range []*ProgramAnalysis{first, again} {
		for _, la := range pa.Loops {
			if la.Graph() != entry {
				t.Errorf("loop at %s: a memo hit did not share the entry's graph", la.Loop.Pos())
			}
			own := map[*ast.ArrayRef]bool{}
			ast.Inspect(la.Loop.Body, func(n ast.Node) bool {
				if ref, ok := n.(*ast.ArrayRef); ok {
					own[ref] = true
				}
				return true
			})
			for _, r := range la.Graph().Refs {
				expr := la.RefExpr(r)
				if !own[expr] {
					t.Fatalf("loop at %s: RefExpr(%s) at %s belongs to another loop", la.Loop.Pos(), r, expr.Pos())
				}
				if got, want := ast.ExprString(expr), ast.ExprString(r.Expr); got != want {
					t.Fatalf("loop at %s: RefExpr(%s) is %s", la.Loop.Pos(), r, got)
				}
			}
			if got, want := la.Reuses(), first.Loops[0].Reuses(); len(got) != len(want) {
				t.Errorf("loop at %s: %d reuses, want %d", la.Loop.Pos(), len(got), len(want))
			}
		}
	}
}
