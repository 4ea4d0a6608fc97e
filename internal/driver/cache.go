package driver

import (
	"bytes"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/poly"
	"repro/internal/problems"
	"repro/internal/rangefacts"
	"repro/internal/sema"
)

// solved is one fully-analyzed loop. The per-spec solver counters are
// always available (meta, in spec order); the bulky artifacts — the flow
// graph, the fixed points of every requested problem instance, and the
// derived reuse facts — live in parts, which a solve computed in-process
// fills eagerly and a disk-loaded solve materializes lazily on first
// access: whole-program analysis over a warm disk cache reads only meta,
// a report reads meta and the reuse lines the entry stored, and the graph
// rebuild + row decode happen the first time a consumer actually looks at
// a loop's facts.
//
// Once a cache entry is published its solved value is never mutated again
// beyond the one-shot materialization — ir.Build returns a finished graph
// and the solver never writes into a finished Result — so every loop of
// the same content shares one solved value, across goroutines, Analyze
// calls and source positions: the graph's reference Exprs belong to the
// loop that filled the entry, and each loop reads its own positions
// through LoopAnalysis.RefExpr. materialize's sync.Once provides the
// happens-before edge for lazy values.
type solved struct {
	// meta holds each spec's counters, in the solve's spec order.
	meta []dataflow.ResultMeta
	// stored marks a value loaded from disk, whose report lines are lines:
	// the entry's reuse lines, each a Reuse.WriteTo rendering ending in
	// '\n'. lines aliases the entry's payload, which the deferred row
	// blobs pin anyway.
	stored bool
	lines  []byte

	once sync.Once
	// fill is set on lazily-loaded values; it must not fail (the disk
	// layer falls back to a fresh solve on damaged payloads). nil when
	// parts was filled eagerly.
	fill  func() *solvedParts
	parts *solvedParts
}

// solvedParts are the graph-entangled artifacts of a solved loop.
type solvedParts struct {
	graph   *ir.Graph
	results map[string]*dataflow.Result
	reuses  []problems.Reuse
}

// materialize returns the solved value's parts, running the deferred
// restore exactly once for lazily-loaded values.
func (sv *solved) materialize() *solvedParts {
	sv.once.Do(func() {
		if sv.parts == nil && sv.fill != nil {
			sv.parts = sv.fill()
			sv.fill = nil
		}
	})
	return sv.parts
}

// nodes returns the loop's flow-graph node count, read off the solver
// counters; only a value that solved no problem restores its graph.
func (sv *solved) nodes() int {
	if len(sv.meta) > 0 {
		return sv.meta[0].Nodes
	}
	return len(sv.materialize().graph.Nodes)
}

// writeReuses writes one report line per reuse of the loop's
// must-reaching-definitions solve: lead, iv, ": ", the reuse as
// Reuse.WriteTo renders it, and '\n'. A value solved in memory renders
// from its reuse records and keeps no text; a value loaded from disk
// copies the lines its entry stored, so it restores nothing.
func (sv *solved) writeReuses(b *strings.Builder, lead, iv string) {
	if sv.stored {
		// The decoder admits only lines that end in '\n', so every step
		// finds one.
		for rest := sv.lines; len(rest) > 0; {
			k := bytes.IndexByte(rest, '\n') + 1
			b.WriteString(lead)
			b.WriteString(iv)
			b.WriteString(": ")
			b.Write(rest[:k])
			rest = rest[k:]
		}
		return
	}
	for _, r := range sv.materialize().reuses {
		b.WriteString(lead)
		b.WriteString(iv)
		b.WriteString(": ")
		r.WriteTo(b)
		b.WriteByte('\n')
	}
}

// reuseSize estimates the bytes writeReuses writes when each line opens
// with prefix bytes, without restoring a deferred value.
func (sv *solved) reuseSize(prefix int) int {
	if sv.stored {
		return len(sv.lines) + prefix*bytes.Count(sv.lines, []byte{'\n'})
	}
	return (prefix + 47) * len(sv.materialize().reuses)
}

// newSolvedEager wraps freshly-computed parts, deriving the per-spec
// counters from the live results.
func newSolvedEager(parts *solvedParts, specs []*dataflow.Spec) *solved {
	sv := &solved{parts: parts, meta: make([]dataflow.ResultMeta, len(specs))}
	for i, spec := range specs {
		sv.meta[i] = parts.results[spec.Name].PersistMeta()
	}
	return sv
}

// heldBytes estimates what the parts hold, counted from lengths: the flow
// graph, each result's change-point rows, class table and pr bitsets, and
// the reuse records.
func (p *solvedParts) heldBytes() int64 {
	n := p.graph.HeldBytes() + len(p.reuses)*int(unsafe.Sizeof(problems.Reuse{}))
	for _, res := range p.results {
		n += res.HeldBytes()
	}
	return int64(n)
}

// cacheEntry is the singleflight cell for one cache key: the first
// goroutine to claim the key computes inside once; later claimants (the
// cache hits) block on once until the value is published. This makes the
// hit/miss counts deterministic — k distinct keys among n solves always
// yield exactly k misses — no matter how the scheduler interleaves workers.
type cacheEntry struct {
	once sync.Once
	sv   *solved
	// diskHit and loadBytes record how the claiming goroutine filled the
	// entry (written inside once, read by the claimer after once returns;
	// the Once's happens-before edge covers later claimants too).
	diskHit   bool
	loadBytes int64
	// bytes is what the table has charged for the entry (under the
	// table's mutex): its value's held bytes once published, plus the
	// restored parts of a disk-loaded value once they are built.
	bytes int64
}

// memoKey is the content address of one solve: a 128-bit structural
// fingerprint of the canonical loop rendering, the spec-name signature, the
// fuel budget, the range-fact signature, and the dim signatures, all folded
// into one hash. The fingerprint is computed by streaming the same bytes the
// canonical renderer would produce into an FNV-1a 128 state, so two solves
// share a key exactly when their full string keys would be equal (modulo
// 2^-128 collisions; TestFingerprintPartitionMatchesCanonical checks the
// partition over the example and synthetic corpora).
type memoKey struct {
	fp ast.FP128
}

// solveCache memoizes loop solves content-addressed by memoKey. One mutex
// covers the entry map, the insertion order, the tallies and the byte
// count; a solve runs outside it, in its entry's sync.Once.
type solveCache struct {
	mu      sync.Mutex
	entries map[memoKey]*cacheEntry
	// bytes is the sum of the resident entries' charges; budget bounds it
	// (<= 0 = unbounded).
	bytes, budget int64
	// order[head:] records the resident keys oldest-first, so eviction
	// drops the oldest entries one at a time.
	order  []memoKey
	head   int
	hits   int
	misses int
}

// memoBudget is the memo's one bound (see cacheEntry.bytes): when a
// publish takes the table past it, the oldest entries are evicted, one at
// a time, until it fits again (the entries are content-addressed, so a
// refill is only a re-solve, never a wrong answer). Every published
// value is charged its held bytes, so the budget bounds the entry count
// too: a typical entry charges about 12 kB, a batch-cold bundle about
// 4 MB. It is a constant because no two callers need different values
// (ARCHITECTURE.md, "The content-addressed memo cache").
const memoBudget = 64 << 20

// globalCache is the process-wide memo table shared by every Analyze call
// that does not set Options.DisableCache.
var globalCache = newSolveCache()

func newSolveCache() *solveCache {
	return &solveCache{budget: memoBudget, entries: map[memoKey]*cacheEntry{}}
}

// stats reports the resident entry count and the lifetime tallies.
func (c *solveCache) stats() (entries, hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.hits, c.misses
}

// heldBytes reports the resident entries' charged bytes.
func (c *solveCache) heldBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// reset drops every entry and zeroes the tallies.
func (c *solveCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[memoKey]*cacheEntry{}
	c.order, c.head = nil, 0
	c.hits, c.misses = 0, 0
	c.bytes = 0
}

// charge adds n bytes to entry e of key, when e is still the table's entry
// for key (an entry evicted while in flight is charged nothing), then
// evicts the oldest entries until the bytes fit the budget. A value is
// charged once when published, and a disk-loaded one again when its
// deferred parts are built.
func (c *solveCache) charge(key memoKey, e *cacheEntry, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[key] != e {
		return
	}
	e.bytes += n
	c.bytes += n
	for c.budget > 0 && c.bytes > c.budget {
		c.evictOldestLocked()
	}
}

// cacheKey computes the content-addressed key for a loop + spec set by
// streaming the canonical bytes into a 128-bit hash. The hashed loop text
// covers the induction variable, the bounds, and the whole (possibly
// nested) body; specs contribute their names, which are canonical for the
// problem instances built by package problems; the declared dimension
// sizes of every multi-dimensional array the loop references are included
// because they determine linearized strides — two textually identical
// loops under different dim statements must not share a solve. The
// range-fact signature is folded in when non-empty because facts change
// preserve constants — a loop solved under a guard must never answer for
// the same text outside it; the empty signature adds no bytes. Callers
// that hand-build a Spec reusing a canned name with different semantics
// must disable the cache.
func cacheKey(loop *ast.DoLoop, specs []*dataflow.Spec, dims map[string][]poly.Poly, fuel int64, factsSig string) memoKey {
	h := ast.NewHasher()
	h.Stmt(loop)
	for _, s := range specs {
		h.WriteByte('\x00')
		h.WriteString(s.Name)
	}
	// The fuel budget changes what a solve may claim (an exhausted solve
	// degrades to the claim-nothing value), so budgets never share entries.
	h.WriteByte('\x00')
	h.WriteString(fuelSignature(fuel))
	if factsSig != "" {
		// The '!' prefix keeps the component disjoint from dim signatures,
		// which always start with an identifier.
		h.WriteByte('\x00')
		h.WriteString("!facts=" + factsSig)
	}
	for _, sig := range dimSignatures(loop, dims) {
		h.WriteByte('\x00')
		h.WriteString(sig)
	}
	return memoKey{fp: h.Sum()}
}

// fuelSignature renders the fuel budget's cache-key component. Zero (the
// derived never-binding default) and explicit budgets hash differently.
func fuelSignature(fuel int64) string {
	if fuel <= 0 {
		return "fuel=default"
	}
	return "fuel=" + strconv.FormatInt(fuel, 10)
}

// dimSignatures renders "name=size1,size2" for each declared array the loop
// references with two or more subscripts, sorted by name. Only those
// declarations reach the linearizer (single-subscript references have
// stride 1 regardless of dims), so restricting the signature to them keeps
// memo sharing maximal while staying exact.
func dimSignatures(loop *ast.DoLoop, dims map[string][]poly.Poly) []string {
	if len(dims) == 0 {
		return nil
	}
	seen := map[string]bool{}
	ast.Inspect([]ast.Stmt{loop}, func(n ast.Node) bool {
		if ref, ok := n.(*ast.ArrayRef); ok && len(ref.Subs) > 1 && dims[ref.Name] != nil {
			seen[ref.Name] = true
		}
		return true
	})
	if len(seen) == 0 {
		return nil
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		parts := make([]string, len(dims[name]))
		for k, d := range dims[name] {
			parts[k] = d.String()
		}
		names[i] = name + "=" + strings.Join(parts, ",")
	}
	return names
}

// claim returns the entry for key, creating it when absent. The second
// result reports whether the entry already existed (a cache hit). Counting
// happens under the same lock as the lookup, so the tallies stay exact
// under concurrency. A claim never evicts: an entry holds no bytes until
// its value is charged.
func (c *solveCache) claim(key memoKey) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		return e, true
	}
	e := &cacheEntry{}
	c.entries[key] = e
	c.order = append(c.order, key)
	c.misses++
	return e, false
}

// evictOldestLocked drops the oldest entry and credits its bytes, in
// amortized constant time: the order slice is compacted once its evicted
// prefix outgrows the resident rest. Callers hold c.mu. In-flight
// claimants of an evicted entry keep their pointer and still publish into
// it; only future lookups re-solve.
func (c *solveCache) evictOldestLocked() {
	k := c.order[c.head]
	c.bytes -= c.entries[k].bytes
	delete(c.entries, k)
	c.head++
	if c.head > len(c.order)-c.head {
		c.order = append(c.order[:0], c.order[c.head:]...)
		c.head = 0
	}
}

// solveEnv bundles the per-Analyze solve configuration threaded from
// analyze() down to every solveLoop call: the spec set, dim declarations,
// fuel, cache switches, and (when Options.CacheDir is set) the
// persistent cache handles.
type solveEnv struct {
	specs    []*dataflow.Spec
	dims     map[string][]poly.Poly
	useCache bool
	fuel     int64
	// prog/info/assume feed per-loop range-fact derivation (rangefacts);
	// prog nil skips derivation entirely.
	prog   *ast.Program
	info   *sema.Info
	assume []rangefacts.Fact
	// cacheRoot is Options.CacheDir (empty = no persistent cache); disk is
	// the handle for this env's spec set, nil when disabled or unusable.
	cacheRoot string
	disk      *diskCache
}

// withSpecs derives an env for a different spec set (the §3.6 WRT
// re-analyses), rebinding the persistent cache to that set's schema.
func (env *solveEnv) withSpecs(specs []*dataflow.Spec) *solveEnv {
	derived := *env
	derived.specs = specs
	derived.disk = nil
	if env.cacheRoot != "" && env.useCache {
		derived.disk = openDiskCacheFor(env.cacheRoot, specs)
	}
	return &derived
}

// solveOutcome reports how one solveLoop call was served.
type solveOutcome struct {
	// key is the memo key the solve was looked up under (zero with the
	// cache disabled).
	key memoKey
	// hit is an in-memory memo hit (the entry existed before this call).
	hit bool
	// diskHit means this call claimed the entry and filled it from the
	// persistent cache instead of solving; loadBytes is the entry size read.
	diskHit   bool
	loadBytes int64
	// storeBytes is the entry size written behind a fresh solve (0 when the
	// persistent cache is off, the value came from memory or disk, or the
	// write failed).
	storeBytes int64
}

// solveLoop analyzes one loop (graph construction, every spec's fixed
// point, reuse extraction), going through the memo cache unless disabled.
// With a persistent cache configured, a memory miss tries the disk before
// solving, and a fresh solve is written back after the entry is published —
// later claimants proceed on the in-memory value while the claiming worker
// completes the store. The claiming worker charges the published value's
// held bytes to the memo. Every hit returns the entry's own value, at
// whatever source positions the loop sits.
func solveLoop(loop *ast.DoLoop, facts *rangefacts.Facts, env *solveEnv) (*solved, solveOutcome) {
	oracle := factsOracle(facts)
	if !env.useCache {
		return solveLoopFresh(loop, env.specs, env.dims, env.fuel, oracle), solveOutcome{}
	}
	sig := ""
	if oracle != nil {
		sig = oracle.Signature()
	}
	key := cacheKey(loop, env.specs, env.dims, env.fuel, sig)
	e, hit := globalCache.claim(key)
	claimed := false
	var held int64
	e.once.Do(func() {
		claimed = true
		if env.disk != nil {
			if sv, n, ok := env.disk.load(key, loop, oracle, env); ok {
				// The payload is what the value holds until a consumer
				// reads its facts; the parts built then are charged when
				// they are.
				fill := sv.fill
				sv.fill = func() *solvedParts {
					parts := fill()
					globalCache.charge(key, e, parts.heldBytes())
					return parts
				}
				e.sv, e.diskHit, e.loadBytes = sv, true, n
				held = n
				return
			}
		}
		e.sv = solveLoopFresh(loop, env.specs, env.dims, env.fuel, oracle)
		held = e.sv.parts.heldBytes()
	})
	out := solveOutcome{key: key, hit: hit}
	if claimed {
		globalCache.charge(key, e, held)
		out.diskHit, out.loadBytes = e.diskHit, e.loadBytes
		if env.disk != nil && !e.diskHit {
			out.storeBytes = env.disk.store(key, env.specs, e.sv)
		}
	}
	return e.sv, out
}

// factsOracle adapts a fact environment to the solver's oracle interface.
// Empty and fuel-exhausted environments (which answer every query with
// "unknown" anyway) pass nil, so fact-free solves stay byte-identical to —
// and share memo/disk entries with — the pre-rangefacts pipeline.
func factsOracle(f *rangefacts.Facts) dataflow.RangeOracle {
	if f.Empty() || f.Exhausted() {
		return nil
	}
	return f
}

func solveLoopFresh(loop *ast.DoLoop, specs []*dataflow.Spec, dims map[string][]poly.Poly, fuel int64, oracle dataflow.RangeOracle) *solved {
	return newSolvedEager(solvePartsFresh(loop, specs, dims, fuel, oracle), specs)
}

// solvePartsFresh runs one loop's full solve: graph construction, every
// spec's fixed point, reuse extraction. Shared by the fresh-solve path and
// the lazy loader's damaged-payload fallback.
func solvePartsFresh(loop *ast.DoLoop, specs []*dataflow.Spec, dims map[string][]poly.Poly, fuel int64, oracle dataflow.RangeOracle) *solvedParts {
	g := ir.Build(loop, &ir.Options{Dims: dims})
	parts := &solvedParts{graph: g, results: make(map[string]*dataflow.Result, len(specs))}
	// One fused SolveAll per loop: every spec shares the graph's class
	// discovery, node orderings, and precedes bitsets through one solve
	// context instead of re-deriving them per problem instance.
	for i, res := range dataflow.SolveAll(g, specs, &dataflow.Options{Fuel: fuel, Facts: oracle}) {
		spec := specs[i]
		parts.results[spec.Name] = res
		if spec.Name == "must-reaching-defs" {
			parts.reuses = problems.FindReuses(res)
		}
	}
	return parts
}

// CacheStats reports the global solve cache's current size and lifetime
// hit/miss tallies (process-wide, across Analyze calls).
func CacheStats() (entries, hits, misses int) {
	return globalCache.stats()
}

// CacheBytes reports the bytes the global solve cache holds, as charged
// against its fixed budget: each resident solve's change-point rows, reuse
// records or stored reuse lines, and graph and class tables.
func CacheBytes() int64 {
	return globalCache.heldBytes()
}

// ResetCache drops every memoized solve and zeroes the tallies. Tests and
// long-running hosts that analyze unbounded streams of distinct programs
// can call it to release memory at a known point.
func ResetCache() {
	globalCache.reset()
}
