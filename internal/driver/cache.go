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
	"repro/internal/token"
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
// beyond the one-shot materialization — the graph is Precompute()d before
// parts is published and the solver never writes into a finished Result —
// so identical loop bodies can share one solved value across goroutines
// and across Analyze calls. materialize's sync.Once provides the
// happens-before edge for lazy values.
type solved struct {
	// meta holds one entry per spec, in the solve's spec order.
	meta []specMeta
	// stored marks a value loaded from disk, whose report lines are lines:
	// the entry's reuse lines, each a Reuse.WriteTo rendering ending in
	// '\n'. lines aliases the entry's payload, which the deferred row
	// blobs pin anyway.
	stored bool
	lines  []byte
	// twin is the memo entry a relocated value is restored from. Reuse
	// lines carry no source positions, so they are the twin's.
	twin *solved

	once sync.Once
	// fill is set on lazily-loaded values; it must not fail (the disk
	// layer falls back to a fresh solve on damaged payloads). nil when
	// parts was filled eagerly.
	fill  func() *solvedParts
	parts *solvedParts
}

// specMeta pairs a spec name with its persisted (or live) solver counters.
type specMeta struct {
	name string
	meta dataflow.ResultMeta
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
		return sv.meta[0].meta.Nodes
	}
	return len(sv.materialize().graph.Nodes)
}

// writeReuses writes one report line per reuse of the loop's
// must-reaching-definitions solve: lead, iv, ": ", the reuse as
// Reuse.WriteTo renders it, and '\n'. A value solved in memory renders
// from its reuse records and keeps no text; a value loaded from disk
// copies the lines its entry stored, and a relocated twin those of its
// source entry, so neither restores anything.
func (sv *solved) writeReuses(b *strings.Builder, lead, iv string) {
	if sv.twin != nil {
		sv.twin.writeReuses(b, lead, iv)
		return
	}
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
	if sv.twin != nil {
		return sv.twin.reuseSize(prefix)
	}
	if sv.stored {
		return len(sv.lines) + prefix*bytes.Count(sv.lines, []byte{'\n'})
	}
	return (prefix + 47) * len(sv.materialize().reuses)
}

// newSolvedEager wraps freshly-computed parts, deriving the per-spec
// counters from the live results.
func newSolvedEager(parts *solvedParts, specs []*dataflow.Spec) *solved {
	sv := &solved{parts: parts, meta: make([]specMeta, 0, len(specs))}
	for _, spec := range specs {
		if res := parts.results[spec.Name]; res != nil {
			sv.meta = append(sv.meta, specMeta{name: spec.Name, meta: res.PersistMeta()})
		}
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
	err  error
	// diskHit and loadBytes record how the claiming goroutine filled the
	// entry (written inside once, read by the claimer after once returns;
	// the Once's happens-before edge covers later claimants too).
	diskHit   bool
	loadBytes int64
	// pos digests the source positions of the loop whose solve filled the
	// entry (written inside once, like diskHit).
	pos uint64
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
	cap     int // <0 = unlimited
	entries map[memoKey]*cacheEntry
	// bytes is the sum of the resident entries' charges; budget bounds it
	// (<= 0 = unbounded).
	bytes, budget int64
	// order records keys oldest-first so eviction can drop the oldest
	// segment instead of the whole table.
	order  []memoKey
	hits   int
	misses int
}

// defaultCacheCap bounds the process-global cache when Options.CacheCap is
// zero. When the table is full the oldest half of the entries is evicted
// (the entries are content-addressed, so a refill is only a re-solve, never
// a correctness issue) — recently-used keys survive, unlike the old
// whole-map drop.
const defaultCacheCap = 4096

// memoBudget bounds the bytes the memo holds (see cacheEntry.bytes): when
// a publish takes the table past it, the oldest half of the entries is
// evicted, as for the entry cap, until it fits again. It is a constant
// because no two callers need different values: a batch-cold bundle
// charges about 4 MB and a typical entry about 12 kB, so the entry cap
// binds first on typical loops and the budget only on very wide ones
// (ARCHITECTURE.md, "The content-addressed memo cache").
const memoBudget = 64 << 20

// globalCache is the process-wide memo table shared by every Analyze call
// that does not set Options.DisableCache.
var globalCache = newSolveCache(defaultCacheCap)

func newSolveCache(cap int) *solveCache {
	return &solveCache{cap: cap, budget: memoBudget, entries: map[memoKey]*cacheEntry{}}
}

// setCap adjusts the cache bound: n>0 sets it, n<0 removes it. An
// already-overfull table is trimmed on the next insert, not eagerly.
func (c *solveCache) setCap(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = n
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
	c.order = nil
	c.hits, c.misses = 0, 0
	c.bytes = 0
}

// charge adds n bytes to entry e of key, when e is still the table's entry
// for key (an entry evicted while in flight is charged nothing), then
// evicts the oldest half of the table until the bytes fit the budget. A
// value is charged once when published, and a disk-loaded one again when
// its deferred parts are built.
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
// under concurrency.
func (c *solveCache) claim(key memoKey) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		return e, true
	}
	if c.cap > 0 && len(c.entries) >= c.cap {
		c.evictOldestLocked()
	}
	e := &cacheEntry{}
	c.entries[key] = e
	c.order = append(c.order, key)
	c.misses++
	return e, false
}

// evictOldestLocked drops the oldest half of the table (at least one
// entry) and credits their bytes. Callers hold c.mu. In-flight claimants of
// an evicted entry keep their pointer and still publish into it; only
// future lookups re-solve.
func (c *solveCache) evictOldestLocked() {
	drop := len(c.order) / 2
	if drop == 0 {
		drop = len(c.order)
	}
	for _, k := range c.order[:drop] {
		c.bytes -= c.entries[k].bytes
		delete(c.entries, k)
	}
	kept := make([]memoKey, len(c.order)-drop)
	copy(kept, c.order[drop:])
	c.order = kept
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
// held bytes to the memo.
func solveLoop(loop *ast.DoLoop, facts *rangefacts.Facts, env *solveEnv) (*solved, solveOutcome, error) {
	oracle := factsOracle(facts)
	if !env.useCache {
		sv, err := solveLoopFresh(loop, env.specs, env.dims, env.fuel, oracle)
		return sv, solveOutcome{}, err
	}
	sig := ""
	if oracle != nil {
		sig = oracle.Signature()
	}
	key := cacheKey(loop, env.specs, env.dims, env.fuel, sig)
	e, hit := globalCache.claim(key)
	claimed := false
	pos := posDigest(loop)
	var held int64
	e.once.Do(func() {
		claimed = true
		e.pos = pos
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
		e.sv, e.err = solveLoopFresh(loop, env.specs, env.dims, env.fuel, oracle)
		if e.err == nil {
			held = e.sv.parts.heldBytes()
		}
	})
	out := solveOutcome{key: key, hit: hit}
	if claimed {
		globalCache.charge(key, e, held)
		out.diskHit, out.loadBytes = e.diskHit, e.loadBytes
		if env.disk != nil && !e.diskHit && e.err == nil {
			out.storeBytes = env.disk.store(key, env.specs, e.sv)
		}
	}
	if e.err == nil && e.pos != pos {
		// The entry's graph holds another loop's Exprs, and analyzers
		// read source positions off them: answer with the entry's rows
		// on this loop's own graph.
		return e.sv.relocated(loop, env), out, nil
	}
	return e.sv, out, e.err
}

// relocated returns sv lazily rebuilt on loop's own graph: a twin of the
// loop sv was solved for (same memo key) at other source positions. The
// twin's results share the entry's change-point rows; only the graph,
// class tables and reuse records are its own.
func (sv *solved) relocated(loop *ast.DoLoop, env *solveEnv) *solved {
	specs, dims := env.specs, env.dims
	return &solved{meta: sv.meta, twin: sv, fill: func() *solvedParts {
		src := sv.materialize()
		rows := make([][]byte, len(specs))
		for i, spec := range specs {
			res := src.results[spec.Name]
			if res == nil {
				return src
			}
			rows[i] = res.Rows()
		}
		parts, err := restoreParts(loop, specs, dims, sv.meta, rows)
		if err != nil {
			// Unreachable: the twin's identical content rebuilds the
			// shapes the rows were solved on. Keep the entry's facts.
			return src
		}
		return parts
	}}
}

// posDigest folds the source position of every node of loop into one
// value. Memo hits compare it to tell a loop's own entry from a twin's.
func posDigest(loop *ast.DoLoop) uint64 {
	h := posHash(14695981039346656037)
	h.stmt(loop)
	return uint64(h)
}

// posHash is an FNV-style fold over positions, walked without closures:
// every memo lookup pays for it.
type posHash uint64

func (h *posHash) pos(p token.Pos) {
	*h = (*h ^ posHash(p.Line)<<32 ^ posHash(uint32(p.Col))) * 1099511628211
}

func (h *posHash) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.DoLoop:
		h.pos(st.DoPos)
		h.expr(st.Lo)
		h.expr(st.Hi)
		h.expr(st.Step)
		for _, b := range st.Body {
			h.stmt(b)
		}
	case *ast.If:
		h.pos(st.IfPos)
		h.expr(st.Cond)
		for _, b := range st.Then {
			h.stmt(b)
		}
		for _, b := range st.Else {
			h.stmt(b)
		}
	case *ast.Assign:
		h.expr(st.LHS)
		h.expr(st.RHS)
	case *ast.Dim:
		h.pos(st.DimPos)
		h.pos(st.NamePos)
		for _, e := range st.Sizes {
			h.expr(e)
		}
	}
}

func (h *posHash) expr(e ast.Expr) {
	switch ex := e.(type) {
	case *ast.Ident:
		h.pos(ex.NamePos)
	case *ast.IntLit:
		h.pos(ex.LitPos)
	case *ast.ArrayRef:
		h.pos(ex.NamePos)
		for _, sub := range ex.Subs {
			h.expr(sub)
		}
	case *ast.Binary:
		h.expr(ex.L)
		h.expr(ex.R)
	case *ast.Unary:
		h.pos(ex.OpPos)
		h.expr(ex.X)
	}
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

func solveLoopFresh(loop *ast.DoLoop, specs []*dataflow.Spec, dims map[string][]poly.Poly, fuel int64, oracle dataflow.RangeOracle) (*solved, error) {
	parts, err := solvePartsFresh(loop, specs, dims, fuel, oracle)
	if err != nil {
		return nil, err
	}
	return newSolvedEager(parts, specs), nil
}

// solvePartsFresh runs one loop's full solve: graph construction, every
// spec's fixed point, reuse extraction. Shared by the fresh-solve path and
// the lazy loader's damaged-payload fallback.
func solvePartsFresh(loop *ast.DoLoop, specs []*dataflow.Spec, dims map[string][]poly.Poly, fuel int64, oracle dataflow.RangeOracle) (*solvedParts, error) {
	g, err := ir.Build(loop, &ir.Options{Dims: dims})
	if err != nil {
		return nil, err
	}
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
	// Force the lazily-built dominator relation before the value can be
	// shared, so later concurrent readers never mutate the graph.
	g.Precompute()
	return parts, nil
}

// SetCacheCap adjusts the process-global memo bound directly: n>0 sets the
// cap, n<0 removes it, n==0 keeps the current bound. Equivalent to passing
// Options.CacheCap on the next Analyze call; long-lived hosts (the HTTP
// service) call it once at startup.
func SetCacheCap(n int) {
	if n != 0 {
		globalCache.setCap(n)
	}
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
