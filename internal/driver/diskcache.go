package driver

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/cachefile"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/poly"
	"repro/internal/problems"
)

// The persistent solve cache: a directory of content-addressed entries that
// lets a cold process warm-start at memo-hit speed. Entries are keyed by the
// same 128-bit fingerprint as the in-memory memo table (which already folds
// the canonical loop text, spec names, fuel, range facts, and dim
// declarations), and grouped under a schema subdirectory derived from the
// file-format generation, the result payload version, and the spec-name
// set — so any change to what a payload means abandons old files wholesale
// instead of risking a misparse.
//
// Stored are the solver's fixed points in their change-point form and the
// solve counters (see dataflow.Result.Rows/ResultMeta), and the loop's
// reuse lines as ProgramAnalysis.Report prints them; the flow graph, class
// tables, pr bitsets, and reuse records are deterministic functions of the
// loop AST.
// A load eagerly decodes just the checksummed container, the per-spec
// counters, and the reuse lines — enough for whole-program metrics and the
// report — and defers the graph rebuild and row restore until a consumer
// first reads the loop's facts, at which point the materialized value is
// byte-identical to a fresh solve.
//
// Failure policy: the disk cache never makes an Analyze call fail. Unusable
// roots disable it for the call; unreadable, truncated, corrupted, stale, or
// shape-mismatched entries degrade to a cold solve (counted in
// DiskCacheStats().Errors when the bytes were there but wrong).

// diskFormatGeneration versions everything about the container that the
// payload version does not cover. Bump on any incompatible change. v2
// appends the loop's reuse lines to the payload: each reuse of the
// must-reaching-definitions solve as problems.Reuse.WriteTo renders it
// (reference text, @nK node IDs, distances — no source positions),
// followed by '\n'. The lines are a derivation frozen into the files, so
// a change to FindReuses or Reuse.WriteTo must bump the generation too.
const diskFormatGeneration = "afdisk-v2"

// reuseLinesDigest pins that derivation: the FNV-1a 64 digest
// TestDiskFormatPinsReuseLines computes over the reuse lines of every
// examples/*.loop. When it no longer matches, bump diskFormatGeneration
// and record the new digest.
const reuseLinesDigest = "76d52a3535bcb445"

// diskCache is one (root, schema) binding: entries for one spec set +
// format generation, in one subdirectory of the user's cache root.
type diskCache struct {
	dir    string
	schema uint64
}

// diskCaches memoizes openDiskCacheFor: one MkdirAll per (root, schema) per
// process, and a failed root stays disabled (nil) instead of retrying on
// every solve. A directory removed later is re-created by store.
var diskCaches sync.Map // map[string]*diskCache (nil entry = unusable)

// schemaParts renders the schema-hash components for a spec set.
func schemaParts(specs []*dataflow.Spec) []string {
	parts := []string{diskFormatGeneration, dataflow.PersistVersion}
	for _, s := range specs {
		parts = append(parts, s.Name)
	}
	return parts
}

// openDiskCacheFor returns the disk cache for root + spec set, creating its
// schema subdirectory on first use. Returns nil (disk caching disabled)
// when the directory cannot be created.
func openDiskCacheFor(root string, specs []*dataflow.Spec) *diskCache {
	schema := cachefile.SchemaHash(schemaParts(specs)...)
	key := fmt.Sprintf("%s\x00%016x", root, schema)
	if v, ok := diskCaches.Load(key); ok {
		dc, _ := v.(*diskCache)
		return dc
	}
	dir := filepath.Join(root, fmt.Sprintf("%016x", schema))
	var dc *diskCache
	if err := os.MkdirAll(dir, 0o755); err == nil {
		dc = &diskCache{dir: dir, schema: schema}
	}
	diskCaches.Store(key, dc)
	return dc
}

// entryPath is the file holding one fingerprint's entry.
func (dc *diskCache) entryPath(key memoKey) string {
	return filepath.Join(dc.dir, fmt.Sprintf("%016x%016x", key.fp.Hi, key.fp.Lo))
}

// diskStats are the process-wide persistent-cache counters, exposed through
// DiskCacheStats for the service stats endpoint and operator tooling.
var diskStats struct {
	hits, misses, errors  atomic.Int64
	loadNS, storeNS       atomic.Int64
	loadBytes, storeBytes atomic.Int64
	stores                atomic.Int64
}

// DiskStats is a snapshot of the process-wide persistent-cache counters.
type DiskStats struct {
	// Hits counts solves answered from disk; Misses lookups that found no
	// usable entry (no file, stale schema, corruption — the last also counts
	// in Errors); Stores entries written.
	Hits, Misses, Stores int64
	// Errors counts entries that existed but could not be used (truncated,
	// bit-flipped, stale format, shape mismatch) plus failed writes. Every
	// one degraded to a cold solve, never a failure.
	Errors int64
	// LoadNS / StoreNS are cumulative wall nanoseconds spent reading /
	// writing entries; LoadBytes / StoreBytes the payload volumes.
	LoadNS, StoreNS       int64
	LoadBytes, StoreBytes int64
}

// DiskCacheStats reports the process-wide persistent-cache counters.
func DiskCacheStats() DiskStats {
	return DiskStats{
		Hits:       diskStats.hits.Load(),
		Misses:     diskStats.misses.Load(),
		Stores:     diskStats.stores.Load(),
		Errors:     diskStats.errors.Load(),
		LoadNS:     diskStats.loadNS.Load(),
		StoreNS:    diskStats.storeNS.Load(),
		LoadBytes:  diskStats.loadBytes.Load(),
		StoreBytes: diskStats.storeBytes.Load(),
	}
}

// ResetDiskCacheStats zeroes the process-wide counters (tests).
func ResetDiskCacheStats() {
	diskStats.hits.Store(0)
	diskStats.misses.Store(0)
	diskStats.stores.Store(0)
	diskStats.errors.Store(0)
	diskStats.loadNS.Store(0)
	diskStats.storeNS.Store(0)
	diskStats.loadBytes.Store(0)
	diskStats.storeBytes.Store(0)
}

// load reads and validates the entry for key and returns a lazily-restored
// solved value. The eager half is cheap — container checksum, per-spec
// counters, row-blob framing, reuse lines — which is all whole-program
// analysis and its report need; the graph rebuild, class-table derivation,
// row validation, and reuse extraction are deferred into the value's fill
// hook and run at most once, the first time a consumer reads the loop's
// facts.
// The loop and env must be the ones the key was computed from. Any eager
// failure returns ok=false and the caller solves cold; a deferred failure
// (impossible without a content-address collision — the blobs are
// checksummed) falls back to a fresh solve inside fill.
func (dc *diskCache) load(key memoKey, loop *ast.DoLoop, oracle dataflow.RangeOracle, env *solveEnv) (sv *solved, nbytes int64, ok bool) {
	start := time.Now()
	data, err := os.ReadFile(dc.entryPath(key))
	if err != nil {
		diskStats.misses.Add(1)
		return nil, 0, false
	}
	defer func() {
		if ok {
			diskStats.hits.Add(1)
			diskStats.loadBytes.Add(nbytes)
			diskStats.loadNS.Add(time.Since(start).Nanoseconds())
		} else {
			diskStats.misses.Add(1)
			diskStats.errors.Add(1)
		}
	}()
	payload, err := cachefile.Decode(data, dc.schema, key.fp.Hi, key.fp.Lo)
	if err != nil {
		return nil, 0, false
	}
	specs := env.specs
	ent, ok := decodeEntry(payload, specs)
	if !ok {
		return nil, 0, false
	}
	dims, fuel := env.dims, env.fuel
	metas, blobs := ent.metas, ent.blobs
	sv = &solved{meta: metas, stored: true, lines: ent.lines}
	sv.fill = func() *solvedParts {
		t0 := time.Now()
		parts, err := restoreParts(loop, specs, dims, metas, blobs)
		if err != nil {
			// The payload passed its checksum but does not match the
			// rebuilt graph: stale semantics behind an aliased content
			// address. Count it and solve fresh — the disk cache never
			// fails an analysis.
			diskStats.errors.Add(1)
			parts, err = solvePartsFresh(loop, specs, dims, fuel, oracle)
			if err != nil {
				// Unreachable without a fingerprint collision: the loop's
				// canonical content built a graph in the process that
				// stored the entry. Degrade to an empty analysis rather
				// than poisoning the cache with a nil.
				parts = &solvedParts{graph: &ir.Graph{Loop: loop},
					results: map[string]*dataflow.Result{}}
			}
		}
		// Materialization is part of the cost of serving from disk; fold it
		// into the load-time counter so the stats stay honest.
		diskStats.loadNS.Add(time.Since(t0).Nanoseconds())
		return parts
	}
	return sv, int64(len(data)), true
}

// diskEntry is one decoded payload. Blobs and lines alias the payload.
type diskEntry struct {
	// metas and blobs hold each spec's counters and change-point rows, in
	// spec order.
	metas []specMeta
	blobs [][]byte
	// lines are the loop's reuse lines, each ending in '\n'.
	lines []byte
}

// decodeEntry parses a payload that store wrote for specs:
//
//	uvarint  spec count
//	per spec: string name, dataflow.ResultMeta, blob rows
//	blob     reuse lines
//
// It accepts only a payload it consumes whole, whose spec names are specs'
// in order and whose reuse lines are empty or end in '\n' — what
// solved.writeReuses relies on to split them.
func decodeEntry(payload []byte, specs []*dataflow.Spec) (diskEntry, bool) {
	r := cachefile.NewReader(payload)
	if n := r.Uint(); n != uint64(len(specs)) {
		return diskEntry{}, false
	}
	ent := diskEntry{metas: make([]specMeta, 0, len(specs)), blobs: make([][]byte, 0, len(specs))}
	for _, spec := range specs {
		if name := r.String(); name != spec.Name {
			return diskEntry{}, false
		}
		meta := dataflow.DecodeResultMeta(r)
		ent.blobs = append(ent.blobs, r.Blob())
		ent.metas = append(ent.metas, specMeta{name: spec.Name, meta: meta})
	}
	ent.lines = r.Blob()
	if !r.Done() || (len(ent.lines) > 0 && ent.lines[len(ent.lines)-1] != '\n') {
		return diskEntry{}, false
	}
	return ent, true
}

// restoreParts rebuilds the graph-entangled artifacts of a disk entry: the
// flow graph and class tables from the loop AST, the fixed points from the
// persisted rows, the reuse facts from the restored must-solution. The
// cache key folds the fact signature, so the rows were computed under
// exactly the oracle the loop derives now; nothing else needs it.
func restoreParts(loop *ast.DoLoop, specs []*dataflow.Spec, dims map[string][]poly.Poly, metas []specMeta, blobs [][]byte) (*solvedParts, error) {
	g, err := ir.Build(loop, &ir.Options{Dims: dims})
	if err != nil {
		return nil, err
	}
	parts := &solvedParts{graph: g, results: make(map[string]*dataflow.Result, len(specs))}
	for i, spec := range specs {
		res, err := dataflow.RestoreResult(g, spec, metas[i].meta, blobs[i])
		if err != nil {
			return nil, err
		}
		parts.results[spec.Name] = res
		if spec.Name == "must-reaching-defs" {
			parts.reuses = problems.FindReuses(res)
		}
	}
	// Same publication contract as a fresh solve: force the lazy dominator
	// relation before the value can be shared across goroutines.
	g.Precompute()
	return parts, nil
}

// store writes the solved value for key, atomically. Returns the bytes
// written (0 on failure; failures only surface in DiskCacheStats().Errors).
// When the schema directory has vanished since it was opened (an operator
// cleared the cache root under a running process), store re-creates it and
// retries once, so a removed root heals instead of failing every later
// store.
func (dc *diskCache) store(key memoKey, specs []*dataflow.Spec, sv *solved) int64 {
	start := time.Now()
	parts := sv.materialize()
	var w cachefile.Writer
	w.Uint(uint64(len(specs)))
	for _, spec := range specs {
		res := parts.results[spec.Name]
		if res == nil {
			return 0
		}
		w.String(spec.Name)
		res.PersistMeta().Encode(&w)
		w.Blob(res.Rows())
	}
	// A string is framed like a blob, which is how decodeEntry reads it.
	w.String(reuseLines(parts.reuses))
	img := cachefile.Encode(dc.schema, key.fp.Hi, key.fp.Lo, w.Bytes())
	err := cachefile.WriteAtomic(dc.entryPath(key), img)
	if errors.Is(err, fs.ErrNotExist) && os.MkdirAll(dc.dir, 0o755) == nil {
		err = cachefile.WriteAtomic(dc.entryPath(key), img)
	}
	if err != nil {
		diskStats.errors.Add(1)
		return 0
	}
	n := int64(len(img))
	diskStats.stores.Add(1)
	diskStats.storeBytes.Add(n)
	diskStats.storeNS.Add(time.Since(start).Nanoseconds())
	return n
}

// reuseLines renders reuses as a disk entry stores them: each as
// Reuse.WriteTo renders it, followed by '\n'.
func reuseLines(reuses []problems.Reuse) string {
	var b strings.Builder
	for _, r := range reuses {
		r.WriteTo(&b)
		b.WriteByte('\n')
	}
	return b.String()
}
