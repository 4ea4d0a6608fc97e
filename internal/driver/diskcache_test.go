package driver

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/cachefile"
	"repro/internal/dataflow"
	"repro/internal/dataflow/reference"
	"repro/internal/parser"
	"repro/internal/problems"
	"repro/internal/synth"
)

// diskTestProgram returns a distinct-per-seed multi-loop program so tests
// that share the process-global memo cache cannot serve each other hits.
func diskTestProgram(seed int64) *ast.Program {
	return synth.MultiLoopProgram(synth.MultiParams{Seed: seed, Loops: 6, StmtsPer: 12, NestEvery: 3})
}

// entryFiles lists the cache entry files under a cache root (any schema).
func entryFiles(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDiskCacheWarmStart(t *testing.T) {
	ResetCache()
	dir := t.TempDir()
	prog := diskTestProgram(9001)
	opts := &Options{CacheDir: dir, Parallelism: 1}

	cold, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Metrics.DiskHits != 0 {
		t.Errorf("cold run DiskHits = %d, want 0", cold.Metrics.DiskHits)
	}
	if cold.Metrics.DiskStoreBytes == 0 {
		t.Error("cold run DiskStoreBytes = 0, want > 0 (write-behind missing)")
	}
	if files := entryFiles(t, dir); len(files) != cold.Metrics.CacheMisses {
		t.Errorf("entry files = %d, want one per miss (%d)", len(files), cold.Metrics.CacheMisses)
	}

	// Simulate a process restart: drop the in-memory memo, keep the disk.
	ResetCache()
	warm, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Metrics.DiskHits != cold.Metrics.CacheMisses {
		t.Errorf("warm run DiskHits = %d, want every memory miss served from disk (%d)",
			warm.Metrics.DiskHits, cold.Metrics.CacheMisses)
	}
	if warm.Metrics.DiskLoadBytes == 0 {
		t.Error("warm run DiskLoadBytes = 0, want > 0")
	}
	if warm.Metrics.DiskStoreBytes != 0 {
		t.Errorf("warm run DiskStoreBytes = %d, want 0 (nothing re-stored)", warm.Metrics.DiskStoreBytes)
	}
	if got, want := warm.Report(), cold.Report(); got != want {
		t.Errorf("warm report differs from cold:\n--- cold ---\n%s--- warm ---\n%s", want, got)
	}
}

// TestDiskCacheRobustness damages every stored entry in a different way and
// checks each damaged cache degrades to a cold solve with a byte-identical
// report — never a crash or a wrong answer.
func TestDiskCacheRobustness(t *testing.T) {
	prog := diskTestProgram(9002)
	ResetCache()
	pristine, err := Analyze(prog, &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := pristine.Report()

	damage := map[string]func(data []byte) []byte{
		"truncated":    func(d []byte) []byte { return d[:len(d)/2] },
		"empty":        func(d []byte) []byte { return nil },
		"flipped-byte": func(d []byte) []byte { d[len(d)/2] ^= 0x40; return d },
		"wrong-schema": func(d []byte) []byte { d[5] ^= 0xff; return d }, // schema field at offset 4..12
		"bad-magic":    func(d []byte) []byte { copy(d, "ZZZZ"); return d },
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := &Options{CacheDir: dir, Parallelism: 1}
			ResetCache()
			if _, err := Analyze(prog, opts); err != nil {
				t.Fatal(err)
			}
			files := entryFiles(t, dir)
			if len(files) == 0 {
				t.Fatal("no entries stored")
			}
			for _, f := range files {
				data, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(f, corrupt(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			ResetCache()
			before := DiskCacheStats()
			pa, err := Analyze(prog, opts)
			if err != nil {
				t.Fatalf("Analyze over damaged cache: %v", err)
			}
			if got := pa.Report(); got != want {
				t.Errorf("report over damaged cache differs from pristine:\n%s", got)
			}
			if pa.Metrics.DiskHits != 0 {
				t.Errorf("DiskHits = %d over damaged cache, want 0", pa.Metrics.DiskHits)
			}
			after := DiskCacheStats()
			if name != "empty" && after.Errors <= before.Errors {
				t.Errorf("Errors did not increase over damaged cache (%d -> %d)", before.Errors, after.Errors)
			}
			// The damaged entries were re-solved and re-stored; a second
			// warm start must now hit again.
			ResetCache()
			rewarm, err := Analyze(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rewarm.Metrics.DiskHits == 0 {
				t.Error("no disk hits after damaged entries were rewritten")
			}
			if got := rewarm.Report(); got != want {
				t.Errorf("re-warmed report differs from pristine")
			}
		})
	}
}

// TestDiskCacheConcurrentSharedDir runs many Analyze calls over one shared
// cache directory from concurrent goroutines with the memory memo dropped
// between rounds — the interleaving two processes sharing a directory
// produce (concurrent stores of the same entry, loads racing stores) — and
// checks every run reports identically.
func TestDiskCacheConcurrentSharedDir(t *testing.T) {
	dir := t.TempDir()
	prog := diskTestProgram(9003)
	ResetCache()
	base, err := Analyze(prog, &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := base.Report()

	for round := 0; round < 4; round++ {
		ResetCache() // cold memory, possibly-warm disk, every round
		var wg sync.WaitGroup
		reports := make([]string, 8)
		errs := make([]error, 8)
		for i := range reports {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				pa, err := Analyze(prog, &Options{CacheDir: dir, Parallelism: 2})
				if err != nil {
					errs[i] = err
					return
				}
				reports[i] = pa.Report()
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d goroutine %d: %v", round, i, err)
			}
			if reports[i] != want {
				t.Fatalf("round %d goroutine %d report differs", round, i)
			}
		}
	}
}

// TestDiskCacheDeterministicWarmStarts is the cross-process determinism
// check: 50 simulated restarts (memory dropped, disk kept) must each produce
// byte-identical output to the cold run.
func TestDiskCacheDeterministicWarmStarts(t *testing.T) {
	dir := t.TempDir()
	prog := diskTestProgram(9004)
	opts := &Options{CacheDir: dir, Parallelism: 1}
	ResetCache()
	cold, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := cold.Report()
	for i := 0; i < 50; i++ {
		ResetCache()
		pa, err := Analyze(prog, opts)
		if err != nil {
			t.Fatalf("warm start %d: %v", i, err)
		}
		if pa.Metrics.DiskHits == 0 {
			t.Fatalf("warm start %d: no disk hits", i)
		}
		if got := pa.Report(); got != want {
			t.Fatalf("warm start %d: report differs from cold run:\n%s", i, got)
		}
	}
}

// TestDiskCacheRootRemovedWhileRunning checks the persistent cache heals
// when its root is deleted under a running process (an operator clearing
// the cache): the next analysis re-creates the schema directory and stores
// every fresh solve, without a single disk error.
func TestDiskCacheRootRemovedWhileRunning(t *testing.T) {
	root := filepath.Join(t.TempDir(), "cache")
	ResetCache()
	if _, err := Analyze(diskTestProgram(9008), &Options{CacheDir: root, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(root); err != nil {
		t.Fatal(err)
	}
	ResetDiskCacheStats()
	pa, err := Analyze(diskTestProgram(9009), &Options{CacheDir: root, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds := DiskCacheStats()
	if ds.Errors != 0 {
		t.Errorf("disk errors = %d after the root was removed, want 0", ds.Errors)
	}
	if ds.Stores == 0 || ds.Stores != int64(pa.Metrics.CacheMisses) {
		t.Errorf("stores = %d, want one per miss (%d)", ds.Stores, pa.Metrics.CacheMisses)
	}
	if files := entryFiles(t, root); len(files) != pa.Metrics.CacheMisses {
		t.Errorf("entry files = %d, want %d", len(files), pa.Metrics.CacheMisses)
	}
}

// TestDiskCacheUnusableRoot checks a root that cannot be a directory
// disables the persistent cache without failing the analysis.
func TestDiskCacheUnusableRoot(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ResetCache()
	pa, err := Analyze(diskTestProgram(9005), &Options{CacheDir: file, Parallelism: 1})
	if err != nil {
		t.Fatalf("Analyze with unusable cache root: %v", err)
	}
	if pa.Metrics.DiskHits != 0 || pa.Metrics.DiskStoreBytes != 0 {
		t.Errorf("unusable root still produced disk traffic: %+v", pa.Metrics)
	}
}

// TestDiskCacheDisabledWithCache checks CacheDir is ignored under
// DisableCache (the fingerprint keys only exist on the cached path).
func TestDiskCacheDisabledWithCache(t *testing.T) {
	dir := t.TempDir()
	ResetCache()
	pa, err := Analyze(diskTestProgram(9006), &Options{CacheDir: dir, DisableCache: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pa.Metrics.DiskStoreBytes != 0 {
		t.Errorf("DisableCache run stored %d bytes, want 0", pa.Metrics.DiskStoreBytes)
	}
	if files := entryFiles(t, dir); len(files) != 0 {
		t.Errorf("DisableCache run left %d entry files", len(files))
	}
}

// TestDiskCacheEngineAndFuelSeparation checks runs under a different fuel
// budget never read each other's entries.
func TestDiskCacheEngineAndFuelSeparation(t *testing.T) {
	dir := t.TempDir()
	prog := diskTestProgram(9007)
	ResetCache()
	if _, err := Analyze(prog, &Options{CacheDir: dir, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	ResetCache()
	pa, err := Analyze(prog, &Options{CacheDir: dir, Parallelism: 1, Fuel: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if pa.Metrics.DiskHits != 0 {
		t.Errorf("fuel-budgeted run got %d disk hits from default-fuel entries", pa.Metrics.DiskHits)
	}
}

// TestDiskCacheReferenceEngineRoundTrip checks a persisted solve restores
// byte-identically: after a warm start from disk, every problem's rendered
// fixed point and init snapshot equal the cold solve's and the reference
// oracle's, and the whole-program report is unchanged.
func TestDiskCacheReferenceEngineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	prog := parser.MustParse(`
do i = 1, 100
  A[i+1] := A[i] + B[i]
  B[i+2] := A[i-1]
  C[i] := C[i-1] + 1
enddo
`)
	opts := &Options{CacheDir: dir, Specs: problems.StandardSpecs(), Parallelism: 1}
	ResetCache()
	cold, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	ResetCache()
	warm, err := Analyze(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Metrics.DiskHits == 0 {
		t.Fatal("no disk hits on warm start")
	}
	if warm.Report() != cold.Report() {
		t.Error("warm report differs from cold")
	}
	for _, spec := range opts.Specs {
		coldRes := cold.Loops[0].Result(spec.Name)
		warmRes := warm.Loops[0].Result(spec.Name)
		ref := reference.Solve(warmRes.Graph, spec, nil)
		for _, pass := range []int{-1, 0} {
			got, want := warmRes.TupleTable(pass), coldRes.TupleTable(pass)
			if got != want {
				t.Errorf("%s: restored table %d differs:\n%s\nwant:\n%s", spec.Name, pass, got, want)
			}
			if oracle := ref.TupleTable(pass); got != oracle {
				t.Errorf("%s: restored table %d differs from the oracle:\n%s\nwant:\n%s", spec.Name, pass, got, oracle)
			}
		}
	}
	if !strings.Contains(warm.Loops[0].Result("must-reaching-defs").TupleTable(-1), "A[i + 1]") {
		t.Error("restored table lost class headers")
	}
}

// TestDiskFormatPinsReuseLines pins the reuse lines disk entries store.
// They are a derivation (FindReuses, Reuse.WriteTo) frozen into users'
// cache directories, and the schema hash cannot see it change: without a
// generation bump, old entries would keep serving the old lines. The
// digest covers the own and with-respect-to lines of every
// examples/*.loop under the default specs and StandardSpecs.
func TestDiskFormatPinsReuseLines(t *testing.T) {
	h := fnv.New64a()
	for _, specs := range [][]*dataflow.Spec{nil, problems.StandardSpecs()} {
		for _, s := range ValidExamples(t) {
			pa, err := Analyze(mustLoad(t, s.Name, s.Src), &Options{Specs: specs, DisableCache: true, Parallelism: 1})
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			for _, la := range pa.Loops {
				fmt.Fprintf(h, "%s loop %s\x00%s", s.Name, la.Loop.Var, reuseLines(la.Reuses()))
				wrt := la.WRT()
				for _, iv := range sortedKeys(wrt) {
					fmt.Fprintf(h, "wrt %s\x00%s", iv, reuseLines(wrt[iv]))
				}
			}
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != reuseLinesDigest {
		t.Errorf("the reuse lines disk entries store changed (digest %s, recorded %s): bump diskFormatGeneration "+
			"and record the new digest in reuseLinesDigest (only the digest when just examples/ changed)", got, reuseLinesDigest)
	}
}

// storedPayloads analyzes every examples/*.loop with an empty cache
// directory and returns the payloads of the entries stored under specs'
// schema, in file-name order.
func storedPayloads(tb testing.TB, specs []*dataflow.Spec) [][]byte {
	tb.Helper()
	root := tb.TempDir()
	ResetCache()
	defer ResetCache()
	for _, s := range ValidExamples(tb) {
		if _, err := Analyze(mustLoad(tb, s.Name, s.Src), &Options{Specs: specs, NestVectors: true, CacheDir: root, Parallelism: 1}); err != nil {
			tb.Fatalf("%s: %v", s.Name, err)
		}
	}
	dc := openDiskCacheFor(root, specs)
	names, err := filepath.Glob(filepath.Join(dc.dir, "*"))
	if err != nil || len(names) == 0 {
		tb.Fatalf("no entries stored under %s (%v)", dc.dir, err)
	}
	var out [][]byte
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		var hi, lo uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "%016x%016x", &hi, &lo); err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		payload, err := cachefile.Decode(data, dc.schema, hi, lo)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		out = append(out, payload)
	}
	return out
}

// FuzzDiskEntry feeds the entry decoder arbitrary payloads, seeded with the
// entries analyzing examples/ stores under the default specs and under
// StandardSpecs. The decoder must not panic and must accept every seed.
// What it accepts it must have consumed whole — one byte more or less is
// rejected — and its reuse lines must be walkable: a report renders one
// line per '\n', each carrying the stored text after its prefix.
func FuzzDiskEntry(f *testing.F) {
	specSets := [][]*dataflow.Spec{{problems.MustReachingDefs()}, problems.StandardSpecs()}
	type seed struct {
		set     int
		payload string
	}
	seeds := map[seed]bool{}
	for i, specs := range specSets {
		for _, payload := range storedPayloads(f, specs) {
			f.Add(uint8(i), payload)
			seeds[seed{i, string(payload)}] = true
		}
	}
	f.Fuzz(func(t *testing.T, set uint8, payload []byte) {
		i := int(set) % len(specSets)
		specs := specSets[i]
		ent, ok := decodeEntry(payload, specs)
		if !ok {
			if seeds[seed{i, string(payload)}] {
				t.Fatal("a stored entry does not decode")
			}
			return
		}
		if len(ent.metas) != len(specs) || len(ent.blobs) != len(specs) {
			t.Fatalf("decoded %d metas and %d row blobs for %d specs", len(ent.metas), len(ent.blobs), len(specs))
		}
		if _, ok := decodeEntry(payload[:len(payload)-1], specs); ok {
			t.Error("accepted the payload without its last byte")
		}
		if _, ok := decodeEntry(append(payload[:len(payload):len(payload)], 0), specs); ok {
			t.Error("accepted the payload with a trailing byte")
		}
		sv := &solved{meta: ent.metas, stored: true, lines: ent.lines}
		var got strings.Builder
		sv.writeReuses(&got, "  reuse", "")
		var want strings.Builder
		for _, line := range strings.SplitAfter(string(ent.lines), "\n") {
			if line != "" {
				want.WriteString("  reuse: " + line)
			}
		}
		if got.String() != want.String() {
			t.Fatalf("rendered %q from the stored lines %q", got.String(), ent.lines)
		}
	})
}
