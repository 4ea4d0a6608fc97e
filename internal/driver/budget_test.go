package driver

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
)

// checkCharges fails unless the table's byte count is the sum of its
// resident entries' charges and fits the budget.
func checkCharges(t *testing.T, label string, c *solveCache) {
	t.Helper()
	var sum int64
	for _, e := range c.entries {
		sum += e.bytes
	}
	if c.bytes != sum {
		t.Fatalf("%s: table counts %d bytes, its entries hold %d", label, c.bytes, sum)
	}
	if c.budget > 0 && c.bytes > c.budget {
		t.Fatalf("%s: %d bytes held over the %d-byte budget", label, c.bytes, c.budget)
	}
}

// TestMemoBudgetNeverExceeded drives a small-budget table through random
// claims, publishes, second charges (a disk-loaded value building its
// parts) and charges to entries evicted while in flight: after every
// publish the bytes fit the budget, and they always equal the sum of the
// resident entries' charges, so every eviction credited exactly what it
// charged.
func TestMemoBudgetNeverExceeded(t *testing.T) {
	for _, cap := range []int{-1, 8} {
		rng := rand.New(rand.NewSource(int64(cap)))
		c := newSolveCache(cap)
		c.budget = 1000
		type claimed struct {
			key memoKey
			e   *cacheEntry
		}
		var pending, published []claimed
		for step := 0; step < 20_000; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				key := fpKey(rng.Intn(300))
				if e, hit := c.claim(key); !hit {
					pending = append(pending, claimed{key, e})
				}
			case op < 8 && len(pending) > 0:
				i := rng.Intn(len(pending))
				p := pending[i]
				pending = append(pending[:i], pending[i+1:]...)
				before, resident := c.bytes, c.entries[p.key] == p.e
				n := int64(rng.Intn(400))
				c.charge(p.key, p.e, n)
				if !resident && c.bytes != before {
					t.Fatalf("step %d: an entry evicted in flight was charged", step)
				}
				published = append(published, p)
			case len(published) > 0:
				p := published[rng.Intn(len(published))]
				c.charge(p.key, p.e, int64(rng.Intn(200)))
			}
			checkCharges(t, "random", c)
			if cap > 0 && len(c.entries) > cap {
				t.Fatalf("step %d: %d entries over the cap of %d", step, len(c.entries), cap)
			}
		}
		// A value larger than the whole budget evicts everything, itself
		// included.
		key := fpKey(1 << 20)
		e, _ := c.claim(key)
		c.charge(key, e, 5000)
		checkCharges(t, "oversized", c)
		if len(c.entries) != 0 {
			t.Errorf("cap %d: %d entries survive a value over the budget", cap, len(c.entries))
		}
		c.reset()
		checkCharges(t, "reset", c)
	}
}

// TestMemoBudgetHoldsOverBatchCold analyzes 60 distinct bundles of the
// batch-cold shapes through one memo, without a reset, the way a long
// batch process would: the bytes it holds never exceed the budget (so the
// budget evicts), the count equals its entries' charges, and every report
// equals the memo-free one.
func TestMemoBudgetHoldsOverBatchCold(t *testing.T) {
	ResetCache()
	defer ResetCache()
	var most int64
	for b := 0; b < 60; b++ {
		progs := make([]*ast.Program, len(batchColdShapes))
		for i, sh := range batchColdShapes {
			progs[i] = sh.program(t, int64(7000+b*len(batchColdShapes)+i))
		}
		for i, r := range AnalyzeBatch(progs, &Options{Parallelism: 2}) {
			if r.Err != nil {
				t.Fatalf("bundle %d program %d: %v", b, i, r.Err)
			}
			want, err := Analyze(progs[i], &Options{DisableCache: true, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Analysis.Report(); got != want.Report() {
				t.Fatalf("bundle %d program %d: memoized report differs from the memo-free one:\n%s\nwant:\n%s", b, i, got, want.Report())
			}
		}
		globalCache.mu.Lock()
		checkCharges(t, "batch-cold", globalCache)
		most = max(most, globalCache.bytes)
		globalCache.mu.Unlock()
	}
	entries, _, misses := CacheStats()
	t.Logf("held at most %.1f MB of the %d MB budget; %d entries resident after %d solves", float64(most)/(1<<20), memoBudget>>20, entries, misses)
	if misses == entries {
		t.Error("nothing was evicted: the bundles never reached the budget")
	}
}
