package driver

import (
	"sync"
	"testing"

	"repro/internal/ast"
)

// shardKey builds a memo key whose routing bits are i, so tests can steer
// keys to specific shards.
func shardKey(i int) memoKey {
	return memoKey{fp: ast.FP128{Hi: uint64(i), Lo: 0}}
}

// TestShardRoutingIsStable pins that a key always lands on the same shard
// and that distinct routing bits spread across distinct shards.
func TestShardRoutingIsStable(t *testing.T) {
	c := newShardedCache(defaultCacheCap)
	seen := map[*solveCache]bool{}
	for i := 0; i < cacheShards; i++ {
		k := shardKey(i)
		s := c.shardFor(k)
		if s != c.shardFor(k) {
			t.Fatalf("key %d: shard choice not stable", i)
		}
		seen[s] = true
	}
	if len(seen) != cacheShards {
		t.Fatalf("keys 0..%d spread over %d shards, want %d", cacheShards-1, len(seen), cacheShards)
	}
}

// TestShardedCapBound fills the table far past its bound and checks the
// total entry count never exceeds the requested cap, in both the split and
// the single-shard (small cap) modes.
func TestShardedCapBound(t *testing.T) {
	for _, cap := range []int{8, 16, 64, 200} {
		c := newShardedCache(cap)
		for i := 0; i < 4*cap; i++ {
			c.claim(shardKey(i*7 + 1))
			if entries, _, _ := c.stats(); entries > cap {
				t.Fatalf("cap %d: table grew to %d entries at insert %d", cap, entries, i)
			}
		}
	}
}

// TestShardedUnlimited removes the bound and checks nothing is evicted.
func TestShardedUnlimited(t *testing.T) {
	c := newShardedCache(-1)
	const n = 10_000
	for i := 0; i < n; i++ {
		c.claim(shardKey(i))
	}
	if entries, _, misses := c.stats(); entries != n || misses != n {
		t.Fatalf("unbounded cache: %d entries / %d misses, want %d/%d", entries, misses, n, n)
	}
}

// TestShardedDeterministicMissCount claims k distinct keys from many
// goroutines concurrently: exactly k misses must be tallied no matter how
// claims interleave, because each shard counts under its own lock and the
// singleflight cell is created exactly once per key.
func TestShardedDeterministicMissCount(t *testing.T) {
	const keys, claimers = 64, 8
	c := newShardedCache(-1)
	var wg sync.WaitGroup
	for g := 0; g < claimers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				c.claim(shardKey(i))
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

// TestCacheShardStatsSumsToCacheStats checks the per-shard breakdown adds
// up to the global tallies after real driver traffic.
func TestCacheShardStatsSumsToCacheStats(t *testing.T) {
	ResetCache()
	defer ResetCache()
	for _, p := range corpusPrograms(t)[:8] {
		if _, err := Analyze(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	entries, hits, misses := CacheStats()
	var se, sh, sm int
	shards := CacheShardStats()
	if len(shards) != cacheShards {
		t.Fatalf("CacheShardStats returned %d shards, want %d", len(shards), cacheShards)
	}
	for _, s := range shards {
		se += s.Entries
		sh += s.Hits
		sm += s.Misses
	}
	if se != entries || sh != hits || sm != misses {
		t.Fatalf("shard sums %d/%d/%d != global stats %d/%d/%d", se, sh, sm, entries, hits, misses)
	}
	if entries == 0 || misses == 0 {
		t.Fatal("corpus traffic left no cache footprint")
	}
}
