package explore

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/split"
)

func TestMemoCacheShardSizing(t *testing.T) {
	cases := []struct {
		limit, shards int
		wantPow2      bool
		wantOne       bool
	}{
		{limit: 0, shards: 0, wantPow2: true},
		{limit: 3, shards: 0, wantOne: true},   // tiny bound → exact global LRU
		{limit: 100, shards: 0, wantOne: true}, // <64/shard at 2 shards
		{limit: 1 << 16, shards: 0, wantPow2: true},
		{limit: 0, shards: 5, wantPow2: true},  // explicit count rounds up
		{limit: 8, shards: 16, wantPow2: true}, // explicit count capped by the bound
	}
	for i, c := range cases {
		mc := newMemoCache[memoEntry](c.limit, c.shards)
		n := mc.count()
		if n&(n-1) != 0 || n == 0 {
			t.Errorf("case %d: %d shards is not a power of two", i, n)
		}
		if c.wantOne && n != 1 {
			t.Errorf("case %d: got %d shards, want 1", i, n)
		}
		if c.shards == 5 && n != 8 {
			t.Errorf("explicit 5 shards should round to 8, got %d", n)
		}
		if c.limit > 0 {
			sum := 0
			for j := range mc.shards {
				sum += mc.shards[j].limit
				if mc.shards[j].limit < 1 {
					t.Errorf("case %d: shard %d has limit %d", i, j, mc.shards[j].limit)
				}
			}
			if sum != c.limit {
				t.Errorf("case %d: shard limits sum to %d, want %d", i, sum, c.limit)
			}
		}
	}
}

// lruDesigns builds n distinct single-die designs cheap enough to hammer.
// Distinctness comes from the gate count — a model input — because names
// are labels and no longer key the cache.
func lruDesigns(t testing.TB, n int) []*design.Design {
	t.Helper()
	out := make([]*design.Design, n)
	for i := range out {
		d, err := split.Mono2D(split.Chip{Name: fmt.Sprintf("shard%d", i), ProcessNM: 7,
			Gates: 1e9 + 1e6*float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d
	}
	return out
}

// Counter exactness under concurrency: every lookup is exactly one hit or
// one evaluation, and entries + evictions account for every insertion —
// whatever the interleaving. Run with -race in CI.
func TestShardedCacheCountersExact(t *testing.T) {
	const (
		distinct   = 300
		limit      = 128
		goroutines = 8
		rounds     = 4
	)
	e := &Engine{Model: core.Default(), Workers: 4, CacheLimit: limit, CacheShards: 8}
	designs := lruDesigns(t, distinct)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Overlapping slices so goroutines collide on shared keys.
				lo := (g * distinct / goroutines) % distinct
				cands := make([]Candidate, 0, distinct/2)
				for i := lo; i < lo+distinct/2; i++ {
					cands = append(cands, Candidate{
						ID:     designs[i%distinct].Name,
						Design: designs[i%distinct],
					})
				}
				if _, err := e.Evaluate(context.Background(), cands); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := e.Stats()
	lookups := uint64(goroutines * rounds * distinct / 2)
	if st.Evaluations+st.CacheHits != lookups {
		t.Errorf("evaluations %d + hits %d != lookups %d",
			st.Evaluations, st.CacheHits, lookups)
	}
	if st.CacheEntries > limit {
		t.Errorf("cache holds %d entries over limit %d", st.CacheEntries, limit)
	}
	if st.Evaluations-uint64(st.CacheEntries) != st.Evictions {
		t.Errorf("evictions %d != evaluations %d - entries %d",
			st.Evictions, st.Evaluations, st.CacheEntries)
	}
	if st.CacheShards != 8 {
		t.Errorf("CacheShards = %d, want 8", st.CacheShards)
	}
}

// A sharded bounded cache must stay inside its global limit and keep
// serving hits for a hot working set smaller than the limit.
func TestShardedCacheBoundAndReuse(t *testing.T) {
	e := &Engine{Model: core.Default(), Workers: 1, CacheLimit: 64, CacheShards: 4}
	cold := lruDesigns(t, 200)
	for _, d := range cold {
		if _, err := e.Evaluate(context.Background(),
			[]Candidate{{ID: d.Name, Design: d}}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.CacheEntries > 64 {
		t.Errorf("entries %d over limit 64", st.CacheEntries)
	}
	if st.Evictions == 0 {
		t.Error("no evictions despite 200 inserts into a 64-entry cache")
	}

	// A small hot set cycled repeatedly must stabilize to pure hits.
	hot := lruDesigns(t, 8)
	cands := make([]Candidate, len(hot))
	for i, d := range hot {
		cands[i] = Candidate{ID: d.Name, Design: d}
	}
	if _, err := e.Evaluate(context.Background(), cands); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	for i := 0; i < 5; i++ {
		if _, err := e.Evaluate(context.Background(), cands); err != nil {
			t.Fatal(err)
		}
	}
	after := e.Stats()
	if after.Evaluations != before.Evaluations {
		t.Errorf("hot set recomputed: %d -> %d evals", before.Evaluations, after.Evaluations)
	}
	if after.CacheHits != before.CacheHits+5*uint64(len(hot)) {
		t.Errorf("expected %d hits, got %d", before.CacheHits+5*uint64(len(hot)), after.CacheHits)
	}
}

// The streaming path allocates O(1) per candidate: with a warm cache and
// one worker, a full sweep through a 1620-candidate space must stay under
// a pinned per-candidate allocation budget. This is the CI gate for the
// zero-materialization property — a regression that starts building
// per-candidate designs or keys again blows the budget immediately.
func TestStreamAllocsPerCandidateBounded(t *testing.T) {
	s := streamBenchSpace()
	e := &Engine{Model: core.Default(), Workers: 1}
	sweep := func() {
		ranked := NewTopK(10)
		frontier := NewFrontierReducer()
		if _, err := e.Stream(context.Background(), s, func(r Result) error {
			ranked.Add(r)
			frontier.Add(r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	sweep() // warm the memo cache and reducer internals

	n := float64(s.Size())
	perCandidate := testing.AllocsPerRun(3, sweep) / n
	t.Logf("allocs per candidate: %.3f (space %d)", perCandidate, int(n))
	// Steady state costs ~1 allocation per candidate (its ID string) plus
	// amortized slab/template/block costs. 2.5 gives headroom for map and
	// pool noise while staying an order of magnitude below the
	// materializing pipeline's ~10+.
	if perCandidate > 2.5 {
		t.Errorf("streaming allocates %.2f allocs/candidate, budget 2.5", perCandidate)
	}
}

// The factored COLD path is gated too: a fresh engine streaming the
// multi-location bench space must stay under a pinned per-candidate
// allocation budget and strictly under the monolithic path's — the
// factorization must save the embodied-model allocations it claims to.
func TestStreamFactoredColdAllocsBounded(t *testing.T) {
	s := streamBenchSpace()
	m := core.Default()
	sweep := func(monolithic bool) func() {
		return func() {
			e := &Engine{Model: m, Workers: 1, monolithic: monolithic}
			ranked := NewTopK(10)
			frontier := NewFrontierReducer()
			if _, err := e.Stream(context.Background(), s, func(r Result) error {
				ranked.Add(r)
				frontier.Add(r)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	n := float64(s.Size())
	factored := testing.AllocsPerRun(3, sweep(false)) / n
	monolithic := testing.AllocsPerRun(3, sweep(true)) / n
	t.Logf("cold allocs per candidate: factored %.2f, monolithic %.2f", factored, monolithic)
	// Measured ~4.8 factored vs ~12.9 monolithic; 7 leaves noise headroom
	// while still catching a regression that re-materializes embodied
	// reports per candidate.
	if factored > 7 {
		t.Errorf("factored cold stream allocates %.2f allocs/candidate, budget 7", factored)
	}
	if factored >= monolithic {
		t.Errorf("factored path allocates %.2f/candidate, not below monolithic %.2f",
			factored, monolithic)
	}
}

// A full bounded cache allocates only the entry of a miss: the node of the
// evicted tail is reused in place, and a hit relinks without allocating —
// for single gets and for batches alike.
func TestBoundedCacheAllocs(t *testing.T) {
	const (
		limit = 4096
		batch = 64
	)
	c := newMemoCache[memoEntry](limit, 0)
	next := uint64(0)
	keys := make([]keyPair, batch)
	ents := make([]*memoEntry, batch)
	hits := make([]bool, batch)
	fresh := func() {
		for i := range keys {
			keys[i] = seqKey(next)
			next++
		}
	}
	for c.entries() < limit {
		fresh()
		c.getBatch(keys, ents, hits)
	}

	evicted := 0
	getMiss := testing.AllocsPerRun(1000, func() {
		_, hit, ev := c.get(seqKey(next))
		next++
		if hit {
			t.Fatal("fresh key hit")
		}
		evicted += ev
	})
	batchMiss := testing.AllocsPerRun(100, func() {
		fresh()
		evicted += c.getBatch(keys, ents, hits)
	}) / batch
	if want := 1001 + 101*batch; evicted != want {
		t.Errorf("evicted %d on a full cache, want one per miss (%d)", evicted, want)
	}
	// keys holds the last batch, now the most recently used entries.
	hot := keys[0]
	getHit := testing.AllocsPerRun(1000, func() {
		if _, hit, _ := c.get(hot); !hit {
			t.Fatal("resident key missed")
		}
	})
	batchHit := testing.AllocsPerRun(100, func() {
		c.getBatch(keys, ents, hits)
		for _, hit := range hits {
			if !hit {
				t.Fatal("resident batch missed")
			}
		}
	}) / batch
	t.Logf("allocs: get miss %.2f hit %.2f; getBatch per key miss %.2f hit %.2f",
		getMiss, getHit, batchMiss, batchHit)
	if getMiss > 1 || batchMiss > 1 {
		t.Errorf("evicting miss allocates get %.2f, getBatch %.2f per key; budget 1", getMiss, batchMiss)
	}
	if getHit != 0 || batchHit != 0 {
		t.Errorf("hit allocates get %.2f, getBatch %.2f per key; budget 0", getHit, batchHit)
	}
}
