package explore

import (
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// listLRU is the container/list shard the bounded cache was built on before
// its nodes were linked through slice indices: a map of list elements plus
// a doubly linked list, front = most recently used. It is kept as the
// differential oracle for the index-linked LRU, so it tracks keys only.
type listLRU struct {
	memo  map[keyPair]*list.Element // → keyPair
	lru   *list.List
	limit int
}

func newListLRU(limit int) *listLRU {
	return &listLRU{memo: make(map[keyPair]*list.Element), lru: list.New(), limit: limit}
}

// get touches key: a hit moves it to the front, a miss pushes it there and
// evicts from the back until the shard is inside its limit.
func (s *listLRU) get(key keyPair) (hit bool, evicted int) {
	if el, ok := s.memo[key]; ok {
		s.lru.MoveToFront(el)
		return true, 0
	}
	s.memo[key] = s.lru.PushFront(key)
	for len(s.memo) > s.limit {
		back := s.lru.Back()
		delete(s.memo, back.Value.(keyPair))
		s.lru.Remove(back)
		evicted++
	}
	return false, evicted
}

// order lists the resident keys from most to least recently used.
func (s *listLRU) order() []keyPair {
	out := make([]keyPair, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(keyPair))
	}
	return out
}

// lruOrder walks a bounded shard from head to tail, checking the back links
// and the map on the way, and returns the resident keys MRU → LRU.
func (s *memoShard[E]) lruOrder(t *testing.T) []keyPair {
	t.Helper()
	var out []keyPair
	prev := int32(-1)
	for i := s.head; i >= 0; i = s.nodes[i].next {
		n := &s.nodes[i]
		if n.prev != prev {
			t.Fatalf("node %d: prev %d, want %d", i, n.prev, prev)
		}
		if j, ok := s.memo[n.key]; !ok || j != i {
			t.Fatalf("node %d: key %v maps to %d (present %v)", i, n.key, j, ok)
		}
		out = append(out, n.key)
		prev = i
		if len(out) > len(s.nodes) {
			t.Fatal("cycle in the LRU list")
		}
	}
	if s.tail != prev {
		t.Fatalf("tail %d, want %d", s.tail, prev)
	}
	if len(out) != len(s.memo) {
		t.Fatalf("list holds %d keys, map %d", len(out), len(s.memo))
	}
	return out
}

// oracleEntry records which key an entry was handed out for.
type oracleEntry struct {
	once sync.Once
	key  keyPair
}

// claim binds ent to key on its first use and reports whether ent belongs
// to key — an entry handed out for one key must never come back for
// another.
func (ent *oracleEntry) claim(key keyPair) bool {
	ent.once.Do(func() { ent.key = key })
	return ent.key == key
}

// seqKey is the i-th of a sequence of distinct keys whose low bits spread
// them across every shard.
func seqKey(i uint64) keyPair {
	return keyPair{hi: i*0x9e3779b97f4a7c15 + 1, lo: i * 0xbf58476d1ce4e5b9}
}

// traceKey draws a key from the first universe keys of seqKey.
func traceKey(rng *rand.Rand, universe int) keyPair {
	return seqKey(uint64(rng.Intn(universe)))
}

// The index-linked LRU must make exactly the decisions of the list LRU it
// replaced: per access the same hit and eviction, and after every step the
// same resident set in the same MRU → LRU order in every shard. Traces mix
// single gets and batches, with duplicate keys inside a batch.
func TestBoundedCacheMatchesListOracle(t *testing.T) {
	for _, limit := range []int{1, 3, 64, 1000} {
		for _, shards := range []int{1, 2, 16} {
			t.Run(fmt.Sprintf("limit=%d/shards=%d", limit, shards), func(t *testing.T) {
				c := newMemoCache[oracleEntry](limit, shards)
				oracle := make([]*listLRU, c.count())
				for i := range oracle {
					oracle[i] = newListLRU(c.shards[i].limit)
				}
				rng := rand.New(rand.NewSource(int64(limit*31 + shards)))
				universe := 2*limit + 8
				owner := make(map[*oracleEntry]keyPair)
				// check replays one access on the oracle, compares the hit
				// and the entry's identity, and returns the oracle's
				// eviction count for the caller to compare.
				check := func(key keyPair, ent *oracleEntry, hit bool) int {
					t.Helper()
					wantHit, wantEv := oracle[key.lo&c.mask].get(key)
					if hit != wantHit {
						t.Fatalf("key %v: hit %v, oracle %v", key, hit, wantHit)
					}
					if k, seen := owner[ent]; seen && k != key {
						t.Fatalf("entry %p handed out for %v and %v", ent, k, key)
					}
					owner[ent] = key
					if !ent.claim(key) {
						t.Fatalf("key %v got the entry of %v", key, ent.key)
					}
					return wantEv
				}
				keys := make([]keyPair, 0, 96)
				ents := make([]*oracleEntry, 96)
				hits := make([]bool, 96)
				for step := 0; step < 400; step++ {
					if rng.Intn(3) == 0 {
						key := traceKey(rng, universe)
						ent, hit, ev := c.get(key)
						if want := check(key, ent, hit); ev != want {
							t.Fatalf("key %v: evicted %d, oracle %d", key, ev, want)
						}
					} else {
						keys = keys[:0]
						for n := 1 + rng.Intn(96); len(keys) < n; {
							if len(keys) > 0 && rng.Intn(5) == 0 {
								keys = append(keys, keys[rng.Intn(len(keys))])
							} else {
								keys = append(keys, traceKey(rng, universe))
							}
						}
						evicted := c.getBatch(keys, ents[:len(keys)], hits[:len(keys)])
						// Shards are independent, so one oracle get per key
						// in input order is what the batch must match.
						wantEv := 0
						for i, k := range keys {
							wantEv += check(k, ents[i], hits[i])
						}
						if evicted != wantEv {
							t.Fatalf("batch evicted %d, oracle %d", evicted, wantEv)
						}
					}
					for si := range oracle {
						got := c.shards[si].lruOrder(t)
						want := oracle[si].order()
						if !slices.Equal(got, want) {
							t.Fatalf("step %d shard %d: order %v, oracle %v", step, si, got, want)
						}
					}
				}
				if c.entries() > limit {
					t.Fatalf("%d entries over limit %d", c.entries(), limit)
				}
			})
		}
	}
}

// The concurrent variant, for -race: goroutines hammer one small bounded
// cache with gets and batches over shared keys. Every entry handed out must
// belong to the key it was handed out for, and misses, evictions and the
// resident count must account for one another exactly.
func TestBoundedCacheConcurrentOracle(t *testing.T) {
	const (
		limit      = 96
		universe   = 400
		goroutines = 6
		steps      = 300
	)
	c := newMemoCache[oracleEntry](limit, 4)
	var misses, evictions, accesses atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			keys := make([]keyPair, 32)
			ents := make([]*oracleEntry, 32)
			hits := make([]bool, 32)
			record := func(key keyPair, ent *oracleEntry, hit bool) {
				if !ent.claim(key) {
					t.Errorf("key %v got the entry of %v", key, ent.key)
				}
				accesses.Add(1)
				if !hit {
					misses.Add(1)
				}
			}
			for step := 0; step < steps; step++ {
				if step%2 == 0 {
					key := traceKey(rng, universe)
					ent, hit, ev := c.get(key)
					evictions.Add(int64(ev))
					record(key, ent, hit)
					continue
				}
				for i := range keys {
					keys[i] = traceKey(rng, universe)
				}
				evictions.Add(int64(c.getBatch(keys, ents, hits)))
				for i, k := range keys {
					record(k, ents[i], hits[i])
				}
			}
		}(g)
	}
	wg.Wait()

	if want := int64(goroutines * steps / 2 * 33); accesses.Load() != want {
		t.Fatalf("%d accesses, want %d", accesses.Load(), want)
	}
	if got := int64(c.entries()); misses.Load()-evictions.Load() != got {
		t.Errorf("misses %d - evictions %d != entries %d", misses.Load(), evictions.Load(), got)
	}
	if c.entries() != limit {
		t.Errorf("%d entries after %d misses, want the full %d", c.entries(), misses.Load(), limit)
	}
	for si := range c.shards {
		if got := len(c.shards[si].lruOrder(t)); got != c.shards[si].limit {
			t.Errorf("shard %d holds %d keys, limit %d", si, got, c.shards[si].limit)
		}
	}
}
