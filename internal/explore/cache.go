// The sharded memoization cache: a power-of-two array of independently
// locked LRU shards keyed by the 128-bit evaluation hash. Sharding removes
// the single global lock the worker pool used to serialize on — with ~µs
// evaluations, one mutex saturates around a handful of cores; per-shard
// locks keep the hot path embarrassingly parallel.
package explore

import (
	"runtime"
	"sync"
)

// memoShard is one independently locked segment. The cache is generic over
// the entry type — the engine keeps two instances, one of whole evaluations
// (memoEntry) and one of embodied sub-terms (embodiedEntry).
//
// Bounded shards are an exact LRU linked through slice indices: memo maps a
// key to its node in nodes, and the nodes form a doubly linked list from
// head (most recently used) to tail. memo holds no pointers, so the GC never
// scans it; nodes grows by doubling up to limit and, once full, a miss reuses
// the tail node in place. A miss therefore allocates only its entry.
// Entries themselves are never recycled: a Result or an in-flight once.Do
// may still hold an evicted one.
//
// Unbounded shards (limit ≤ 0) skip the list entirely — a plain
// keyPair → entry map with entries carved from slabs — because nothing is
// ever evicted, which removes the per-insert allocation and the relink per
// hit from the hot path of unbounded engines (CLIs, benchmarks).
type memoShard[E any] struct {
	mu         sync.Mutex
	memo       map[keyPair]int32 // bounded mode: key → index into nodes
	nodes      []lruNode[E]      // bounded mode
	head, tail int32             // bounded mode: MRU and LRU node, -1 when empty
	plain      map[keyPair]*E    // unbounded mode
	slab       []E               // unbounded mode: chunked entry storage
	limit      int               // ≤0 = unbounded

	// pad spaces shards apart so their mutexes do not false-share one
	// cache line under cross-core contention.
	_ [40]byte
}

// lruNode is one bounded-shard slot: the memo key (so eviction can delete
// the map entry), the memoized value and its list neighbours (-1 = none).
// Indices are int32, which caps a shard at 2³¹-1 entries — far past any
// memory a cache of reports could occupy.
type lruNode[E any] struct {
	key        keyPair
	ent        *E
	prev, next int32
}

// shardSlab is how many entries an unbounded shard allocates at a time:
// entries live exactly as long as the cache (nothing is ever evicted), so
// carving them from chunks trades one allocation per insert for one per
// chunk. Pointers into the slab are stable — the slice is only resliced
// forward, never grown.
const shardSlab = 64

// memoCache routes keys to shards by the low hash bits.
type memoCache[E any] struct {
	shards []memoShard[E]
	mask   uint64
}

// newMemoCache sizes the shard array: enough shards to spread GOMAXPROCS
// workers (capped at 16 — beyond that the lock is off the profile), but
// never so many that a small CacheLimit degenerates into per-shard limits
// of a handful of entries. limit ≤ 0 means unbounded; shards > 0 forces an
// explicit count (rounded up to a power of two).
func newMemoCache[E any](limit, shards int) *memoCache[E] {
	n := shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
		if n > 16 {
			n = 16
		}
		// A bounded cache needs ≥64 entries per shard for per-shard LRU to
		// approximate global LRU; degrade to fewer shards, not worse reuse.
		for n > 1 && limit > 0 && limit/n < 64 {
			n /= 2
		}
	}
	// Round up to a power of two for mask routing; a bounded cache never
	// gets more shards than entries, so the per-shard limits below stay
	// ≥ 1 while summing to exactly the global bound.
	p := 1
	for p < n {
		p <<= 1
	}
	for limit > 0 && p > limit {
		p >>= 1
	}
	c := &memoCache[E]{shards: make([]memoShard[E], p), mask: uint64(p - 1)}
	for i := range c.shards {
		s := &c.shards[i]
		if limit > 0 {
			s.memo = make(map[keyPair]int32)
			s.head, s.tail = -1, -1
			// Distribute the global bound; the first shards take the
			// remainder so the per-shard limits sum to exactly limit.
			s.limit = limit / p
			if i < limit%p {
				s.limit++
			}
		} else {
			s.plain = make(map[keyPair]*E)
		}
	}
	return c
}

func (c *memoCache[E]) shard(key keyPair) *memoShard[E] {
	return &c.shards[key.lo&c.mask]
}

// reserve pre-sizes the unbounded shards for about n upcoming insertions,
// so a cold stream of known length pays no incremental map growth or
// rehashing on the hot path. A cold-start hint only: shards that already
// hold entries are left alone, as are bounded shards (their resident size
// is capped by limit).
func (c *memoCache[E]) reserve(n int) {
	if n <= 0 {
		return
	}
	per := n/len(c.shards) + 1
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		if s.limit <= 0 && len(s.plain) == 0 {
			s.plain = make(map[keyPair]*E, per)
		}
		s.mu.Unlock()
	}
}

// get returns the memo entry for key, inserting a fresh one on miss.
// hit reports whether the entry already existed; evicted is the number of
// entries dropped to keep the shard inside its limit.
func (c *memoCache[E]) get(key keyPair) (ent *E, hit bool, evicted int) {
	s := c.shard(key)
	s.mu.Lock()
	if s.limit <= 0 {
		ent, hit = s.plain[key]
		if !hit {
			if len(s.slab) == 0 {
				s.slab = make([]E, shardSlab)
			}
			ent = &s.slab[0]
			s.slab = s.slab[1:]
			s.plain[key] = ent
		}
		s.mu.Unlock()
		return ent, hit, 0
	}
	ent, hit, evicted = s.lruGet(key)
	s.mu.Unlock()
	return ent, hit, evicted
}

// getBatch is get over a key column: ents[i] and hits[i] are filled for
// every keys[i], with each shard's lock taken once per call instead of
// once per key — the block kernel probes a whole run in one sweep. A
// bounded shard sees its keys in input order, so hits, evictions and LRU
// order are those of one get per key.
func (c *memoCache[E]) getBatch(keys []keyPair, ents []*E, hits []bool) (evicted int) {
	if c.shards[0].limit > 0 {
		for si := range c.shards {
			s := &c.shards[si]
			s.mu.Lock()
			for i, k := range keys {
				if k.lo&c.mask != uint64(si) {
					continue
				}
				var ev int
				ents[i], hits[i], ev = s.lruGet(k)
				evicted += ev
			}
			s.mu.Unlock()
		}
		return evicted
	}
	for si := range c.shards {
		s := &c.shards[si]
		s.mu.Lock()
		for i, k := range keys {
			if k.lo&c.mask != uint64(si) {
				continue
			}
			ent, hit := s.plain[k]
			if !hit {
				if len(s.slab) == 0 {
					s.slab = make([]E, shardSlab)
				}
				ent = &s.slab[0]
				s.slab = s.slab[1:]
				s.plain[k] = ent
			}
			ents[i], hits[i] = ent, hit
		}
		s.mu.Unlock()
	}
	return 0
}

// lruGet is the bounded lookup; the caller holds s.mu. A hit moves the
// node to the front. A miss appends a node while the shard is below its
// limit and otherwise evicts the tail and reuses its node for key.
func (s *memoShard[E]) lruGet(key keyPair) (ent *E, hit bool, evicted int) {
	if i, ok := s.memo[key]; ok {
		if i != s.head {
			s.unlink(i)
			s.pushFront(i)
		}
		return s.nodes[i].ent, true, 0
	}
	ent = new(E)
	var i int32
	if len(s.nodes) < s.limit {
		if len(s.nodes) == cap(s.nodes) {
			// Double, but stop at the limit: append's own growth would
			// overshoot a full shard by up to a quarter.
			grown := make([]lruNode[E], len(s.nodes), min(max(2*len(s.nodes), 8), s.limit))
			copy(grown, s.nodes)
			s.nodes = grown
		}
		i = int32(len(s.nodes))
		s.nodes = append(s.nodes, lruNode[E]{key: key, ent: ent})
	} else {
		i = s.tail
		s.unlink(i)
		delete(s.memo, s.nodes[i].key)
		s.nodes[i].key, s.nodes[i].ent = key, ent
		evicted = 1
	}
	s.memo[key] = i
	s.pushFront(i)
	return ent, false, evicted
}

// unlink detaches node i from the list.
func (s *memoShard[E]) unlink(i int32) {
	n := &s.nodes[i]
	if n.prev >= 0 {
		s.nodes[n.prev].next = n.next
	} else {
		s.head = n.next
	}
	if n.next >= 0 {
		s.nodes[n.next].prev = n.prev
	} else {
		s.tail = n.prev
	}
}

// pushFront links the detached node i in as the most recently used.
func (s *memoShard[E]) pushFront(i int32) {
	n := &s.nodes[i]
	n.prev, n.next = -1, s.head
	if s.head >= 0 {
		s.nodes[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// entries sums the resident entry counts across shards.
func (c *memoCache[E]) entries() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.memo) + len(s.plain)
		s.mu.Unlock()
	}
	return total
}

// count returns the number of shards (for stats and tests).
func (c *memoCache[E]) count() int { return len(c.shards) }
