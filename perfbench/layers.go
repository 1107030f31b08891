package main

import (
	"time"

	"repro/internal/explore"
)

// Per-layer metrics, printed by the traced run. A layer that a workload
// does not reach reports zero work and zero time there.
var layerMetrics = []metricDef{
	{"core.embodied_term_us", "us", "lower"},
	{"core.operational_us", "us", "lower"},
	{"core.total_us", "us", "lower"},

	{"explore.reduce_ms", "ms", "lower"},
	{"explore.stream_ms", "ms", "lower"},
	{"explore.evaluations", "count", "lower"},
	{"explore.cache_hit_ratio", "ratio", "higher"},
	{"explore.embodied_evaluations", "count", "lower"},
	{"explore.embodied_reuse_ratio", "ratio", "higher"},
	{"explore.block_candidates", "count", "higher"},
	{"explore.block_runs", "count", "lower"},
	{"explore.stencils", "count", "lower"},
	{"explore.evictions", "count", "lower"},
	{"explore.peak_in_flight", "count", "lower"},
	{"explore.allocs_per_cand", "count", "lower"},
	{"explore.bytes_per_cand", "B", "lower"},

	{"reduce.fold_ns", "ns", "lower"},
	{"reduce.merge_us", "us", "lower"},
	{"reduce.shards_merged", "count", "lower"},
	{"reduce.sink_ns", "ns", "lower"},

	{"optimize.evaluations", "count", "lower"},
	{"optimize.bound_probes", "count", "lower"},
	{"optimize.prunes", "count", "higher"},
	{"optimize.charged_ratio", "ratio", "lower"},
	{"optimize.pruned_block_ratio", "ratio", "higher"},

	{"server.evaluate_handler_us", "us", "lower"},
	{"server.batch_handler_us", "us", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.profile_hit_ratio", "ratio", "higher"},
	{"server.rejected", "count", "lower"},
	{"http.transport_us", "us", "lower"},

	{"wire.decode_us", "us", "lower"},
	{"wire.encode_us", "us", "lower"},
	{"wire.response_bytes", "B", "lower"},

	{"jobs.queue_wait_ms", "ms", "lower"},
	{"jobs.store_append_us", "us", "lower"},
	{"jobs.store_appends", "count", "lower"},
	{"jobs.store_bytes", "B", "lower"},

	{"dist.dispatch_ms", "ms", "lower"},
	{"dist.replica_ms", "ms", "lower"},
	{"dist.transport_ms", "ms", "lower"},
	{"dist.request_bytes", "B", "lower"},
	{"dist.response_bytes", "B", "lower"},
	{"dist.chunks", "count", "lower"},
	{"dist.retries", "count", "lower"},
	{"dist.reassignments", "count", "lower"},
	{"dist.local_fallbacks", "count", "lower"},
	{"dist.useful_ratio", "ratio", "higher"},

	{"runtime.gc_cpu_ratio", "ratio", "lower"},
	{"runtime.sched_latency_p90_us", "us", "lower"},
	{"gen.late_p50_ms", "ms", "lower"},
	{"gen.late_p90_ms", "ms", "lower"},

	{"error_rate", "ratio", "lower"},
	{"overhead.setup_s", "ratio", "lower"},
	{"overhead.cand_per_s", "ratio", "higher"},
	{"overhead.primary_p50_ms", "ratio", "lower"},
	{"overhead.secondary_p50_ms", "ratio", "lower"},
	{"overhead.live_heap_peak_mb", "ratio", "lower"},
}

// newLayers returns a per-layer map with every metric present.
func newLayers() map[string]float64 {
	m := make(map[string]float64, len(layerMetrics))
	for _, d := range layerMetrics {
		m[d.Name] = 0
	}
	return m
}

// cacheHitRatio is the share of evaluation requests the memo answered;
// base: hits + computed evaluations.
func cacheHitRatio(st explore.Stats) ratio {
	return ratio{num: float64(st.CacheHits), base: float64(st.CacheHits + st.Evaluations)}
}

// embodiedReuseRatio is the share of embodied-term requests answered
// without recomputing the embodied model; base: reused + computed.
func embodiedReuseRatio(st explore.Stats) ratio {
	return ratio{num: float64(st.EmbodiedCacheHits), base: float64(st.EmbodiedCacheHits + st.EmbodiedEvaluations)}
}

// statsDelta is b − a for the engine counters that accumulate.
func statsDelta(a, b explore.Stats) explore.Stats {
	return explore.Stats{
		Evaluations:         b.Evaluations - a.Evaluations,
		CacheHits:           b.CacheHits - a.CacheHits,
		Evictions:           b.Evictions - a.Evictions,
		EmbodiedEvaluations: b.EmbodiedEvaluations - a.EmbodiedEvaluations,
		EmbodiedCacheHits:   b.EmbodiedCacheHits - a.EmbodiedCacheHits,
		EmbodiedEvictions:   b.EmbodiedEvictions - a.EmbodiedEvictions,
		BlockCandidates:     b.BlockCandidates - a.BlockCandidates,
		BlockRuns:           b.BlockRuns - a.BlockRuns,
		BlockStencils:       b.BlockStencils - a.BlockStencils,
		SequencerBypassed:   b.SequencerBypassed - a.SequencerBypassed,
		ShardsMerged:        b.ShardsMerged - a.ShardsMerged,
	}
}

// addStats accumulates engine counter deltas.
func addStats(acc *explore.Stats, d explore.Stats) {
	acc.Evaluations += d.Evaluations
	acc.CacheHits += d.CacheHits
	acc.Evictions += d.Evictions
	acc.EmbodiedEvaluations += d.EmbodiedEvaluations
	acc.EmbodiedCacheHits += d.EmbodiedCacheHits
	acc.BlockCandidates += d.BlockCandidates
	acc.BlockRuns += d.BlockRuns
	acc.BlockStencils += d.BlockStencils
	acc.ShardsMerged += d.ShardsMerged
}

// putEngineLayers records the explore counters of a phase.
func putEngineLayers(l map[string]float64, st explore.Stats) {
	l["explore.evaluations"] = float64(st.Evaluations)
	l["explore.cache_hit_ratio"] = cacheHitRatio(st).value()
	l["explore.embodied_evaluations"] = float64(st.EmbodiedEvaluations)
	l["explore.embodied_reuse_ratio"] = embodiedReuseRatio(st).value()
	l["explore.block_candidates"] = float64(st.BlockCandidates)
	l["explore.block_runs"] = float64(st.BlockRuns)
	l["explore.stencils"] = float64(st.BlockStencils)
	l["explore.evictions"] = float64(st.Evictions)
}

// putRuntimeLayers records the runtime's share of a phase; allocations are
// per candidate (base: candidates evaluated in the phase).
func putRuntimeLayers(l map[string]float64, d rtDelta, cands int) {
	l["runtime.gc_cpu_ratio"] = d.gcCPU.value()
	l["runtime.sched_latency_p90_us"] = d.schedP90 * 1e6
	l["explore.allocs_per_cand"] = ratio{num: d.allocObjs, base: float64(cands)}.value()
	l["explore.bytes_per_cand"] = ratio{num: d.allocBytes, base: float64(cands)}.value()
}

// timedReducer wraps a reducer and times its folds and merges. Each shard
// is folded by one goroutine, so a shard keeps plain counters and hands
// them to its parent when merged.
type timedReducer struct {
	r               explore.Reducer
	folds, foldNS   int64
	merges, mergeNS int64
}

func (t *timedReducer) Fold(r explore.Result) {
	t0 := time.Now()
	t.r.Fold(r)
	t.foldNS += int64(time.Since(t0))
	t.folds++
}

func (t *timedReducer) NewShard() explore.Reducer { return &timedReducer{r: t.r.NewShard()} }

func (t *timedReducer) MergeShard(o explore.Reducer) {
	s := o.(*timedReducer)
	t0 := time.Now()
	t.r.MergeShard(s.r)
	t.mergeNS += int64(time.Since(t0))
	t.merges++
	t.folds += s.folds
	t.foldNS += s.foldNS
}

// reducerSet is the TopK + FrontierReducer + RunningStats trio every
// exploration workload folds into.
type reducerSet struct {
	top   *explore.TopK
	front *explore.FrontierReducer
	stats *explore.RunningStats
}

func newReducerSet(k int) reducerSet {
	return reducerSet{explore.NewTopK(k), explore.NewFrontierReducer(), &explore.RunningStats{}}
}

func (s reducerSet) list() []explore.Reducer { return []explore.Reducer{s.top, s.front, s.stats} }

// add feeds one result to all three reducers; it is an ordered
// explore.Sink.
func (s reducerSet) add(r explore.Result) error {
	s.top.Add(r)
	s.front.Add(r)
	s.stats.Add(r)
	return nil
}
