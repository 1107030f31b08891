package explore

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/ic"
	"repro/internal/split"
	"repro/internal/units"
	"repro/internal/workload"
)

// benchSpace is a ≥500-candidate space: 15 strategy×technology points ×
// 4 nodes × 3 design sizes × 3 use grids = 540 candidates.
func benchSpace() Space {
	return Space{
		Name:          "bench",
		Strategies:    []split.Strategy{split.HomogeneousStrategy, split.HeterogeneousStrategy},
		NodesNM:       []int{5, 7, 10, 14},
		Gates:         []float64{5e9, 17e9, 35e9},
		UseLocations:  []grid.Location{grid.USA, grid.Europe, grid.India},
		LifetimeYears: []float64{10},
	}
}

// BenchmarkSerialLoop is the pre-engine reference: the hand-rolled serial
// loop every seed command used, with no memoization and no concurrency.
func BenchmarkSerialLoop(b *testing.B) {
	m := core.Default()
	cands, err := benchSpace().Enumerate()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(cands)), "candidates")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			tot, err := m.Total(c.Design, c.Workload, c.Eff)
			if err != nil {
				continue // over-wafer candidates, as in the seed sweeps
			}
			if c.Baseline != nil {
				if _, err := m.Total(c.Baseline, c.Workload, c.Eff); err != nil {
					b.Fatal(err)
				}
			}
			_ = tot
		}
	}
}

// BenchmarkEngine measures the exploration engine across worker counts on
// the same space (cold cache every iteration). On a 4+ core machine the
// NumCPU rows show the near-linear speedup over workers=1; on any machine
// the workers=1 row already beats BenchmarkSerialLoop through the
// memoization cache alone (540 candidates share 2D baselines and repeated
// sub-designs).
func BenchmarkEngine(b *testing.B) {
	cands, err := benchSpace().Enumerate()
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2, 4, runtime.NumCPU()}
	for _, workers := range counts {
		if workers > runtime.NumCPU() {
			continue
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportMetric(float64(len(cands)), "candidates")
			for i := 0; i < b.N; i++ {
				e := &Engine{Model: core.Default(), Workers: workers}
				if _, err := e.Evaluate(context.Background(), cands); err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					st := e.Stats()
					b.ReportMetric(float64(st.Evaluations), "evals")
					b.ReportMetric(float64(st.CacheHits), "cache_hits")
				}
			}
		})
	}
}

// BenchmarkEngineWarm measures re-evaluation of an already-explored space:
// the fully-memoized path the CLI tools hit when one engine serves several
// related studies.
func BenchmarkEngineWarm(b *testing.B) {
	cands, err := benchSpace().Enumerate()
	if err != nil {
		b.Fatal(err)
	}
	e := New(core.Default())
	if _, err := e.Evaluate(context.Background(), cands); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Evaluate(context.Background(), cands); err != nil {
			b.Fatal(err)
		}
	}
}

// fullBoundedCache returns a bounded cache of 65,536 entries — the
// serving default — filled in 64-key batches, and the key that comes next.
func fullBoundedCache() (*memoCache[memoEntry], uint64) {
	const limit, batch = 1 << 16, 64
	c := newMemoCache[memoEntry](limit, 0)
	keys := make([]keyPair, batch)
	ents := make([]*memoEntry, batch)
	hits := make([]bool, batch)
	next := uint64(0)
	for next < limit {
		for i := range keys {
			keys[i] = seqKey(next)
			next++
		}
		c.getBatch(keys, ents, hits)
	}
	return c, next
}

// BenchmarkMemoCacheBoundedChurn probes a full bounded cache with 64-key
// batches of never-seen keys: every key misses and evicts the shard's
// least recently used entry. One op is one batch; ns/key is the per-key
// cost.
func BenchmarkMemoCacheBoundedChurn(b *testing.B) {
	c, next := fullBoundedCache()
	keys := make([]keyPair, 64)
	ents := make([]*memoEntry, len(keys))
	hits := make([]bool, len(keys))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := range keys {
			keys[i] = seqKey(next)
			next++
		}
		c.getBatch(keys, ents, hits)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/key")
}

// BenchmarkMemoCacheBoundedHit probes a full bounded cache with 64-key
// batches of resident keys, cycling through the whole resident set: every
// key hits and moves to the front of its shard. One op is one batch.
func BenchmarkMemoCacheBoundedHit(b *testing.B) {
	c, next := fullBoundedCache()
	resident := make([]keyPair, c.entries())
	for i := range resident {
		resident[i] = seqKey(next - uint64(len(resident)) + uint64(i))
	}
	const batch = 64
	ents := make([]*memoEntry, batch)
	hits := make([]bool, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		lo := n * batch % len(resident)
		c.getBatch(resident[lo:lo+batch], ents, hits)
	}
	b.StopTimer()
	for _, hit := range hits {
		if !hit {
			b.Fatal("resident key missed")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
}

// streamBenchSpace widens benchSpace with a lifetime axis: 1620 candidates
// over 192 distinct designs — the regime the streaming pipeline's
// amortized decode targets (many axis points per design template).
func streamBenchSpace() Space {
	s := benchSpace()
	s.LifetimeYears = []float64{5, 10, 15}
	return s
}

// legacyEnumerate is the pre-streaming materializing enumerator, preserved
// verbatim as the benchmark baseline (the BenchmarkSerialLoop pattern): one
// fresh design and one fmt-built ID per candidate, appended into a slice.
func legacyEnumerate(s Space) ([]Candidate, error) {
	out := make([]Candidate, 0, s.Size())
	for _, gates := range s.gates() {
		for _, nm := range s.nodes() {
			for _, fab := range s.fabs() {
				for _, use := range s.uses() {
					chip := split.Chip{
						Name:        fmt.Sprintf("%s-n%d-g%.4gB", s.name(), nm, gates/1e9),
						ProcessNM:   nm,
						Gates:       gates,
						FabLocation: fab,
						UseLocation: use,
					}
					base, err := split.Mono2D(chip)
					if err != nil {
						return nil, err
					}
					for _, years := range s.lifetimes() {
						w := workload.AVPipeline(units.TOPS(s.peak()))
						w.LifetimeYears = years
						for si, strat := range s.strategies() {
							for _, integ := range s.integrations() {
								if integ == ic.Mono2D && si > 0 {
									continue
								}
								d, err := split.Divide(chip, integ, strat)
								if err != nil {
									return nil, err
								}
								c := Candidate{
									ID: fmt.Sprintf("%s/%s>%s/%s/%gy/%s",
										chip.Name, fab, use, strat, years, integ),
									Design:   d,
									Workload: w,
									Eff:      s.eff(),
								}
								if integ != ic.Mono2D {
									c.Baseline = base
								}
								out = append(out, c)
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// The legacy baseline must stay equivalent to the iterator-backed
// Enumerate, or the benchmark comparison is meaningless.
func TestLegacyEnumerateMatches(t *testing.T) {
	s := streamBenchSpace()
	want, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := legacyEnumerate(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d candidates, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("candidate %d: ID %q != %q", i, got[i].ID, want[i].ID)
		}
		if got[i].Design.Name != want[i].Design.Name ||
			got[i].Design.Integration != want[i].Design.Integration ||
			got[i].Design.FabLocation != want[i].Design.FabLocation ||
			got[i].Design.UseLocation != want[i].Design.UseLocation ||
			len(got[i].Design.Dies) != len(want[i].Design.Dies) {
			t.Fatalf("candidate %d: designs differ", i)
		}
		if got[i].Workload != want[i].Workload {
			t.Fatalf("candidate %d: workloads differ", i)
		}
	}
}

// BenchmarkExplore is the materializing pipeline the streaming engine
// replaces: enumerate the full candidate slice, evaluate it into a full
// result slice, then rank and take the frontier through ResultSet. Compare
// bytes/op and allocs/op against BenchmarkStreamExplore (same space, same
// warm engine): the acceptance target is ≥5x lower on both for streaming.
func BenchmarkExplore(b *testing.B) {
	s := streamBenchSpace()
	e := New(core.Default())
	warm, err := legacyEnumerate(s)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Evaluate(context.Background(), warm); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := legacyEnumerate(s)
		if err != nil {
			b.Fatal(err)
		}
		results, err := e.Evaluate(context.Background(), cands)
		if err != nil {
			b.Fatal(err)
		}
		rs := &ResultSet{Space: s, Results: results}
		ranked := rs.Ranked()
		if len(ranked) > 10 {
			ranked = ranked[:10]
		}
		if len(ranked) == 0 || len(rs.Frontier()) == 0 {
			b.Fatal("empty ranking or frontier")
		}
	}
	b.ReportMetric(float64(len(warm)), "candidates")
}

// streamOnce runs one full streamed exploration with the standard reducers
// (the BenchmarkStreamExplore loop body) and returns the stream stats.
func streamOnce(b *testing.B, e *Engine, s Space) StreamStats {
	b.Helper()
	ranked := NewTopK(10)
	frontier := NewFrontierReducer()
	st, err := e.Stream(context.Background(), s, func(r Result) error {
		ranked.Add(r)
		frontier.Add(r)
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if len(ranked.Results()) == 0 || frontier.Size() == 0 {
		b.Fatal("empty ranking or frontier")
	}
	return st
}

// BenchmarkStreamExploreMonolithic is the term-factorization baseline: the
// multi-location stream space evaluated cold (fresh caches every
// iteration) with factorization disabled, so every candidate recomputes
// the whole embodied model — the PR 3 pipeline's behaviour on a fresh
// sweep. Compare ns/op against BenchmarkStreamExploreFactored (same space,
// same cold-cache regime); CI gates the ratio at ≥2×.
func BenchmarkStreamExploreMonolithic(b *testing.B) {
	s := streamBenchSpace()
	m := core.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &Engine{Model: m, monolithic: true}
		streamOnce(b, e, s)
	}
	b.ReportMetric(float64(s.Size()), "candidates")
}

// BenchmarkStreamExploreFactored is the term-factorized pipeline on the
// same cold multi-location space: each distinct embodied term is computed
// once per stream (plan slots + embodied cache) and only the operational
// term fans across the 3 use locations × 3 lifetimes.
func BenchmarkStreamExploreFactored(b *testing.B) {
	s := streamBenchSpace()
	m := core.Default()
	b.ReportAllocs()
	b.ResetTimer()
	var st StreamStats
	for i := 0; i < b.N; i++ {
		e := &Engine{Model: m}
		st = streamOnce(b, e, s)
	}
	b.ReportMetric(float64(s.Size()), "candidates")
	b.ReportMetric(float64(st.EmbodiedMisses), "embodied_terms")
	b.ReportMetric(float64(st.EmbodiedHits), "embodied_reuses")
}

// fanoutBenchSpace is the cold operational fan-out regime the columnar
// block kernel targets: a handful of embodied terms (15 strategy ×
// integration pairs × 2 nodes, one design size) fanned across 8 use
// grids × 6 lifetimes — 1,440 candidates over 30 distinct embodied
// terms, the thousands-of-near-identical-candidates shape optimizer
// loops and Monte Carlo samplers produce.
func fanoutBenchSpace() Space {
	return Space{
		Name:       "fanout",
		Strategies: []split.Strategy{split.HomogeneousStrategy, split.HeterogeneousStrategy},
		NodesNM:    []int{5, 7},
		Gates:      []float64{17e9},
		UseLocations: []grid.Location{
			grid.USA, grid.Europe, grid.India, grid.China,
			grid.California, grid.Norway, grid.WorldAverage, grid.Renewable,
		},
		LifetimeYears: []float64{3, 5, 7, 10, 12, 15},
	}
}

// BenchmarkStreamExploreScalar is the block kernel's performance
// baseline: the same cold fan-out space through the scalar streaming
// pipeline — one candidate at a time, the whole model per candidate, no
// term machinery (the PR 3 pipeline). CI gates
// BenchmarkStreamExploreBlock at ≥3× this. The intermediate
// term-factorized scalar path sits between the two (its own CI gate
// pins it at ≥2× monolithic) and doubles as the kernel's bit-exactness
// oracle: TestBlockKernelMatchesScalar and FuzzBlockVsScalar diff the
// kernel against Engine.ScalarOnly, and
// TestPlannedStreamMatchesMonolithic ties that path to this baseline.
func BenchmarkStreamExploreScalar(b *testing.B) {
	s := fanoutBenchSpace()
	m := core.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &Engine{Model: m, ScalarOnly: true, monolithic: true}
		streamOnce(b, e, s)
	}
	b.ReportMetric(float64(s.Size()), "candidates")
}

// BenchmarkStreamExploreScalarFactored is the factored scalar oracle on
// the fan-out space — the exact per-candidate path the differential
// tests compare the kernel against, benchmarked for transparency (the
// kernel's win over it is the columnar batching alone, not term reuse).
func BenchmarkStreamExploreScalarFactored(b *testing.B) {
	s := fanoutBenchSpace()
	m := core.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &Engine{Model: m, ScalarOnly: true}
		streamOnce(b, e, s)
	}
	b.ReportMetric(float64(s.Size()), "candidates")
}

// BenchmarkStreamExploreBlock is the columnar kernel on the same cold
// fan-out space: one operational stencil per (template, fab) completes
// every (use, lifetime) variant with a memo probe, a struct stamp and two
// float ops. Outputs are bit-identical to the scalar baseline
// (TestBlockKernelMatchesScalar, FuzzBlockVsScalar).
func BenchmarkStreamExploreBlock(b *testing.B) {
	s := fanoutBenchSpace()
	m := core.Default()
	b.ReportAllocs()
	b.ResetTimer()
	var st StreamStats
	for i := 0; i < b.N; i++ {
		e := &Engine{Model: m}
		st = streamOnce(b, e, s)
	}
	b.ReportMetric(float64(s.Size()), "candidates")
	b.ReportMetric(float64(st.BlockCandidates), "block_candidates")
	if st.BlockCandidates != s.Size() {
		b.Fatalf("block kernel evaluated %d of %d candidates", st.BlockCandidates, s.Size())
	}
}

// BenchmarkStreamExplore runs the same space through the streaming
// pipeline with online reducers: no candidate slice, no result slice, no
// sort copies — O(K + frontier) retention.
func BenchmarkStreamExplore(b *testing.B) {
	s := streamBenchSpace()
	e := New(core.Default())
	// Same warm-cache regime as BenchmarkExplore.
	if _, err := e.Explore(context.Background(), s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var peak int
	for i := 0; i < b.N; i++ {
		ranked := NewTopK(10)
		frontier := NewFrontierReducer()
		st, err := e.Stream(context.Background(), s, func(r Result) error {
			ranked.Add(r)
			frontier.Add(r)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(ranked.Results()) == 0 || frontier.Size() == 0 {
			b.Fatal("empty ranking or frontier")
		}
		peak = st.PeakInFlight
	}
	b.ReportMetric(float64(s.Size()), "candidates")
	b.ReportMetric(float64(peak), "peak_in_flight")
}

// benchReduceWorkers fixes the worker count for the ordered-vs-sharded
// reduce pair: both paths drive the same number of evaluation goroutines
// on any host, so the measured gap is the delivery machinery alone —
// sequencer hand-off versus fold-local-and-merge.
const benchReduceWorkers = 4

// reduceOnce is streamOnce's consumer shape on the sequencer-free path:
// the same standard reducers, folded shard-locally and merged at the end.
func reduceOnce(b *testing.B, e *Engine, s Space) StreamStats {
	b.Helper()
	ranked := NewTopK(10)
	frontier := NewFrontierReducer()
	st, err := e.Reduce(context.Background(), s, ranked, frontier)
	if err != nil {
		b.Fatal(err)
	}
	if len(ranked.Results()) == 0 || frontier.Size() == 0 {
		b.Fatal("empty ranking or frontier")
	}
	return st
}

// BenchmarkStreamReduceOrdered is the sequencer baseline for the reduce
// fast path: the cold fan-out space folded into the standard reducers
// through the ordered Stream, where every block crosses the sequencer's
// mutex, pending map and run-ahead window before the sink may fold it.
// CI gates BenchmarkStreamReduceSharded against this ratio.
func BenchmarkStreamReduceOrdered(b *testing.B) {
	s := fanoutBenchSpace()
	m := core.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &Engine{Model: m, Workers: benchReduceWorkers}
		streamOnce(b, e, s)
	}
	b.ReportMetric(float64(s.Size()), "candidates")
}

// BenchmarkStreamReduceSharded is the sequencer-free path on the same
// cold space and worker count: workers fold static contiguous shards into
// local reducers, merged once at the end — no cross-goroutine Result
// hand-off at all. Final reducer states are bit-identical to the ordered
// baseline (TestReduceMatchesStreamOracle).
func BenchmarkStreamReduceSharded(b *testing.B) {
	s := fanoutBenchSpace()
	m := core.Default()
	b.ReportAllocs()
	b.ResetTimer()
	var st StreamStats
	for i := 0; i < b.N; i++ {
		e := &Engine{Model: m, Workers: benchReduceWorkers}
		st = reduceOnce(b, e, s)
	}
	b.ReportMetric(float64(s.Size()), "candidates")
	b.ReportMetric(float64(st.ShardsMerged), "shards_merged")
	if st.ShardsMerged == 0 {
		b.Fatal("reduce did not take the sharded path")
	}
}
