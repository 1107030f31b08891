package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/optimize"
)

// Workload sizes. A distinct Reduce pass is distinctGatesN × 9 nodes ×
// distinctFabsN fabs × 15 strategy/integration pairs candidates; the
// optimizer's space adds 9 use grids × optYearsN lifetimes to design axes
// of the same kind. A reuse pass is 30 designs × 9 use grids × reuseYearsN
// lifetimes.
const (
	distinctGatesN = 24
	distinctFabsN  = 3
	optGatesN      = 24
	optFabsN       = 3
	optYearsN      = 20
	reuseYearsN    = 220
	topK           = 10
	setupRepeats   = 31
	// reduceShare is the part of a distinct run spent on Reduce passes;
	// the rest runs the optimizer.
	reduceShare = 0.6
)

// digest fingerprints a reducer trio by its snapshot bytes.
func digest(s reducerSet) (string, error) {
	h := sha256.New()
	for _, snap := range []func() ([]byte, error){s.top.Snapshot, s.front.Snapshot, s.stats.Snapshot} {
		b, err := snap()
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// timedSet wraps every reducer of s for the traced run; plain returns s's
// reducers unwrapped.
func timedSet(s reducerSet, traced bool) ([]explore.Reducer, []*timedReducer) {
	if !traced {
		return s.list(), nil
	}
	var ws []*timedReducer
	var rs []explore.Reducer
	for _, r := range s.list() {
		w := &timedReducer{r: r}
		ws = append(ws, w)
		rs = append(rs, w)
	}
	return rs, ws
}

type distinctState struct {
	model    *core.Model
	red, opt explore.Space
	redSize  int
}

func setupDistinct(e *env) (distinctState, error) {
	st := distinctState{
		model: core.Default(),
		red:   distinctSpace(e.rng("distinct"), "distinct", distinctGatesN, distinctFabsN),
		opt:   optimizeSpace(optGatesN, optFabsN, optYearsN),
	}
	st.redSize = st.red.Size()
	// Warm-up: one pass of each phase, so code paths, the allocator and
	// lazily built tables are warm before timing.
	if _, err := explore.New(st.model).Reduce(context.Background(), st.red, newReducerSet(topK).list()...); err != nil {
		return st, err
	}
	if _, err := optimize.Run(context.Background(), explore.New(st.model), st.opt,
		optimize.Options{Driver: optimize.Halving, Seed: 1}); err != nil {
		return st, err
	}
	return st, nil
}

// runDistinct: Reduce passes on fresh engines over a space of distinct
// designs, then optimizer runs on fresh engines over a larger one.
func runDistinct(e *env, dur time.Duration, tr *tracer) (*result, error) {
	st, setupS, err := timedSetup(setupRepeats, func() (distinctState, error) { return setupDistinct(e) },
		func(distinctState) {})
	if err != nil {
		return nil, fmt.Errorf("distinct set-up: %w", err)
	}
	ctx := context.Background()
	res := &result{e2e: map[string]float64{"setup_s": setupS}}
	traced := tr != nil

	hp := startHeapPeak()
	rt0 := readRuntime()
	var (
		passes     samples
		digests    = map[string]int{}
		folds      int64
		foldNS     int64
		merges     int64
		mergeNS    int64
		shards     int
		cands      int
		redPasses  int
		firstStats explore.Stats
	)
	phase0 := time.Now()
	redEnd := phase0.Add(time.Duration(reduceShare * float64(dur)))
	for first := true; first || time.Now().Before(redEnd); first = false {
		eng := explore.New(st.model)
		set := newReducerSet(topK)
		rs, ws := timedSet(set, traced)
		sp := tr.begin("explore.reduce", fmt.Sprint("pass-", redPasses), -1)
		t0 := time.Now()
		ss, err := eng.Reduce(ctx, st.red, rs...)
		d := time.Since(t0)
		tr.end(sp)
		res.attempted++
		redPasses++
		if err != nil {
			res.failed++
			res.problem("reduce pass: %v", err)
			continue
		}
		passes.addDur(d)
		cands += ss.Candidates
		shards += ss.ShardsMerged
		s := eng.Stats()
		if redPasses == 1 {
			firstStats = s
		}
		for _, w := range ws {
			folds, foldNS, merges, mergeNS = folds+w.folds, foldNS+w.foldNS, merges+w.merges, mergeNS+w.mergeNS
		}
		dg, err := digest(set)
		if err != nil {
			return nil, err
		}
		digests[dg]++
	}
	redWall := time.Since(phase0)
	rt1 := readRuntime()

	var (
		optRuns  samples
		optStats optimize.Stats
		best     *optimize.Result
	)
	optEnd := phase0.Add(dur)
	for first := true; first || time.Now().Before(optEnd); first = false {
		eng := explore.New(st.model)
		sp := tr.begin("optimize.run", fmt.Sprint("opt-", optRuns.n()), -1)
		t0 := time.Now()
		r, err := optimize.Run(ctx, eng, st.opt, optimize.Options{Driver: optimize.Halving, Seed: 1})
		d := time.Since(t0)
		tr.end(sp)
		res.attempted++
		if err != nil || !r.Stats.Complete || !r.Found {
			res.failed++
			res.problem("optimize run: err=%v complete=%v", err, r != nil && r.Stats.Complete)
			continue
		}
		optRuns.addDur(d)
		if best == nil {
			best, optStats = r, r.Stats
		} else if r.Best.Candidate.ID != best.Best.Candidate.ID ||
			math.Float64bits(r.Best.Total()) != math.Float64bits(best.Best.Total()) {
			res.problem("optimize runs disagree: %s vs %s", r.Best.Candidate.ID, best.Best.Candidate.ID)
		}
	}
	heap := hp.done()
	rt2 := readRuntime()

	res.e2e["cand_per_s"] = float64(cands) / redWall.Seconds()
	res.e2e["primary_p50_ms"] = passes.pctMS(50)
	res.e2e["secondary_p50_ms"] = optRuns.pctMS(50)
	res.e2e["live_heap_peak_mb"] = heap
	res.note("cand_per_s", "1/s", res.e2e["cand_per_s"], fmt.Sprintf("Reduce phase, %d candidates per pass", st.redSize))
	res.note("reduce_pass_p50_ms", "ms", passes.pctMS(50), fmt.Sprintf("n=%d", passes.n()))
	res.note("reduce_pass_p90_ms", "ms", passes.pctMS(90), tailNote(passes.n()))
	res.note("optimize_s", "s", optRuns.pct(50)/1e9, fmt.Sprintf("n=%d, space %d candidates", optRuns.n(), st.opt.Size()))

	// Correctness: every pass agrees with the scalar, ordered oracle, and
	// the optimizer's proven optimum is the enumerated TopK(1).
	want, err := oracleStreamDigest(st.model, st.red)
	if err != nil {
		return nil, err
	}
	checkDigests(res, "distinct", e.seed, digests, want)
	if best != nil {
		if err := checkOptimum(res, st.model, st.opt, best); err != nil {
			return nil, err
		}
	}

	if traced {
		l := newLayers()
		l["explore.reduce_ms"] = passes.pctMS(50)
		putEngineLayers(l, firstStats)
		putRuntimeLayers(l, rt1.to(rt2), cands)
		l2 := rt0.to(rt1)
		l["explore.allocs_per_cand"] = ratio{num: l2.allocObjs, base: float64(cands)}.value()
		l["explore.bytes_per_cand"] = ratio{num: l2.allocBytes, base: float64(cands)}.value()
		rtAll := rt0.to(rt2)
		l["runtime.gc_cpu_ratio"] = rtAll.gcCPU.value()
		l["runtime.sched_latency_p90_us"] = rtAll.schedP90 * 1e6
		l["reduce.fold_ns"] = ratio{num: float64(foldNS), base: float64(folds)}.value()
		l["reduce.merge_us"] = ratio{num: float64(mergeNS) / 1e3, base: float64(merges)}.value()
		l["reduce.shards_merged"] = ratio{num: float64(shards), base: float64(redPasses)}.value()
		l["optimize.evaluations"] = float64(optStats.Evaluations)
		l["optimize.bound_probes"] = float64(optStats.BoundProbes)
		l["optimize.prunes"] = float64(optStats.Prunes)
		l["optimize.charged_ratio"] = chargedRatio(optStats).value()
		l["optimize.pruned_block_ratio"] = prunedBlockRatio(optStats).value()
		if err := putCoreLayers(l, e, st.model); err != nil {
			return nil, err
		}
		res.layers = l
		res.spans = tr.snapshot()
	}
	return res, nil
}

// chargedRatio is the share of the space the optimizer charged model work
// for; base: space size.
func chargedRatio(st optimize.Stats) ratio {
	return ratio{num: float64(st.Evaluations + st.BoundProbes), base: float64(st.SpaceSize)}
}

// prunedBlockRatio is the share of blocks pruned by bound; base: blocks.
func prunedBlockRatio(st optimize.Stats) ratio {
	return ratio{num: float64(st.PrunedBlocks), base: float64(st.Blocks)}
}

// tailNote states the sample count behind a percentile and the highest
// percentile the ten-samples-beyond rule allows.
func tailNote(n int) string {
	if p, ok := tailPercentile(n); ok {
		return fmt.Sprintf("n=%d, highest reportable percentile p%g", n, p)
	}
	return fmt.Sprintf("n=%d, fewer than %d samples beyond the median", n, minBeyond)
}

// oracleStreamDigest folds the space through the scalar kernel and the
// ordered stream: neither the block kernel nor the sharded reduce.
func oracleStreamDigest(m *core.Model, s explore.Space) (string, error) {
	eng := explore.New(m)
	eng.ScalarOnly = true
	set := newReducerSet(topK)
	if _, err := eng.Stream(context.Background(), s, set.add); err != nil {
		return "", err
	}
	return digest(set)
}

// oracleReduceDigest folds the space through the scalar kernel and the
// sharded reduce: neither the block kernel nor the ordered stream.
func oracleReduceDigest(m *core.Model, s explore.Space) (string, error) {
	eng := explore.New(m)
	eng.ScalarOnly = true
	set := newReducerSet(topK)
	if _, err := eng.Reduce(context.Background(), s, set.list()...); err != nil {
		return "", err
	}
	return digest(set)
}

func checkDigests(res *result, what string, seed int64, got map[string]int, want string) {
	for dg, n := range got {
		if dg != want {
			res.problem("%s: %d passes produced digest %s, oracle %s", what, n, dg, want)
			res.failed += n
		}
	}
	if d, ok := recordedDigest(what, seed); ok && d != want {
		res.problem("%s: oracle digest %s differs from the recorded %s", what, want, d)
	}
}

// checkOptimum compares the optimizer's proven optimum with the enumerated
// TopK(1) of the same space.
func checkOptimum(res *result, m *core.Model, s explore.Space, got *optimize.Result) error {
	top := explore.NewTopK(1)
	if _, err := explore.New(m).Reduce(context.Background(), s, top); err != nil {
		return err
	}
	want := top.Results()
	if len(want) != 1 {
		res.problem("optimize: enumerated space has no successful candidate")
		return nil
	}
	if want[0].Candidate.ID != got.Best.Candidate.ID ||
		math.Float64bits(want[0].Total()) != math.Float64bits(got.Best.Total()) {
		res.problem("optimize: proven optimum %s (%v kg) differs from enumerated %s (%v kg)",
			got.Best.Candidate.ID, got.Best.Total(), want[0].Candidate.ID, want[0].Total())
	}
	return nil
}

type reuseState struct {
	model *core.Model
	space explore.Space
	size  int
}

func setupReuse(e *env) (reuseState, error) {
	st := reuseState{model: core.Default(), space: reuseSpace(e.rng("reuse"), reuseYearsN)}
	st.size = st.space.Size()
	set := newReducerSet(topK)
	_, err := explore.New(st.model).Stream(context.Background(), st.space, set.add)
	return st, err
}

// runReuse: ordered Stream passes on fresh engines over a space whose
// embodied terms are nearly all reused; the sink feeds the reducers.
func runReuse(e *env, dur time.Duration, tr *tracer) (*result, error) {
	st, setupS, err := timedSetup(setupRepeats, func() (reuseState, error) { return setupReuse(e) },
		func(reuseState) {})
	if err != nil {
		return nil, fmt.Errorf("reuse set-up: %w", err)
	}
	ctx := context.Background()
	res := &result{e2e: map[string]float64{"setup_s": setupS}}
	traced := tr != nil

	hp := startHeapPeak()
	rt0 := readRuntime()
	var (
		passes, heads samples
		digests       = map[string]int{}
		firstStats    explore.Stats
		sinkNS, sinks int64
		peakInFlight  int
		cands, n      int
	)
	phase0 := time.Now()
	for first := true; first || time.Since(phase0) < dur; first = false {
		eng := explore.New(st.model)
		set := newReducerSet(topK)
		var head time.Duration
		t0 := time.Now()
		sink := func(r explore.Result) error {
			if head == 0 {
				head = time.Since(t0)
			}
			return set.add(r)
		}
		if traced {
			inner := sink
			sink = func(r explore.Result) error {
				s0 := time.Now()
				err := inner(r)
				sinkNS += int64(time.Since(s0))
				sinks++
				return err
			}
		}
		sp := tr.begin("explore.stream", fmt.Sprint("pass-", n), -1)
		t0 = time.Now()
		ss, err := eng.Stream(ctx, st.space, sink)
		d := time.Since(t0)
		tr.end(sp)
		n++
		res.attempted++
		if err != nil {
			res.failed++
			res.problem("stream pass: %v", err)
			continue
		}
		passes.addDur(d)
		heads.addDur(head)
		cands += ss.Delivered
		peakInFlight = max(peakInFlight, ss.PeakInFlight)
		if n == 1 {
			firstStats = eng.Stats()
		}
		dg, err := digest(set)
		if err != nil {
			return nil, err
		}
		digests[dg]++
	}
	wall := time.Since(phase0)
	heap := hp.done()
	rt1 := readRuntime()

	res.e2e["cand_per_s"] = float64(cands) / wall.Seconds()
	res.e2e["primary_p50_ms"] = passes.pctMS(50)
	res.e2e["secondary_p50_ms"] = heads.pctMS(50)
	res.e2e["live_heap_peak_mb"] = heap
	res.note("cand_per_s", "1/s", res.e2e["cand_per_s"], fmt.Sprintf("ordered Stream, %d candidates per pass", st.size))
	res.note("stream_pass_p50_ms", "ms", passes.pctMS(50), fmt.Sprintf("n=%d", passes.n()))
	res.note("stream_pass_p90_ms", "ms", passes.pctMS(90), tailNote(passes.n()))
	res.note("first_result_p50_ms", "ms", heads.pctMS(50), "time to the first ordered result")

	want, err := oracleReduceDigest(st.model, st.space)
	if err != nil {
		return nil, err
	}
	checkDigests(res, "reuse", e.seed, digests, want)

	if traced {
		l := newLayers()
		l["explore.stream_ms"] = passes.pctMS(50)
		putEngineLayers(l, firstStats)
		l["explore.peak_in_flight"] = float64(peakInFlight)
		putRuntimeLayers(l, rt0.to(rt1), cands)
		l["reduce.sink_ns"] = ratio{num: float64(sinkNS), base: float64(sinks)}.value()
		if err := putCoreLayers(l, e, st.model); err != nil {
			return nil, err
		}
		res.layers = l
		res.spans = tr.snapshot()
	}
	return res, nil
}
