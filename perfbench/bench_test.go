package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/explore"
	"repro/internal/optimize"
)

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p%g = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single-sample p90 = %v", got)
	}
}

// The highest reportable percentile has at least ten samples beyond it.
func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true},
		{999, 90, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d: got p%g ok=%v, want p%g ok=%v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, got, beyond(c.n, got))
		}
	}
}

// fakeClock advances only when the generator sleeps or a send runs.
type fakeClock struct {
	t         time.Duration
	overshoot time.Duration
}

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if c.t < t {
		c.t = t + c.overshoot
	}
}

// Latency runs from the due time, so a stall charges every request queued
// behind it; lateness counts only the generator's own wake-up error.
func TestOpenLoopDueTimeAccounting(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{overshoot: ms / 10}
	sched := []time.Duration{0, 1 * ms, 2 * ms, 10 * ms}
	got := runOpenLoop(clk, sched, 1, nil, func(int) error {
		clk.t += 3 * ms // every request takes 3 ms to serve
		return nil
	})
	want := []struct{ due, start, latency, late time.Duration }{
		{0, 0, 3 * ms, 0},
		{1 * ms, 3 * ms, 5 * ms, 0},                     // queued behind request 0
		{2 * ms, 6 * ms, 7 * ms, 0},                     // queued behind 0 and 1
		{10 * ms, 10*ms + ms/10, 3*ms + ms/10, ms / 10}, // generator woke late
	}
	for i, w := range want {
		g := got[i]
		if g.due != w.due || g.start != w.start || g.latency() != w.latency || g.late != w.late {
			t.Errorf("request %d: due %v start %v latency %v late %v; want %v %v %v %v",
				i, g.due, g.start, g.latency(), g.late, w.due, w.start, w.latency, w.late)
		}
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	sched := poissonSchedule(newTestRand(), 1000, 10*time.Second)
	if n := len(sched); n < 9700 || n > 10300 {
		t.Fatalf("%d arrivals in 10 s at 1000/s", n)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i] < sched[i-1] {
			t.Fatalf("schedule not increasing at %d", i)
		}
	}
}

// Self time is the span minus the union of its children, clipped to the
// span's own interval.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", Parent: -1, Start: 0, End: 100},
		{Name: "child", Parent: 0, Start: 10, End: 30},
		{Name: "child", Parent: 0, Start: 20, End: 50},  // overlaps the first child
		{Name: "child", Parent: 0, Start: 90, End: 120}, // runs past the parent
		{Name: "grandchild", Parent: 1, Start: 12, End: 14},
		{Name: "open", Parent: 0, Start: 60, End: -1}, // never closed: ignored
	}
	children := [][]int{{1, 2, 3, 5}, {4}, nil, nil, nil, nil}
	if got := selfTime(spans, children, 0); got != 50 {
		t.Errorf("parent self time %d, want 50", got)
	}
	if got := selfTime(spans, children, 1); got != 18 {
		t.Errorf("child self time %d, want 18", got)
	}
	stats := spanStats(spans)
	byName := map[string]*spanStat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	if c := byName["child"]; c == nil || c.Count != 3 || c.Self.sum() != 18+30+30 {
		t.Errorf("child stats %+v", c)
	}
	if _, ok := byName["open"]; ok {
		t.Error("an unclosed span was counted")
	}
}

func TestUntracedTracerIsNoOp(t *testing.T) {
	var tr *tracer
	if i := tr.begin("x", "y", -1); i != -1 {
		t.Fatalf("nil tracer returned span %d", i)
	}
	if d := tr.end(-1); d != 0 {
		t.Fatalf("nil tracer timed %v", d)
	}
}

// Every ratio divides by the base its doc names.
func TestRatioBases(t *testing.T) {
	for _, c := range []struct {
		name string
		r    ratio
		num  float64
		base float64
	}{
		{"cache_hit_ratio", cacheHitRatio(explore.Stats{CacheHits: 3, Evaluations: 1}), 3, 4},
		{"embodied_reuse_ratio", embodiedReuseRatio(explore.Stats{EmbodiedCacheHits: 9, EmbodiedEvaluations: 1}), 9, 10},
		{"charged_ratio", chargedRatio(optimize.Stats{Evaluations: 2, BoundProbes: 3, SpaceSize: 100}), 5, 100},
		{"pruned_block_ratio", prunedBlockRatio(optimize.Stats{PrunedBlocks: 3, Blocks: 4}), 3, 4},
		{"useful_ratio", usefulRatio(dist.Counters{Dispatched: 2, Completed: 1},
			dist.Counters{Dispatched: 6, Completed: 4}), 3, 4},
		{"gc_cpu_ratio", rtSnap{gcCPU: 1, totalCPU: 2, sched: emptyHist()}.to(
			rtSnap{gcCPU: 2, totalCPU: 6, sched: emptyHist()}).gcCPU, 1, 4},
	} {
		if c.r.num != c.num || c.r.base != c.base {
			t.Errorf("%s: %v/%v, want %v/%v", c.name, c.r.num, c.r.base, c.num, c.base)
		}
	}
	if v := (ratio{num: 1}).value(); v != 0 {
		t.Errorf("zero base gave %v", v)
	}
}

func TestHistPercentile(t *testing.T) {
	buckets := []float64{0, 1, 2, 3, math.Inf(1)}
	if got := histPercentile(buckets, []uint64{5, 4, 1, 0}, 90); got != 2 {
		t.Errorf("p90 bucket bound %v, want 2", got)
	}
	if got := histPercentile(buckets, []uint64{0, 0, 0, 3}, 50); got != 3 {
		t.Errorf("open last bucket gave %v, want its lower bound 3", got)
	}
	if got := histPercentile(buckets, []uint64{0, 0, 0, 0}, 50); got != 0 {
		t.Errorf("empty histogram gave %v", got)
	}
}

// BENCHMARK.json at the repository root declares exactly the metrics and
// workloads this program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
	if len(b.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics declared, %d printed", len(b.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		d := b.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("end_to_end[%d] = %+v, program prints %+v", i, d, m)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d printed", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		d := b.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, program prints %+v", i, d, m)
		}
	}
}

// The recorded digests still match both the oracle paths and the fast
// paths the workloads time.
func TestRecordedDigests(t *testing.T) {
	var rec map[string]string
	if err := json.Unmarshal(recordedDigestsJSON, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec) == 0 {
		t.Fatal("no recorded digests")
	}
	m := core.Default()
	for _, seed := range []int64{1, 2, 3} {
		e := &env{seed: seed}
		for _, c := range []struct {
			name  string
			space explore.Space
			fast  func(explore.Space) (string, error)
			slow  func(*core.Model, explore.Space) (string, error)
		}{
			{"distinct", distinctSpace(e.rng("distinct"), "distinct", distinctGatesN, distinctFabsN), fastReduceDigest(m), oracleStreamDigest},
			{"reuse", reuseSpace(e.rng("reuse"), reuseYearsN), fastStreamDigest(m), oracleReduceDigest},
		} {
			want, ok := recordedDigest(c.name, seed)
			if !ok {
				t.Errorf("%s/%d: no recorded digest", c.name, seed)
				continue
			}
			slow, err := c.slow(m, c.space)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := c.fast(c.space)
			if err != nil {
				t.Fatal(err)
			}
			if slow != want || fast != want {
				t.Errorf("%s/%d: oracle %s, timed path %s, recorded %s", c.name, seed, slow, fast, want)
			}
		}
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

func emptyHist() *metrics.Float64Histogram {
	return &metrics.Float64Histogram{Buckets: []float64{0, 1}, Counts: []uint64{0}}
}

// fastReduceDigest folds a space the way the distinct workload times it.
func fastReduceDigest(m *core.Model) func(explore.Space) (string, error) {
	return func(s explore.Space) (string, error) {
		set := newReducerSet(topK)
		if _, err := explore.New(m).Reduce(context.Background(), s, set.list()...); err != nil {
			return "", err
		}
		return digest(set)
	}
}

// fastStreamDigest folds a space the way the reuse workload times it.
func fastStreamDigest(m *core.Model) func(explore.Space) (string, error) {
	return func(s explore.Space) (string, error) {
		set := newReducerSet(topK)
		if _, err := explore.New(m).Stream(context.Background(), s, set.add); err != nil {
			return "", err
		}
		return digest(set)
	}
}

// A window's percentile and rate use only that window's samples, and the
// result is the median over windows, so one disturbed window cannot move it.
func TestWindows(t *testing.T) {
	ws := newWindows(4*time.Second, 4)
	for i, v := range []float64{1, 1, 100, 1} { // window 2 is disturbed
		for k := 0; k < 10; k++ {
			ws.add(time.Duration(i)*time.Second+time.Duration(k)*time.Millisecond, v)
		}
	}
	ws.add(9*time.Second, 0) // past the span: counts in the last window
	if got := ws.pct(50); got != 1 {
		t.Errorf("median of window p50s = %v, want 1", got)
	}
	if got := ws.rate(); got != 10 {
		t.Errorf("median window rate = %v, want 10 per second", got)
	}
}

// The chunk count the jobs workload checks against the pool counters
// follows the runner's split: even shards, checkpoint-sized chunks.
func TestDispatchedChunks(t *testing.T) {
	for _, c := range []struct{ total, want int }{
		{720, 0}, // small job: below the shard threshold
		{shardAbove - 1, 0},
		{shardAbove, 4},     // 4 shards of one chunk
		{2880, 12},          // warm-up: 4 shards of 720 → 3 chunks each
		{5760, 24},          // large job: 4 shards of 1440 → 6 chunks each
		{shardAbove + 1, 5}, // one shard one candidate longer
	} {
		if got := dispatchedChunks(c.total); got != c.want {
			t.Errorf("dispatchedChunks(%d) = %d, want %d", c.total, got, c.want)
		}
	}
}

// Every workload runs end to end, traced, with correct outputs and every
// metric present. Run it with -race: it is the test that drives the
// concurrent parts of the harness (the open-loop senders and the wrappers).
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload")
	}
	for name, wl := range workloads {
		t.Run(name, func(t *testing.T) {
			e := &env{root: "..", out: t.TempDir(), seed: 1}
			r, err := wl(e, 300*time.Millisecond, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if len(r.problems) > 0 || r.failed > 0 || r.attempted == 0 {
				t.Fatalf("attempted %d failed %d problems %v", r.attempted, r.failed, r.problems)
			}
			for _, m := range e2eMetrics {
				if v := r.e2e[m.Name]; !(v > 0) {
					t.Errorf("%s = %v", m.Name, v)
				}
			}
			for _, m := range layerMetrics {
				if _, ok := r.layers[m.Name]; !ok && !strings.HasPrefix(m.Name, "overhead.") && m.Name != "error_rate" {
					t.Errorf("per-layer %s missing", m.Name)
				}
			}
			if len(r.spans) == 0 {
				t.Error("no spans recorded")
			}
		})
	}
}
