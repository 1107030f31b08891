// Command perfbench is the repository's benchmark: it drives the
// exploration engine, the optimizer, the HTTP service and the job tier
// through their public entry points, checks every output, and prints the
// end-to-end metrics (untraced run) or the per-layer breakdown (traced
// run). See README.md for how to run it and read its output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one metric the benchmark reports.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" | "lower"
}

// End-to-end metrics. Every workload reports all five; README.md gives each
// workload's primary and secondary operation. Tail percentiles are printed
// with each workload's own figures but not gated: on a shared 2-vCPU host
// their run-to-run spread exceeds the largest bound a gate may have.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"cand_per_s", "1/s", "higher"},
	{"primary_p50_ms", "ms", "lower"},
	{"secondary_p50_ms", "ms", "lower"},
	{"live_heap_peak_mb", "MB", "lower"},
}

// env is one invocation's settings.
type env struct {
	root    string // repository checkout (designs/, profiles/)
	out     string // scratch directory for stores and span dumps
	seed    int64
	seconds float64
}

// rng returns a generator for one named input stream of this seed, so
// adding a stream never shifts another stream's values.
func (e *env) rng(stream string) *rand.Rand {
	h := int64(0)
	for _, c := range stream {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(e.seed*1_000_003 + h))
}

// result is what one workload phase measured.
type result struct {
	e2e map[string]float64
	// named are the workload's own figures under their own names (e.g.
	// optimize_s, max_ok_rps) printed in the human-readable table.
	named []namedValue
	// layers are the per-layer metrics; filled only by a traced phase.
	layers            map[string]float64
	attempted, failed int
	problems          []string
	spans             []span
}

type namedValue struct {
	name, unit string
	value      float64
	note       string
}

func (r *result) note(name, unit string, v float64, note string) {
	r.named = append(r.named, namedValue{name, unit, v, note})
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloadFunc runs one phase of a workload for dur. tr is nil for the
// untraced phase.
type workloadFunc func(e *env, dur time.Duration, tr *tracer) (*result, error)

var workloads = map[string]workloadFunc{
	"distinct": runDistinct,
	"reuse":    runReuse,
	"serve":    runServe,
	"jobs":     runJobs,
}

func main() {
	var (
		e        env
		name     string
		traceArg int
	)
	flag.StringVar(&name, "workload", "distinct", "workload: distinct, reuse, serve or jobs")
	flag.Int64Var(&e.seed, "seed", 1, "input seed")
	flag.Float64Var(&e.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceArg, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&e.root, "root", ".", "repository checkout")
	flag.StringVar(&e.out, "out", ".bench_build/run", "directory for stores and span dumps")
	flag.Parse()
	if err := run(&e, name, traceArg == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(e *env, name string, traced bool) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	for _, dir := range []string{"designs", "profiles"} {
		if fi, err := os.Stat(filepath.Join(e.root, dir)); err != nil || !fi.IsDir() {
			return fmt.Errorf("%s/ not found under %s: run from the repository root", dir, e.root)
		}
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return err
	}
	dur := time.Duration(e.seconds * float64(time.Second))
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v go=%s nproc=%d\n",
		name, e.seed, e.seconds, traced, runtime.Version(), runtime.NumCPU())

	var out map[string]metricOut
	var res *result
	if !traced {
		r, err := wl(e, dur, nil)
		if err != nil {
			return err
		}
		res = r
		printNamed(r)
		out = make(map[string]metricOut, len(e2eMetrics))
		for _, m := range e2eMetrics {
			out[m.Name] = metricOut{r.e2e[m.Name], m.Unit}
		}
	} else {
		// Half the time untraced, half traced: the difference is the
		// tracing overhead, reported per end-to-end metric.
		plain, err := wl(e, dur/2, nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		r, err := wl(e, dur/2, tr)
		if err != nil {
			return err
		}
		res = r
		res.attempted += plain.attempted
		res.failed += plain.failed
		res.problems = append(res.problems, plain.problems...)
		for _, m := range e2eMetrics {
			r.layers["overhead."+m.Name] = ratio{num: r.e2e[m.Name] - plain.e2e[m.Name], base: plain.e2e[m.Name]}.value()
		}
		r.layers["error_rate"] = ratio{num: float64(res.failed), base: float64(res.attempted)}.value()
		printNamed(r)
		printLayers(r)
		path := filepath.Join(e.out, fmt.Sprintf("spans-%s-%d.json", name, e.seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(r.spans), path)
		out = make(map[string]metricOut, len(layerMetrics))
		for _, m := range layerMetrics {
			out[m.Name] = metricOut{r.layers[m.Name], m.Unit}
		}
	}
	correct := len(res.problems) == 0
	for _, p := range res.problems {
		fmt.Println("WRONG:", p)
	}
	fmt.Printf("attempted=%d failed=%d error_rate=%.6f\n", res.attempted, res.failed,
		ratio{num: float64(res.failed), base: float64(res.attempted)}.value())
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, res.attempted, res.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(2)
	}
	return nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printNamed(r *result) {
	fmt.Println("end-to-end:")
	for _, m := range e2eMetrics {
		fmt.Printf("  %-22s %14.4f %s\n", m.Name, r.e2e[m.Name], m.Unit)
	}
	fmt.Println("workload metrics:")
	for _, n := range r.named {
		fmt.Printf("  %-22s %14.4f %-6s %s\n", n.name, n.value, n.unit, n.note)
	}
}

func printLayers(r *result) {
	fmt.Println("per-layer (traced half; 0 = the workload does no work in that layer):")
	layer := ""
	for _, m := range layerMetrics {
		l := m.Name[:strings.IndexByte(m.Name+".", '.')]
		if l != layer {
			layer = l
			fmt.Printf("  [%s]\n", l)
		}
		fmt.Printf("    %-34s %14.4f %s\n", m.Name, r.layers[m.Name], m.Unit)
	}
	fmt.Println("span self time (traced half):")
	fmt.Printf("  %-24s %8s %12s %12s %12s\n", "span", "count", "p50_us", "self_p50_us", "self_sum_ms")
	for _, s := range spanStats(r.spans) {
		fmt.Printf("  %-24s %8d %12.1f %12.1f %12.2f\n", s.Name, s.Count,
			s.Total.pctUS(50), s.Self.pctUS(50), s.Self.sum()/1e6)
	}
}

// timedSetup builds a workload's state n times and keeps the last one; the
// setup time is the median of the n builds. Earlier builds are released
// with discard. A GC before each build, outside the timing, keeps the
// garbage of the previous build from being collected inside this one.
func timedSetup[T any](n int, build func() (T, error), discard func(T)) (T, float64, error) {
	var (
		d    samples
		last T
	)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		d.add(time.Since(t0).Seconds())
		if i < n-1 {
			discard(v)
		}
		last = v
	}
	return last, d.median(), nil
}
