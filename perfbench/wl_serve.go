package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/params"
	"repro/internal/server"
	"repro/internal/server/apitypes"
)

// The serve traffic mix and schedule. README.md gives the basis of each
// figure; the hot-set size, the fresh share and the overlay share are
// assumed, and the measured hit share is printed with every run.
const (
	serveSenders  = 2  // client connections (= nproc on the reference box)
	hotDesigns    = 64 // designs that are memo reads after warm-up
	freshEvery    = 10 // of every freshEvery designs, freshOf are never-seen
	freshOf       = 3
	paramsEvery   = 10   // one request in paramsEvery has a params overlay
	batchEvery    = 20   // one request in batchEvery is a batch
	batchSize     = 32   // designs per batch
	refRate       = 1000 // requests/s of the reference rung
	latencyLimitM = 5.0  // ms: evaluate p90 limit for max_ok_rps
	sampleEvery   = 25   // every n-th single is checked against core.Model
	// genLateShare bounds the generator's p90 lateness as a share of the
	// evaluate p50 it measures; a slower generator fails the run.
	genLateShare = 0.5
	// Shares of the run: the reference rung, each further ladder rung and
	// the closed-loop saturation phase.
	refShare  = 0.5
	rungShare = 0.075
	satShare  = 0.2
)

// ladder are the open-loop rates above the reference rung.
var ladder = []float64{2000, 3000, 4500, 6000}

// serveReq is one request of the mix.
type serveReq struct {
	batch   bool
	profile int // index into profiles, -1 for none
	designs []*design.Design
	body    []byte
}

// serveMix draws requests: designs from a hot set (memo reads once warm)
// or never-seen perturbations of the repository's designs (memo writes),
// some with a params overlay. Which requests are batches, which designs
// are fresh and which requests carry an overlay follow fixed cycles, so
// the hit share and the work per request are the same for every seed; the
// seed picks the hot designs, their perturbations and the draw order.
type serveMix struct {
	mu       sync.Mutex
	rng      *rand.Rand
	hot      []*design.Design
	bases    []*design.Design
	profiles [][]byte
	fresh    int
	requests int
	designs  int
}

func (m *serveMix) design() *design.Design {
	m.designs++
	if m.designs%freshEvery >= freshOf {
		return m.hot[m.rng.Intn(len(m.hot))]
	}
	m.fresh++
	// An irrational rotation never repeats a factor, so every fresh design
	// is new to the memo.
	f := 0.9 + 0.2*math.Mod(float64(m.fresh)*0.6180339887498949, 1)
	b := m.bases[m.fresh%len(m.bases)]
	return perturb(b, b.Name+"-f"+strconv.Itoa(m.fresh), f)
}

// next draws the next request of the cycle: every batchEvery-th is a
// batch. It is safe for concurrent use; the encoding runs outside the lock.
func (m *serveMix) next() (serveReq, error) {
	m.mu.Lock()
	m.requests++
	r := serveReq{profile: -1, batch: m.requests%batchEvery == 0}
	if m.requests%paramsEvery == paramsEvery/2 {
		r.profile = (m.requests / paramsEvery) % len(m.profiles)
	}
	n := 1
	if r.batch {
		n = batchSize
	}
	for i := 0; i < n; i++ {
		r.designs = append(r.designs, m.design())
	}
	m.mu.Unlock()
	var overlay json.RawMessage
	if r.profile >= 0 {
		overlay = m.profiles[r.profile]
	}
	var err error
	if r.batch {
		r.body, err = json.Marshal(apitypes.BatchRequest{Designs: r.designs, Params: overlay})
	} else {
		r.body, err = json.Marshal(apitypes.EvaluateRequest{Design: r.designs[0], Params: overlay})
	}
	return r, err
}

// handlerTimer wraps the server's http.Handler for the traced run: it
// times each request inside the handler and opens a span under the
// client's span.
type handlerTimer struct {
	h  http.Handler
	tr *tracer
	mu sync.Mutex
	ns map[int]int64 // request sequence → handler time
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, err := strconv.Atoi(r.Header.Get("X-Bench-Span"))
	if err != nil {
		parent = -1
	}
	seq, err := strconv.Atoi(r.Header.Get("X-Bench-Seq"))
	sp := t.tr.begin("server.handler", r.URL.Path, parent)
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	d := int64(time.Since(t0))
	t.tr.end(sp)
	if err == nil {
		t.mu.Lock()
		t.ns[seq] = d
		t.mu.Unlock()
	}
}

// serveState is one booted server with its client and inputs.
type serveState struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	mix    *serveMix
	timer  *handlerTimer
	done   chan struct{}
}

func (s *serveState) close() {
	s.client.CloseIdleConnections()
	_ = s.hs.Close()
	<-s.done
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // stops the server's own job service
}

func setupServe(e *env, tr *tracer) (*serveState, error) {
	designs, err := loadDesigns(e.root)
	if err != nil {
		return nil, err
	}
	profiles, err := loadProfiles(e.root)
	if err != nil {
		return nil, err
	}
	m := core.Default()
	var bases []*design.Design
	for _, d := range designs {
		if validVariant(m, perturb(d, d.Name, 0.9)) && validVariant(m, perturb(d, d.Name, 1.1)) {
			bases = append(bases, d)
		}
	}
	if len(bases) == 0 {
		return nil, fmt.Errorf("no repository design survives a ±10%% die-area perturbation")
	}
	rng := e.rng("serve")
	mix := &serveMix{rng: rng, bases: bases, profiles: profiles}
	for i := 0; i < hotDesigns; i++ {
		b := bases[i%len(bases)]
		mix.hot = append(mix.hot, perturb(b, fmt.Sprintf("%s-h%d", b.Name, i), 0.9+0.2*rng.Float64()))
	}

	srv := server.New(server.Options{})
	var h http.Handler = srv
	var timer *handlerTimer
	if tr != nil {
		timer = &handlerTimer{h: srv, tr: tr, ns: map[int]int64{}}
		h = timer
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &serveState{
		srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: serveSenders, MaxIdleConnsPerHost: serveSenders, DisableCompression: true}},
		mix: mix, timer: timer, done: make(chan struct{}),
	}
	go func() {
		defer close(st.done)
		_ = st.hs.Serve(ln)
	}()
	// Warm-up: the hot set as one batch without and one per profile, so
	// hot draws are memo reads and every profile engine is built. Batches
	// fill the same memo as singles, in a handful of round trips.
	for p := -1; p < len(profiles); p++ {
		req := apitypes.BatchRequest{Designs: mix.hot}
		if p >= 0 {
			req.Params = profiles[p]
		}
		body, err := json.Marshal(req)
		if err != nil {
			st.close()
			return nil, err
		}
		if _, _, err := st.post("/v1/evaluate/batch", body, -1, -1); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up batch: %w", err)
		}
	}
	return st, nil
}

// post sends one request and returns the response body. A non-2xx status
// is an error.
func (s *serveState) post(path string, body []byte, seq, span int) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if seq >= 0 {
		req.Header.Set("X-Bench-Seq", strconv.Itoa(seq))
		req.Header.Set("X-Bench-Span", strconv.Itoa(span))
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, d, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, d, nil
}

func (s *serveState) stats() (apitypes.StatsResponse, error) {
	var st apitypes.StatsResponse
	resp, err := s.client.Get(s.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// served is one request of a phase. Only every keepEvery-th single
// request keeps its response body, for the direct-evaluation check and the
// wire replay; the rest are checked as they arrive and dropped.
type served struct {
	req      serveReq
	designs  int
	ok       bool
	resp     []byte
	size     int
	client   time.Duration // send → response read
	seq      int
	checkErr error
}

const keepEvery = 5

// checkBody decodes a response and reports a wrong shape.
func checkBody(r serveReq, body []byte) error {
	if !r.batch {
		var out apitypes.EvaluateResponse
		if err := json.Unmarshal(body, &out); err != nil {
			return fmt.Errorf("evaluate response does not decode: %w", err)
		}
		if out.Design != r.designs[0].Name || out.Report == nil {
			return fmt.Errorf("evaluate response for %q names %q", r.designs[0].Name, out.Design)
		}
		return nil
	}
	var out apitypes.BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Errorf("batch response does not decode: %w", err)
	}
	if out.Count != len(r.designs) || out.Failed != 0 {
		return fmt.Errorf("batch response: count %d failed %d for %d designs", out.Count, out.Failed, len(r.designs))
	}
	for _, it := range out.Results {
		var one apitypes.EvaluateResponse
		if err := json.Unmarshal(it.Result, &one); err != nil || one.Report == nil {
			return fmt.Errorf("batch item %d does not decode", it.Index)
		}
	}
	return nil
}

// rung is one open-loop phase at a fixed rate.
type rung struct {
	rate          float64
	reqs          []served
	unsent        int
	evalLat       samples // ns, from due
	batchLat      samples
	late          samples
	failed        int
	designs       int
	evalP90MS     float64
	ok            bool
	firstFailures []string
	// evalWin holds the evaluate latencies (ns) by due time; the reported
	// latencies are medians over its windows.
	evalWin *windows
}

const rungWindows = 16

// runRung drives one rate for dur through the open-loop generator, over
// the serveSenders connections. A request is not sent once the rung has run
// for twice its duration: the rest is backlog.
func (s *serveState) runRung(rate float64, dur time.Duration, seqBase int, tr *tracer) (*rung, error) {
	sched := poissonSchedule(s.mix.rng, rate, dur)
	reqs := make([]served, len(sched))
	var mixErr error
	clk := realClock{base: time.Now()}
	cutoff := 2 * dur
	timings := runOpenLoop(clk, sched, serveSenders, func(i int) {
		r, err := s.mix.next()
		if err != nil && mixErr == nil {
			mixErr = err
		}
		reqs[i] = served{req: r, designs: len(r.designs), seq: seqBase + i}
	}, func(i int) error {
		if clk.now() > cutoff || reqs[i].req.body == nil {
			return errUnsent
		}
		path := "/v1/evaluate"
		if reqs[i].req.batch {
			path = "/v1/evaluate/batch"
		}
		sp := tr.begin("client.request", strconv.Itoa(reqs[i].seq), -1)
		body, d, err := s.post(path, reqs[i].req.body, reqs[i].seq, sp)
		tr.end(sp)
		reqs[i].client, reqs[i].size = d, len(body)
		if err == nil {
			reqs[i].checkErr = checkBody(reqs[i].req, body)
			reqs[i].ok = reqs[i].checkErr == nil
		}
		// Keep only what the checks after the rung need: every keepEvery-th
		// single request, for the direct-evaluation check and the wire replay.
		if !reqs[i].req.batch && i%keepEvery == 0 {
			reqs[i].resp = body
		} else {
			reqs[i].req.body, reqs[i].req.designs = nil, nil
		}
		return err
	})
	if mixErr != nil {
		return nil, mixErr
	}
	rg := &rung{rate: rate, reqs: reqs}
	rg.evalWin = newWindows(dur, rungWindows)
	for i, t := range timings {
		if t.err == errUnsent {
			rg.unsent++
			continue
		}
		rg.late.addDur(t.late)
		if t.err != nil || reqs[i].checkErr != nil {
			rg.failed++
			if len(rg.firstFailures) < 3 {
				rg.firstFailures = append(rg.firstFailures, fmt.Sprint(t.err, reqs[i].checkErr))
			}
			continue
		}
		rg.designs += reqs[i].designs
		if reqs[i].req.batch {
			rg.batchLat.addDur(t.latency())
		} else {
			rg.evalLat.addDur(t.latency())
			rg.evalWin.add(sched[i], float64(t.latency()))
		}
	}
	rg.evalP90MS = rg.evalLat.pctMS(90)
	rg.ok = rg.failed == 0 && rg.unsent == 0 && rg.evalP90MS <= latencyLimitM
	return rg, nil
}

var errUnsent = fmt.Errorf("not sent: the schedule fell behind")

// saturate sends the mix closed-loop from serveSenders connections for dur
// and returns the median over satWindows equal windows of the designs
// evaluated per second.
func (s *serveState) saturate(dur time.Duration) (float64, int, int, error) {
	var (
		mu        sync.Mutex
		perWin    = newWindows(dur, satWindows)
		attempted int
		failed    int
		firstErr  error
		wg        sync.WaitGroup
	)
	t0 := time.Now()
	for k := 0; k < serveSenders; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < dur {
				r, err := s.mix.next()
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
				path := "/v1/evaluate"
				if r.batch {
					path = "/v1/evaluate/batch"
				}
				body, _, err := s.post(path, r.body, -1, -1)
				if err == nil {
					err = checkBody(r, body)
				}
				at := time.Since(t0)
				mu.Lock()
				attempted++
				if err != nil {
					failed++
				} else if at < dur {
					perWin.add(at, float64(len(r.designs)))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return perWin.rate(), attempted, failed, firstErr
}

const satWindows = 8

func runServe(e *env, dur time.Duration, tr *tracer) (*result, error) {
	st, setupS, err := timedSetup(setupRepeats, func() (*serveState, error) { return setupServe(e, tr) },
		func(s *serveState) { s.close() })
	if err != nil {
		return nil, fmt.Errorf("serve set-up: %w", err)
	}
	defer st.close()
	res := &result{e2e: map[string]float64{"setup_s": setupS}}

	stats0, err := st.stats()
	if err != nil {
		return nil, err
	}
	eng0 := st.srv.Engine().Stats()
	hp := startHeapPeak()
	rt0 := readRuntime()
	ref, err := st.runRung(refRate, time.Duration(refShare*float64(dur)), 0, tr)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	eng1 := st.srv.Engine().Stats()
	stats1, err := st.stats()
	if err != nil {
		return nil, err
	}
	capacity, satAttempted, satFailed, err := st.saturate(time.Duration(satShare * float64(dur)))
	if err != nil {
		return nil, err
	}
	rungs := []*rung{ref}
	seq := len(ref.reqs)
	for _, rate := range ladder {
		rg, err := st.runRung(rate, time.Duration(rungShare*float64(dur)), seq, tr)
		if err != nil {
			return nil, err
		}
		seq += len(rg.reqs)
		rungs = append(rungs, rg)
	}
	heap := hp.done()

	maxOK := 0.0
	for _, rg := range rungs {
		res.attempted += len(rg.reqs) - rg.unsent
		res.failed += rg.failed
		for _, f := range rg.firstFailures {
			res.problem("serve at %g rps: %s", rg.rate, f)
		}
		if rg.ok && rg.rate > maxOK {
			maxOK = rg.rate
		}
		res.note(fmt.Sprintf("rung_%g_eval_p90_ms", rg.rate), "ms", rg.evalP90MS,
			fmt.Sprintf("n=%d unsent=%d failed=%d ok=%v", rg.evalLat.n(), rg.unsent, rg.failed, rg.ok))
	}
	res.attempted += satAttempted
	res.failed += satFailed
	if satFailed > 0 {
		res.problem("serve saturation: %d of %d requests failed", satFailed, satAttempted)
	}

	res.e2e["cand_per_s"] = capacity
	res.e2e["primary_p50_ms"] = ref.evalWin.pct(50) / 1e6
	res.e2e["secondary_p50_ms"] = ref.batchLat.pctMS(50)
	res.e2e["live_heap_peak_mb"] = heap
	res.note("evaluate_p50_ms", "ms", res.e2e["primary_p50_ms"], fmt.Sprintf("at %d rps, median of %d windows; whole rung %.4f, n=%d",
		refRate, rungWindows, ref.evalLat.pctMS(50), ref.evalLat.n()))
	res.note("evaluate_p90_ms", "ms", ref.evalWin.pct(90)/1e6, fmt.Sprintf("median of %d windows; whole rung %.4f, %s",
		rungWindows, ref.evalLat.pctMS(90), tailNote(ref.evalLat.n())))
	res.note("batch_p50_ms", "ms", ref.batchLat.pctMS(50), fmt.Sprintf("at %d rps, n=%d", refRate, ref.batchLat.n()))
	res.note("batch_p90_ms", "ms", ref.batchLat.pctMS(90), tailNote(ref.batchLat.n()))
	res.note("max_ok_rps", "1/s", maxOK, fmt.Sprintf("highest rung with no failures, no backlog, evaluate p90 <= %g ms", latencyLimitM))
	res.note("cand_per_s", "1/s", capacity, fmt.Sprintf("designs/s closed-loop from %d connections", serveSenders))
	res.note("server.cache_hit_ratio", "ratio", cacheHitRatio(statsDelta(eng0, eng1)).value(),
		fmt.Sprintf("memo hits over hits + evaluations at the reference rung; %d of %d designs are never seen", freshOf, freshEvery))
	res.note("gen.late_p50_ms", "ms", ref.late.pctMS(50), "generator lateness at the reference rung")
	res.note("gen.late_p90_ms", "ms", ref.late.pctMS(90), fmt.Sprintf("at most %g of evaluate_p50_ms", genLateShare))
	if late := ref.late.pctMS(90); late > genLateShare*res.e2e["primary_p50_ms"] {
		res.problem("serve: the generator woke %.4f ms late at p90, more than %g of the %.4f ms evaluate p50: the latencies would measure the generator",
			late, genLateShare, res.e2e["primary_p50_ms"])
	}

	if err := verifySample(res, e, rungs); err != nil {
		return nil, err
	}

	if tr != nil {
		l := newLayers()
		var evalH, batchH, transport samples
		st.timer.mu.Lock()
		for _, r := range ref.reqs {
			ns, ok := st.timer.ns[r.seq]
			if !ok || !r.ok {
				continue
			}
			if r.req.batch {
				batchH.add(float64(ns))
			} else {
				evalH.add(float64(ns))
				transport.add(float64(int64(r.client) - ns))
			}
		}
		st.timer.mu.Unlock()
		l["server.evaluate_handler_us"] = evalH.pctUS(50)
		l["server.batch_handler_us"] = batchH.pctUS(50)
		l["http.transport_us"] = transport.pctUS(50)
		d := statsDelta(eng0, eng1)
		putEngineLayers(l, d)
		l["server.cache_hit_ratio"] = cacheHitRatio(d).value()
		p0, p1 := stats0.Profiles, stats1.Profiles
		l["server.profile_hit_ratio"] = ratio{num: float64(p1.Hits - p0.Hits),
			base: float64(p1.Hits - p0.Hits + p1.Loaded - p0.Loaded)}.value()
		for _, path := range []string{"/v1/evaluate", "/v1/evaluate/batch"} {
			l["server.rejected"] += float64(stats1.Endpoints[path].Errors - stats0.Endpoints[path].Errors)
		}
		putRuntimeLayers(l, rt0.to(rt1), ref.designs)
		l["gen.late_p50_ms"] = ref.late.pctMS(50)
		l["gen.late_p90_ms"] = ref.late.pctMS(90)
		if err := putWireLayers(l, ref, core.Default()); err != nil {
			return nil, err
		}
		if err := putCoreLayers(l, e, core.Default()); err != nil {
			return nil, err
		}
		res.layers = l
		res.spans = tr.snapshot()
	}
	return res, nil
}

// verifySample re-evaluates every sampleEvery-th single request directly
// with core.Model (under its params overlay) and compares the bytes.
func verifySample(res *result, e *env, rungs []*rung) error {
	base := params.Default()
	models := map[int]*core.Model{-1: core.Default()}
	profiles, err := loadProfiles(e.root)
	if err != nil {
		return err
	}
	w, eff := (*apitypes.WorkloadSpec)(nil).Resolve()
	n := 0
	for _, rg := range rungs {
		for i, r := range rg.reqs {
			if r.req.batch || r.resp == nil || i%sampleEvery != 0 {
				continue
			}
			m, ok := models[r.req.profile]
			if !ok {
				ps, err := params.Overlay(base, profiles[r.req.profile])
				if err != nil {
					return err
				}
				if m, err = core.New(ps); err != nil {
					return err
				}
				models[r.req.profile] = m
			}
			d := r.req.designs[0]
			rep, err := m.Total(d, w, eff)
			if err != nil {
				res.problem("direct evaluation of %s: %v", d.Name, err)
				continue
			}
			want, err := json.Marshal(apitypes.EvaluateResponse{Design: d.Name, Report: rep})
			if err != nil {
				return err
			}
			n++
			if !bytes.Equal(bytes.TrimSpace(r.resp), want) {
				got := bytes.TrimSpace(r.resp)
				k := 0
				for k < len(got) && k < len(want) && got[k] == want[k] {
					k++
				}
				res.problem("serve: /v1/evaluate body for %s differs from a direct core.Model evaluation at byte %d: %q vs %q", d.Name, k, got[max(0, k-80):min(len(got), k+40)], want[max(0, k-80):min(len(want), k+40)])
				res.failed++
			}
		}
	}
	if n == 0 {
		res.problem("serve: no response was sampled for the direct-evaluation check")
	}
	return nil
}

// putWireLayers replays the server's request decode and response encode
// on the reference rung's single requests: decode the request body into
// apitypes.EvaluateRequest, and encode apitypes.EvaluateResponse around a
// report evaluated with m.
func putWireLayers(l map[string]float64, ref *rung, m *core.Model) error {
	var dec, enc, size samples
	w, eff := (*apitypes.WorkloadSpec)(nil).Resolve()
	for i, r := range ref.reqs {
		if r.req.batch || !r.ok || i%keepEvery != 0 {
			continue
		}
		var req apitypes.EvaluateRequest
		t0 := time.Now()
		if err := json.Unmarshal(r.req.body, &req); err != nil {
			return err
		}
		dec.addDur(time.Since(t0))
		size.add(float64(r.size))
		rep, err := m.Total(req.Design, w, eff)
		if err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := json.Marshal(apitypes.EvaluateResponse{Design: req.Design.Name, Report: rep}); err != nil {
			return err
		}
		enc.addDur(time.Since(t0))
	}
	l["wire.decode_us"] = dec.pctUS(50)
	l["wire.encode_us"] = enc.pctUS(50)
	l["wire.response_bytes"] = size.pct(50)
	return nil
}
