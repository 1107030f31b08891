package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/explore"
	"repro/internal/jobs"
	"repro/internal/params"
	"repro/internal/server"
	"repro/internal/server/apitypes"
)

// Job tier shape. Small jobs stay below shardAbove and run unsharded in
// process with durable checkpoints; large jobs split into jobShards shards
// whose chunks are leased to the replicas. The checkpoint span and the
// shard threshold are the job service's defaults; README.md gives the
// basis of every job-tier figure.
const (
	jobReplicas     = 2
	jobShards       = 4
	checkpointEvery = jobs.DefaultCheckpointEvery
	shardAbove      = 4 * checkpointEvery
	jobWindows      = 4
	// heapJobs bounds the heap measurement to the first heapJobs jobs: the
	// service keeps every finished job in memory, so a peak taken over the
	// whole run would grow with throughput.
	heapJobs = 200
)

// jobSpec draws one job's space: seeded gate sizes keep every job's
// designs new to every engine's memo.
func jobSpec(rng *rand.Rand, large bool) jobs.Spec {
	fabs := []string{string(rotate(rng, fabPool, 1)[0])}
	uses := []string{"usa", "europe", "india"}
	years := jitteredGrid(rng, 8, 1, 1)
	nodes := []int{7}
	gates := distinctGates(rng, 2)
	if large {
		uses = append(uses, "china", "norway", "renewable")
		nodes = append(nodes, 14)
		gates = distinctGates(rng, 4)
	}
	return jobs.Spec{Top: topK, Space: apitypes.SpaceSpec{
		Name:          "job",
		Strategies:    []string{"homogeneous", "heterogeneous"},
		NodesNM:       nodes,
		Gates:         gates,
		FabLocations:  fabs,
		UseLocations:  uses,
		LifetimeYears: years,
	}}
}

// dispatchedChunks is how many chunks a job of total candidates leases to
// the replicas: none below shardAbove, otherwise every checkpointEvery-sized
// chunk of its jobShards even index-range shards.
func dispatchedChunks(total int) int {
	if total < shardAbove {
		return 0
	}
	n := 0
	q, rem := total/jobShards, total%jobShards
	for i := 0; i < jobShards; i++ {
		size := q
		if i < rem {
			size++
		}
		n += (size + checkpointEvery - 1) / checkpointEvery
	}
	return n
}

// storeTimer wraps the job store for the traced run.
type storeTimer struct {
	jobs.Store
	tr      *tracer
	mu      sync.Mutex
	appends samples
	running map[string]time.Time // job → first persisted running state
	spans   map[string]int       // job → its span
}

func (s *storeTimer) Append(rec jobs.Record) error {
	id := rec.JobID
	if rec.Job != nil {
		id = rec.Job.ID
	}
	s.mu.Lock()
	parent, ok := s.spans[id]
	s.mu.Unlock()
	if !ok {
		parent = -1
	}
	sp := s.tr.begin("jobs.store_append", id, parent)
	t0 := time.Now()
	err := s.Store.Append(rec)
	d := time.Since(t0)
	s.tr.end(sp)
	s.mu.Lock()
	s.appends.addDur(d)
	if rec.Job != nil && rec.Job.State == jobs.StateRunning {
		if _, seen := s.running[id]; !seen {
			s.running[id] = t0
		}
	}
	s.mu.Unlock()
	return err
}

// chunkKey identifies one dispatched chunk on both sides of the wire.
type chunkKey struct {
	job       string
	lo, start int
}

// chunkTimer times the dispatch seam (coordinator) and the replica handler
// for the traced run, matching the two per chunk.
type chunkTimer struct {
	tr       *tracer
	store    *storeTimer
	mu       sync.Mutex
	dispatch map[chunkKey]int64
	replica  map[chunkKey]int64
	spans    map[chunkKey]int
	reqBytes samples
	resBytes samples
	bodies   [][2][]byte // sampled request/response bodies for the wire replay
}

func (c *chunkTimer) wrapDispatch(run jobs.ChunkRunner) jobs.ChunkRunner {
	return func(ctx context.Context, req jobs.ChunkRequest) (jobs.ShardCheckpoint, error) {
		k := chunkKey{req.Job.ID, req.State.Lo, req.State.NextIndex}
		c.store.mu.Lock()
		parent, ok := c.store.spans[req.Job.ID]
		c.store.mu.Unlock()
		if !ok {
			parent = -1
		}
		sp := c.tr.begin("dist.dispatch", req.Job.ID, parent)
		c.mu.Lock()
		c.spans[k] = sp
		c.mu.Unlock()
		t0 := time.Now()
		sc, err := run(ctx, req)
		d := time.Since(t0)
		c.tr.end(sp)
		c.mu.Lock()
		c.dispatch[k] = int64(d)
		c.mu.Unlock()
		return sc, err
	}
}

// countingWriter counts response bytes.
type countingWriter struct {
	http.ResponseWriter
	n   int
	buf *bytes.Buffer
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	if w.buf != nil {
		w.buf.Write(b)
	}
	return w.ResponseWriter.Write(b)
}

func (c *chunkTimer) wrapReplica(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/shards/run" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var head struct {
			JobID     string `json:"job_id"`
			Lo        int    `json:"lo"`
			NextIndex int    `json:"next_index"`
		}
		_ = json.Unmarshal(body, &head) // an unmatched chunk only loses its transport figure
		k := chunkKey{head.JobID, head.Lo, head.NextIndex}
		c.mu.Lock()
		parent, ok := c.spans[k]
		keep := len(c.bodies) < 64
		c.mu.Unlock()
		if !ok {
			parent = -1
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		cw := &countingWriter{ResponseWriter: w}
		if keep {
			cw.buf = &bytes.Buffer{}
		}
		sp := c.tr.begin("dist.replica", head.JobID, parent)
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		d := time.Since(t0)
		c.tr.end(sp)
		c.mu.Lock()
		c.replica[k] = int64(d)
		c.reqBytes.add(float64(len(body)))
		c.resBytes.add(float64(cw.n))
		if keep {
			c.bodies = append(c.bodies, [2][]byte{body, cw.buf.Bytes()})
		}
		c.mu.Unlock()
	})
}

// jobsState is one booted job tier: replicas, pool, store and service.
type jobsState struct {
	dir      string
	replicas []*http.Server
	servers  []*server.Server
	done     []chan struct{}
	client   *http.Client
	pool     *dist.Pool
	eng      *explore.Engine
	svc      *jobs.Service
	store    *storeTimer
	chunks   *chunkTimer
	rng      *rand.Rand
}

func (s *jobsState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.svc.Shutdown(ctx)
	s.closePartial()
}

func setupJobs(e *env, tr *tracer) (*jobsState, error) {
	dir, err := os.MkdirTemp(e.out, "jobs-")
	if err != nil {
		return nil, err
	}
	st := &jobsState{
		dir:    dir,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		rng:    e.rng("jobs"),
	}
	if tr != nil {
		st.store = &storeTimer{tr: tr, running: map[string]time.Time{}, spans: map[string]int{}}
		st.chunks = &chunkTimer{tr: tr, store: st.store, dispatch: map[chunkKey]int64{},
			replica: map[chunkKey]int64{}, spans: map[chunkKey]int{}}
	}
	var urls []string
	for i := 0; i < jobReplicas; i++ {
		srv := server.New(server.Options{})
		var h http.Handler = srv
		if st.chunks != nil {
			h = st.chunks.wrapReplica(srv)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.closePartial()
			return nil, err
		}
		hs := &http.Server{Handler: h}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = hs.Serve(ln)
		}()
		st.servers = append(st.servers, srv)
		st.replicas = append(st.replicas, hs)
		st.done = append(st.done, done)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	baseFP, err := params.Default().Fingerprint()
	if err != nil {
		st.closePartial()
		return nil, err
	}
	st.pool = dist.NewPool(dist.Options{Replicas: urls, BaselineFP: baseFP.String(), Client: st.client})
	fs, err := jobs.OpenFileStore(filepath.Join(st.dir, "jobs.log"))
	if err != nil {
		st.closePartial()
		return nil, err
	}
	var store jobs.Store = fs
	dispatch := jobs.ChunkRunner(st.pool.Run)
	if st.store != nil {
		st.store.Store = fs
		store = st.store
		dispatch = st.chunks.wrapDispatch(dispatch)
	}
	st.eng = explore.New(core.Default())
	st.eng.CacheLimit = server.DefaultCacheLimit
	st.svc, err = jobs.New(jobs.Options{
		Store:           store,
		Resolve:         resolveBaseline(st.eng),
		CheckpointEvery: checkpointEvery,
		JobShards:       jobShards,
		ShardAbove:      shardAbove,
		Dispatch:        dispatch,
	})
	if err != nil {
		fs.Close()
		st.closePartial()
		return nil, err
	}
	// Warm-up: one job of each class, so replica connections, profile-free
	// engines and the store file exist before timing. The sharded one keeps
	// half the gate sizes: still above shardAbove, it leases half the
	// chunks, so fewer host-dependent round trips and fsyncs fall into
	// setup_s.
	for _, large := range []bool{false, true} {
		spec := jobSpec(e.rng("jobs-warm"), large)
		if large {
			spec.Space.Gates = spec.Space.Gates[:len(spec.Space.Gates)/2]
		}
		if _, _, err := st.runJob(spec, nil); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	return st, nil
}

// closePartial releases the replicas, the client and the store directory:
// all of a set-up that failed before the job service existed, and what is
// left of one after close has shut the service down.
func (s *jobsState) closePartial() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	for i, hs := range s.replicas {
		_ = hs.Close()
		<-s.done[i]
		_ = s.servers[i].Shutdown(ctx) // stops the replica's own job service
	}
	_ = os.RemoveAll(s.dir)
}

// resolveBaseline serves jobs without a params overlay from eng.
func resolveBaseline(eng *explore.Engine) func([]byte) (*explore.Engine, error) {
	return func(p []byte) (*explore.Engine, error) {
		if len(p) != 0 && string(p) != "null" {
			return nil, fmt.Errorf("the benchmark submits no params overlays")
		}
		return eng, nil
	}
}

// runJob submits spec and waits for a terminal state; it returns the job
// and its summary bytes.
func (s *jobsState) runJob(spec jobs.Spec, tr *tracer) (jobs.Job, []byte, error) {
	job, err := s.svc.Submit("bench", "", spec)
	if err != nil {
		return job, nil, err
	}
	sp := tr.begin("jobs.job", job.ID, -1)
	if s.store != nil {
		s.store.mu.Lock()
		s.store.spans[job.ID] = sp
		s.store.mu.Unlock()
	}
	defer tr.end(sp)
	evs, tick, stop, err := s.svc.EventsSince(job.ID, 1)
	if err != nil {
		return job, nil, err
	}
	defer stop()
	next := 1
	timeout := time.After(2 * time.Minute)
	for {
		for _, ev := range evs {
			next = ev.Seq + 1
			if ev.Type == "state" && ev.State.Terminal() {
				j, _, sum, err := s.svc.Get(job.ID)
				if err != nil {
					return j, nil, err
				}
				if j.State != jobs.StateDone {
					return j, nil, fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
				}
				return j, sum, nil
			}
		}
		select {
		case <-tick:
		case <-timeout:
			return job, nil, fmt.Errorf("job %s did not finish within 2 minutes", job.ID)
		}
		evs = s.svc.More(job.ID, next)
	}
}

// referenceSummaries runs every spec unsharded, undispatched and in
// memory on a fresh engine: the byte-identity reference.
func referenceSummaries(specs []jobs.Spec) ([][]byte, error) {
	svc, err := jobs.New(jobs.Options{Resolve: resolveBaseline(explore.New(core.Default()))})
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()
	ref := &jobsState{svc: svc}
	out := make([][]byte, len(specs))
	for i, sp := range specs {
		_, sum, err := ref.runJob(sp, nil)
		if err != nil {
			return nil, fmt.Errorf("reference job %d: %w", i, err)
		}
		out[i] = sum
	}
	return out, nil
}

func runJobs(e *env, dur time.Duration, tr *tracer) (*result, error) {
	st, setupS, err := timedSetup(setupRepeats, func() (*jobsState, error) { return setupJobs(e, tr) },
		func(s *jobsState) { s.close() })
	if err != nil {
		return nil, fmt.Errorf("jobs set-up: %w", err)
	}
	defer st.close()
	res := &result{e2e: map[string]float64{"setup_s": setupS}}

	engStats := func() explore.Stats {
		s := st.eng.Stats()
		for _, srv := range st.servers {
			addStats(&s, srv.Engine().Stats())
		}
		return s
	}
	eng0, pc0 := engStats(), st.pool.Counters()
	var size0 int64
	if fi, err := os.Stat(filepath.Join(st.dir, "jobs.log")); err == nil {
		size0 = fi.Size()
	}
	hp := startHeapPeak()
	rt0 := readRuntime()
	// Latencies and throughput are medians over windows of the phase (by
	// completion time): jobs are short, so a stall of the shared disk or
	// host moves a window, not the run.
	var (
		small     = newWindows(dur, jobWindows)
		large     = newWindows(dur, jobWindows)
		done      = newWindows(dur, 2*jobWindows)
		specs     []jobs.Spec
		sums      [][]byte
		ids       []string
		submitted = map[string]time.Time{}
		cands     int
		chunks    int // chunks the completed jobs should have leased out
	)
	heap, heapDone := 0.0, false
	t0 := time.Now()
	for i := 0; i == 0 || time.Since(t0) < dur || i%2 == 1; i++ {
		if i == heapJobs {
			heap, heapDone = hp.done(), true
		}
		isLarge := i%2 == 1
		spec := jobSpec(st.rng, isLarge)
		j0 := time.Now()
		job, sum, err := st.runJob(spec, tr)
		d := time.Since(j0)
		res.attempted++
		if err != nil {
			res.failed++
			res.problem("job %d: %v", i, err)
			continue
		}
		submitted[job.ID] = j0
		at := time.Since(t0)
		if isLarge {
			large.add(at, float64(d))
		} else {
			small.add(at, float64(d))
		}
		if at < dur {
			done.add(at, float64(job.Total))
		}
		cands += job.Total
		chunks += dispatchedChunks(job.Total)
		specs, sums, ids = append(specs, spec), append(sums, sum), append(ids, job.ID)
	}
	wall := time.Since(t0)
	if !heapDone {
		heap = hp.done()
	}
	rt1 := readRuntime()
	eng1, pc1 := engStats(), st.pool.Counters()

	// Jobs far slower than a window leave most windows empty; the
	// whole-run rate is then the only figure.
	res.e2e["cand_per_s"] = done.rate()
	if res.e2e["cand_per_s"] == 0 {
		res.e2e["cand_per_s"] = float64(cands) / wall.Seconds()
	}
	res.e2e["primary_p50_ms"] = small.pct(50) / 1e6
	res.e2e["secondary_p50_ms"] = large.pct(50) / 1e6
	res.e2e["live_heap_peak_mb"] = heap
	nSmall, nLarge := len(ids)/2+len(ids)%2, len(ids)/2
	res.note("job_small_p50_ms", "ms", res.e2e["primary_p50_ms"], fmt.Sprintf("n=%d, unsharded in-process, median of %d windows", nSmall, jobWindows))
	res.note("job_small_p90_ms", "ms", small.pct(90)/1e6, fmt.Sprintf("median of window p90s; per window: %s", tailNote(nSmall/jobWindows)))
	res.note("job_large_p50_ms", "ms", res.e2e["secondary_p50_ms"], fmt.Sprintf("n=%d, %d shards over %d replicas", nLarge, jobShards, jobReplicas))
	res.note("cand_per_s", "1/s", res.e2e["cand_per_s"], fmt.Sprintf("candidates of completed jobs per second, median of %d windows; whole run %.0f",
		2*jobWindows, float64(cands)/wall.Seconds()))

	// The pool turns a failed dispatch into in-process execution, which
	// the summary check cannot see: the chunks must have run on the
	// replicas, or the large-job figures measure no round trip.
	completed, fallbacks := pc1.Completed-pc0.Completed, pc1.LocalFallbacks-pc0.LocalFallbacks
	res.note("dist_chunks", "count", float64(completed), fmt.Sprintf("chunks completed on the replicas; the large jobs split into %d; local fallbacks %d", chunks, fallbacks))
	if completed != uint64(chunks) {
		res.problem("dist: %d chunks completed on the replicas, the large jobs split into %d", completed, chunks)
	}
	if fallbacks > 0 {
		res.problem("dist: %d chunks fell back to in-process execution", fallbacks)
	}

	want, err := referenceSummaries(specs)
	if err != nil {
		return nil, err
	}
	for i := range specs {
		if !bytes.Equal(sums[i], want[i]) {
			res.problem("job %s: summary differs from the unsharded in-process reference", ids[i])
			res.failed++
		}
	}

	if tr != nil {
		l := newLayers()
		jobsN := float64(len(ids))
		d := statsDelta(eng0, eng1)
		putEngineLayers(l, d)
		for _, k := range []string{"explore.evaluations", "explore.embodied_evaluations",
			"explore.block_candidates", "explore.block_runs", "explore.stencils", "explore.evictions"} {
			l[k] /= jobsN // per job
		}
		putRuntimeLayers(l, rt0.to(rt1), cands)

		st.store.mu.Lock()
		var wait samples
		for id, at := range st.store.running {
			if sub, ok := submitted[id]; ok {
				wait.addDur(at.Sub(sub))
			}
		}
		l["jobs.queue_wait_ms"] = wait.pctMS(50)
		l["jobs.store_append_us"] = st.store.appends.pctUS(50)
		l["jobs.store_appends"] = float64(st.store.appends.n()) / jobsN
		st.store.mu.Unlock()
		if fi, err := os.Stat(filepath.Join(st.dir, "jobs.log")); err == nil {
			l["jobs.store_bytes"] = float64(fi.Size()-size0) / jobsN
		}

		c := st.chunks
		c.mu.Lock()
		var disp, repl, trans samples
		for k, dn := range c.dispatch {
			disp.add(float64(dn))
			if rn, ok := c.replica[k]; ok {
				repl.add(float64(rn))
				trans.add(float64(dn - rn))
			}
		}
		l["dist.dispatch_ms"] = disp.pctMS(50)
		l["dist.replica_ms"] = repl.pctMS(50)
		l["dist.transport_ms"] = trans.pctMS(50)
		l["dist.request_bytes"] = c.reqBytes.pct(50)
		l["dist.response_bytes"] = c.resBytes.pct(50)
		bodies := c.bodies
		c.mu.Unlock()
		l["dist.chunks"] = float64(pc1.Completed-pc0.Completed) / jobsN
		l["dist.retries"] = float64(pc1.Retries-pc0.Retries) / jobsN
		l["dist.reassignments"] = float64(pc1.Reassignments-pc0.Reassignments) / jobsN
		l["dist.local_fallbacks"] = float64(pc1.LocalFallbacks-pc0.LocalFallbacks) / jobsN
		l["dist.useful_ratio"] = usefulRatio(pc0, pc1).value()
		if err := putChunkWireLayers(l, bodies); err != nil {
			return nil, err
		}
		if err := putCoreLayers(l, e, st.eng.Model); err != nil {
			return nil, err
		}
		res.layers = l
		res.spans = tr.snapshot()
	}
	return res, nil
}

// usefulRatio is the share of dispatched chunk attempts whose result was
// accepted; base: attempts dispatched.
func usefulRatio(a, b dist.Counters) ratio {
	return ratio{num: float64(b.Completed - a.Completed), base: float64(b.Dispatched - a.Dispatched)}
}

// putChunkWireLayers replays the shard-run wire on captured bodies: the
// replica's request decode and the response encode.
func putChunkWireLayers(l map[string]float64, bodies [][2][]byte) error {
	var dec, enc, size samples
	for _, b := range bodies {
		var req apitypes.ShardRunRequest
		t0 := time.Now()
		if err := json.Unmarshal(b[0], &req); err != nil {
			return err
		}
		dec.addDur(time.Since(t0))
		var resp apitypes.ShardRunResponse
		if err := json.Unmarshal(b[1], &resp); err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := json.Marshal(resp); err != nil {
			return err
		}
		enc.addDur(time.Since(t0))
		size.add(float64(len(b[1])))
	}
	l["wire.decode_us"] = dec.pctUS(50)
	l["wire.encode_us"] = enc.pctUS(50)
	l["wire.response_bytes"] = size.pct(50)
	return nil
}
