// The checkpointed job runner. A job advances in fixed index-range chunks
// through the positional exploration cursor; after every chunk the online
// reducers are snapshotted and persisted together with the next index.
// Any interruption — panic, fault, park, crash — rolls back to the last
// durable checkpoint and re-runs from there, and because reducer restore
// is bit-exact and delivery is in enumeration order, the final summary is
// byte-identical to an uninterrupted run no matter how many times the job
// was cut.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/explore"
	"repro/internal/faultpoint"
)

// reducers bundles the three online reducers a job folds its stream into.
type reducers struct {
	ranked   *explore.PointTopK
	frontier *explore.PointFrontier
	stats    *explore.RunningStats
}

// newReducers builds the reducer set — fresh with the given ranking bound,
// or restored from a checkpoint (which carries its own bound).
func newReducers(top int, cp *Checkpoint) (*reducers, error) {
	r := &reducers{
		ranked:   explore.NewPointTopK(top),
		frontier: explore.NewPointFrontier(),
		stats:    &explore.RunningStats{},
	}
	if cp == nil {
		return r, nil
	}
	if err := r.ranked.Restore(cp.Ranked); err != nil {
		return nil, fmt.Errorf("jobs: restore ranking: %w", err)
	}
	if err := r.frontier.Restore(cp.Frontier); err != nil {
		return nil, fmt.Errorf("jobs: restore frontier: %w", err)
	}
	if err := r.stats.Restore(cp.Stats); err != nil {
		return nil, fmt.Errorf("jobs: restore stats: %w", err)
	}
	return r, nil
}

func (r *reducers) add(res explore.Result) {
	r.stats.Add(res)
	if res.Err == nil {
		p := explore.PointOf(res)
		r.ranked.Add(p)
		r.frontier.Add(p)
	}
}

// checkpoint snapshots the reducer set as of nextIndex.
func (r *reducers) checkpoint(nextIndex int) (Checkpoint, error) {
	ranked, err := r.ranked.Snapshot()
	if err != nil {
		return Checkpoint{}, err
	}
	frontier, err := r.frontier.Snapshot()
	if err != nil {
		return Checkpoint{}, err
	}
	stats, err := r.stats.Snapshot()
	if err != nil {
		return Checkpoint{}, err
	}
	return Checkpoint{NextIndex: nextIndex, Ranked: ranked, Frontier: frontier, Stats: stats}, nil
}

// summaryBytes renders the canonical summary. All numeric inputs are
// restored bit-exactly, so the bytes are identical across resumes.
func (r *reducers) summaryBytes(total int) ([]byte, error) {
	sum := Summary{
		Candidates: total,
		Evaluated:  r.stats.OK,
		Failed:     r.stats.Failed,
		Ranked:     pointIDs(r.ranked.Points()),
		Frontier:   pointIDs(r.frontier.Points()),
		MinKg:      r.stats.MinTotal,
		MaxKg:      r.stats.MaxTotal,
		MeanKg:     r.stats.MeanTotal(),
	}
	return json.Marshal(sum)
}

func pointIDs(pts []explore.Point) []string {
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = p.ID
	}
	return out
}

// run executes one leased job until a terminal state, a park, or an
// abort. It owns the job's state transitions while running.
func (s *Service) run(ctx context.Context, h *runHandle, id string) {
	defer func() {
		s.mu.Lock()
		delete(s.running, id)
		s.mu.Unlock()
		s.kick()
	}()

	s.mu.Lock()
	e := s.jobs[id]
	job := e.job
	var cp *Checkpoint
	if e.cp != nil {
		c := *e.cp
		cp = &c
	}
	s.mu.Unlock()

	fail := func(msg, panicMsg string) {
		s.mu.Lock()
		s.setStateLocked(e, StateFailed, msg, panicMsg)
		job := e.job
		s.mu.Unlock()
		s.cFailed.Add(1)
		s.lim.release(job.Tenant)
		s.persist(Record{Kind: "job", Job: &job})
		s.emit(id, Event{Type: "error", Error: msg})
		s.emit(id, Event{Type: "state", State: StateFailed})
		s.logf("job %s failed: %s", id, msg)
	}

	eng, err := s.opts.Resolve(job.Spec.Params)
	if err != nil {
		fail("resolve engine: "+err.Error(), "")
		return
	}
	space, err := job.Spec.Space.SpaceWith(eng.Model.GridDB())
	if err != nil {
		fail("invalid space: "+err.Error(), "")
		return
	}
	it, err := space.Iter()
	if err != nil {
		fail("space does not enumerate: "+err.Error(), "")
		return
	}
	// One compiled plan for the whole run: repeated StreamRange chunks
	// share its embodied-term slots.
	src := it.Plan()

	// Large jobs split into index-range shards executed concurrently over
	// the sequencer-free reduce path; everything below stays the single-
	// cursor ordered path (and stays byte-compatible with pre-shard
	// checkpoints).
	if k := s.shardCount(job.Total, cp); k > 1 {
		s.runSharded(ctx, h, e, id, job, eng, src, cp, k, fail)
		return
	}

	red, err := newReducers(job.Spec.Top, cp)
	if err != nil {
		// A corrupt checkpoint cannot be resumed; restart from scratch
		// rather than wedging the job forever.
		s.logf("job %s: %v — restarting from index 0", id, err)
		red, _ = newReducers(job.Spec.Top, nil)
		cp = nil
	}
	next := cpIndex(cp)
	lastCP := Checkpoint{}
	if cp != nil {
		lastCP = *cp
	} else if lastCP, err = red.checkpoint(0); err != nil {
		fail("checkpoint: "+err.Error(), "")
		return
	}

	every := s.opts.checkpointEvery()
	dirtyRetried := false
	for next < job.Total {
		hi := next + every
		if hi > job.Total {
			hi = job.Total
		}
		_, err := eng.StreamRange(ctx, src, next, hi, func(res explore.Result) error {
			if err := faultpoint.Hit(FaultPointSink); err != nil {
				return err
			}
			red.add(res)
			return nil
		})
		if err == nil {
			dirtyRetried = false
			ncp, cerr := red.checkpoint(hi)
			if cerr != nil {
				fail("checkpoint: "+cerr.Error(), "")
				return
			}
			if perr := s.persist(Record{Kind: "checkpoint", JobID: id, Checkpoint: &ncp}); perr != nil {
				if s.aborted.Load() {
					return
				}
				fail("persist checkpoint: "+perr.Error(), "")
				return
			}
			lastCP = ncp
			s.mu.Lock()
			e.cp = &ncp
			s.mu.Unlock()
			s.emit(id, Event{Type: "progress", Progress: &Progress{NextIndex: hi, Total: job.Total}})
			next = hi
			// A park/cancel requested mid-chunk lands here with the chunk
			// completed; honor it at the boundary.
			if r := stopReason(h.reason.Load()); r != stopNone || ctx.Err() != nil {
				s.stopAt(e, id, r)
				return
			}
			continue
		}

		// The chunk failed: the reducers may hold a partial prefix of it.
		// Every recovery path below restarts from lastCP, which excludes
		// this chunk entirely — no double-adds, no gaps.
		if ctx.Err() != nil {
			s.stopAt(e, id, stopReason(h.reason.Load()))
			return
		}
		var rerr error
		if red, rerr = rollback(job.Spec.Top, lastCP, red); rerr != nil {
			fail("rollback: "+rerr.Error(), "")
			return
		}
		var pe *explore.PanicError
		if errors.As(err, &pe) {
			if !dirtyRetried {
				dirtyRetried = true
				s.emit(id, Event{Type: "error",
					Error: fmt.Sprintf("worker panic in range [%d,%d): %v — re-running range once", next, hi, pe.Value)})
				s.logf("job %s: contained panic in [%d,%d), re-running", id, next, hi)
				continue
			}
			fail(fmt.Sprintf("worker panic in range [%d,%d) persisted across re-run", next, hi),
				fmt.Sprintf("%v", pe.Value))
			return
		}
		if !dirtyRetried {
			dirtyRetried = true
			s.emit(id, Event{Type: "error",
				Error: fmt.Sprintf("fault in range [%d,%d): %v — re-running range once", next, hi, err)})
			continue
		}
		fail(fmt.Sprintf("range [%d,%d) failed across re-run: %v", next, hi, err), "")
		return
	}

	sum, err := red.summaryBytes(job.Total)
	if err != nil {
		fail("summarize: "+err.Error(), "")
		return
	}
	s.finishDone(e, id, sum)
}

// finishDone performs the terminal done transition: summary event,
// persist, state event, counters, quota release. The summary is durable
// before the done record: a stop between the two replays as a running job
// that resumes from its checkpoint and finishes again, where the reverse
// order would replay a done job that has lost its summary for good.
func (s *Service) finishDone(e *jobEntry, id string, sum []byte) {
	s.emit(id, Event{Type: "summary", Summary: sum})
	s.mu.Lock()
	s.setStateLocked(e, StateDone, "", "")
	job := e.job
	s.mu.Unlock()
	s.cDone.Add(1)
	s.lim.release(job.Tenant)
	s.persist(Record{Kind: "job", Job: &job})
	s.emit(id, Event{Type: "state", State: StateDone})
	s.logf("job %s done (%d candidates)", id, job.Total)
}

// rollback rebuilds the reducers from the last durable checkpoint. The
// err result is pedantic: lastCP was produced by these same reducers, so
// restore can only fail on programmer error.
func rollback(top int, lastCP Checkpoint, _ *reducers) (*reducers, error) {
	return newReducers(top, &lastCP)
}

// stopAt finalizes a runner that stopped at a chunk boundary (or rolled
// back to one): user cancel → cancelled; park/drain → shedding, back in
// the queue; abort → exit without persisting anything.
func (s *Service) stopAt(e *jobEntry, id string, r stopReason) {
	switch r {
	case stopAbort:
		return
	case stopCancel:
		s.mu.Lock()
		s.setStateLocked(e, StateCancelled, "", "")
		job := e.job
		s.mu.Unlock()
		s.cCancelled.Add(1)
		s.lim.release(job.Tenant)
		s.persist(Record{Kind: "job", Job: &job})
		s.emit(id, Event{Type: "state", State: StateCancelled})
		s.logf("job %s cancelled", id)
	default:
		// stopPark, or an unattributed context cancellation (service
		// shutdown): park with the work checkpointed.
		s.mu.Lock()
		s.setStateLocked(e, StateShedding, "", "")
		s.queue = append(s.queue, id)
		job := e.job
		at := cpIndex(e.cp)
		s.mu.Unlock()
		s.cShed.Add(1)
		s.persist(Record{Kind: "job", Job: &job})
		s.emit(id, Event{Type: "state", State: StateShedding})
		s.logf("job %s parked at %d/%d", id, at, job.Total)
	}
}
