// The fault-injection harness. Every scenario interrupts a job somewhere
// — a worker panic, a store write fault, a dropped event subscriber, a
// hard process "kill" mid-run — and then asserts the one property the
// tier is built around: the job converges to a final summary
// byte-identical to the same job run without faults. Run under -race in
// CI.
package jobs

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/faultpoint"
)

// runToSummary submits the spec and returns the finished job's summary
// bytes.
func runToSummary(t *testing.T, s *Service, spec Spec) (Job, []byte) {
	t.Helper()
	job, err := s.Submit("chaos", "", spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, s, job.ID, StateDone)
	got, _, sum, err := s.Get(job.ID)
	if err != nil || sum == nil {
		t.Fatalf("summary: %v (nil=%v)", err, sum == nil)
	}
	return got, sum
}

// TestChaosWorkerPanic: a panic in the delivery path mid-range is
// contained, the dirty range re-runs once from the last checkpoint, and
// the summary is byte-identical to the clean run.
func TestChaosWorkerPanic(t *testing.T) {
	golden := goldenSummary(t, testSpec())

	s := newTestService(t, Options{CheckpointEvery: 8})
	// Panic on the 19th delivered result: mid-chunk, after two durable
	// checkpoints.
	disarm := faultpoint.ArmN(FaultPointSink, 18, 1, func() error {
		panic("chaos: injected sink panic")
	})
	defer disarm()
	job, sum := runToSummary(t, s, testSpec())
	if string(sum) != string(golden) {
		t.Fatalf("summary after contained panic differs\ngot:  %s\nwant: %s", sum, golden)
	}
	// The re-run must be recorded in the event stream.
	evs, _, stop, _ := s.EventsSince(job.ID, 1)
	stop()
	var rerun bool
	for _, ev := range evs {
		if ev.Type == "error" {
			rerun = true
		}
	}
	if !rerun {
		t.Error("no error event recorded for the contained panic")
	}
}

// TestChaosEvaluatePanic drives the panic through the evaluation worker
// itself (scalar path) rather than the delivery sink.
func TestChaosEvaluatePanic(t *testing.T) {
	golden := goldenSummary(t, testSpec())

	eng := explore.New(core.Default())
	eng.ScalarOnly = true // route through evaluateOne, where the point fires
	s := newTestService(t, Options{
		CheckpointEvery: 8,
		Resolve:         func([]byte) (*explore.Engine, error) { return eng, nil },
	})
	disarm := faultpoint.ArmN(explore.FaultPointEvaluate, 21, 1, func() error {
		panic("chaos: injected worker panic")
	})
	defer disarm()
	_, sum := runToSummary(t, s, testSpec())
	if string(sum) != string(golden) {
		t.Fatalf("summary after worker panic differs\ngot:  %s\nwant: %s", sum, golden)
	}
}

// TestChaosPanicPersists: a panic that strikes the re-run too fails the
// job with the panic recorded — no infinite retry.
func TestChaosPanicPersists(t *testing.T) {
	s := newTestService(t, Options{CheckpointEvery: 8})
	disarm := faultpoint.ArmN(FaultPointSink, 10, 2, func() error {
		panic("chaos: persistent panic")
	})
	defer disarm()
	job, err := s.Submit("chaos", "", testSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, _, _, _ := s.Get(job.ID)
		if j.State.Terminal() {
			if j.State != StateFailed {
				t.Fatalf("job ended %q, want failed", j.State)
			}
			if j.Panic == "" {
				t.Fatalf("failed job does not record the panic: %+v", j)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not terminate")
}

// TestChaosStoreWriteFaults: transient append failures (checkpoint and
// event writes alike) are retried and the job converges byte-identically.
func TestChaosStoreWriteFaults(t *testing.T) {
	golden := goldenSummary(t, testSpec())

	s := newTestService(t, Options{CheckpointEvery: 8})
	boom := errors.New("chaos: injected store fault")
	// Three scattered one-shot faults across the record stream.
	for _, after := range []int{2, 5, 9} {
		disarm := faultpoint.ArmN(FaultPointAppend, after, 1, func() error { return boom })
		defer disarm()
	}
	_, sum := runToSummary(t, s, testSpec())
	if string(sum) != string(golden) {
		t.Fatalf("summary after store faults differs\ngot:  %s\nwant: %s", sum, golden)
	}
}

// TestChaosStoreDown: a store that keeps failing fails the job (after
// retries) instead of wedging it.
func TestChaosStoreDown(t *testing.T) {
	s := newTestService(t, Options{CheckpointEvery: 8})
	// Slow the stream down so the store failure lands while the job is
	// still running.
	throttle := faultpoint.Arm(FaultPointSink, func() error {
		time.Sleep(500 * time.Microsecond)
		return nil
	})
	defer throttle()
	job, err := s.Submit("chaos", "", testSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Let the submit record through, then fail every later append.
	disarm := faultpoint.Arm(FaultPointAppend, func() error {
		return errors.New("chaos: store down")
	})
	defer disarm()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, _, _, _ := s.Get(job.ID)
		if j.State.Terminal() {
			if j.State != StateFailed {
				t.Fatalf("job ended %q, want failed", j.State)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not terminate with the store down")
}

// TestChaosSubscriberChurn: event subscribers that connect, drop
// mid-stream and reattach with ?from= cursors observe one contiguous,
// gap-free, duplicate-free event sequence ending in the golden summary.
func TestChaosSubscriberChurn(t *testing.T) {
	golden := goldenSummary(t, testSpec())

	s := newTestService(t, Options{CheckpointEvery: 4})
	// Throttle so the stream outlives several subscriber generations.
	disarm := faultpoint.Arm(FaultPointSink, func() error {
		time.Sleep(200 * time.Microsecond)
		return nil
	})
	defer disarm()
	job, err := s.Submit("chaos", "", testSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	var collected []Event
	next := 1
	// The job turns terminal before its terminal state event is emitted,
	// so the subscriber stops, as the HTTP event stream does, at that
	// event rather than at the job's state.
	deadline := time.Now().Add(30 * time.Second)
	for {
		evs, notify, stop, err := s.EventsSince(job.ID, next)
		if err != nil {
			t.Fatalf("subscribe from %d: %v", next, err)
		}
		collected = append(collected, evs...)
		if len(evs) > 0 {
			next = evs[len(evs)-1].Seq + 1
			if last := evs[len(evs)-1]; last.Type == "state" && last.State.Terminal() {
				stop()
				break
			}
		}
		if time.Now().After(deadline) {
			stop()
			t.Fatalf("no terminal state event after %d events", len(collected))
		}
		// Simulate a dropped connection: wait briefly for traffic, then
		// abandon this subscription and reattach with the cursor.
		select {
		case <-notify:
		case <-time.After(10 * time.Millisecond):
		}
		stop()
	}
	for i, ev := range collected {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d — churned subscriber saw a gap or duplicate", i, ev.Seq)
		}
	}
	last := collected[len(collected)-1]
	if last.Type != "state" || last.State != StateDone {
		t.Fatalf("stream does not end at done: %+v", last)
	}
	var sum json.RawMessage
	for _, ev := range collected {
		if ev.Type == "summary" {
			sum = ev.Summary
		}
	}
	if string(sum) != string(golden) {
		t.Fatalf("summary event differs from golden\ngot:  %s\nwant: %s", sum, golden)
	}
}

// TestChaosHardRestart: the process "dies" (Abort: no graceful
// checkpoint, no further writes) mid-job; a fresh service over the same
// store file resumes from the last durable checkpoint and produces the
// byte-identical summary.
func TestChaosHardRestart(t *testing.T) {
	golden := goldenSummary(t, testSpec())
	path := filepath.Join(t.TempDir(), "chaos.ndjson")

	store, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	svc, err := New(Options{Store: store, Resolve: testResolve(t), CheckpointEvery: 4})
	if err != nil {
		t.Fatalf("new service: %v", err)
	}
	// Throttle so the kill lands mid-job.
	disarm := faultpoint.Arm(FaultPointSink, func() error {
		time.Sleep(500 * time.Microsecond)
		return nil
	})
	job, err := svc.Submit("chaos", "", testSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Wait for at least one durable checkpoint, then pull the plug.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, prog, _, _ := svc.Get(job.ID); prog.NextIndex > 0 && prog.NextIndex < prog.Total {
			break
		}
		time.Sleep(time.Millisecond)
	}
	svc.Abort()
	disarm()

	// "Restart": reopen the same file; replay finds the interrupted job
	// and resumes it.
	store2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	svc2 := newTestService(t, Options{Store: store2, CheckpointEvery: 4})
	resumed, _, _, err := svc2.Get(job.ID)
	if err != nil {
		t.Fatalf("job lost across restart: %v", err)
	}
	if resumed.State.Terminal() {
		// The kill may have landed after completion; the summary check
		// below still applies.
		t.Logf("job already terminal after restart: %s", resumed.State)
	}
	waitState(t, svc2, job.ID, StateDone)
	_, _, sum, err := svc2.Get(job.ID)
	if err != nil {
		t.Fatalf("summary after restart: %v", err)
	}
	if string(sum) != string(golden) {
		t.Fatalf("summary after hard restart differs\ngot:  %s\nwant: %s", sum, golden)
	}
}

// TestChaosEverything: panics, store faults and a hard restart in one
// job's lifetime — the full gauntlet, still byte-identical.
func TestChaosEverything(t *testing.T) {
	golden := goldenSummary(t, testSpec())
	path := filepath.Join(t.TempDir(), "gauntlet.ndjson")

	store, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	svc, err := New(Options{Store: store, Resolve: testResolve(t), CheckpointEvery: 4})
	if err != nil {
		t.Fatalf("new service: %v", err)
	}
	throttle := faultpoint.Arm(FaultPointSink, func() error {
		time.Sleep(300 * time.Microsecond)
		return nil
	})
	panicAt := faultpoint.ArmN(FaultPointSink, 9, 1, func() error {
		panic("gauntlet: worker panic")
	})
	storeFault := faultpoint.ArmN(FaultPointAppend, 6, 1, func() error {
		return errors.New("gauntlet: store fault")
	})
	defer panicAt()
	defer storeFault()

	job, err := svc.Submit("chaos", "", testSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, prog, _, _ := svc.Get(job.ID); prog.NextIndex >= 8 && prog.NextIndex < prog.Total {
			break
		}
		time.Sleep(time.Millisecond)
	}
	svc.Abort()
	throttle()

	store2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	svc2 := newTestService(t, Options{Store: store2, CheckpointEvery: 4})
	waitState(t, svc2, job.ID, StateDone)
	_, _, sum, err := svc2.Get(job.ID)
	if err != nil {
		t.Fatalf("summary: %v", err)
	}
	if string(sum) != string(golden) {
		t.Fatalf("summary after the gauntlet differs\ngot:  %s\nwant: %s", sum, golden)
	}
}
