package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// clock is the generator's time source; tests substitute a fake one.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

// realClock reads the monotonic clock. sleepUntil sleeps in the kernel to
// within spinWindow of the deadline and yields in a loop for the rest:
// Go's timers wake up to a millisecond late for sub-millisecond sleeps,
// which is as long as the latencies the serve workload measures.
type realClock struct{ base time.Time }

const spinWindow = 100 * time.Microsecond

func (c realClock) now() time.Duration { return time.Since(c.base) }

func (c realClock) sleepUntil(t time.Duration) {
	if d := t - c.now() - spinWindow; d > 0 {
		preciseSleep(d)
	}
	for c.now() < t {
		runtime.Gosched()
	}
}

// poissonSchedule returns the due times, relative to the start of a rung,
// of Poisson arrivals at rate per second over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if d := time.Duration(t * float64(time.Second)); d < dur {
			out = append(out, d)
			continue
		}
		return out
	}
}

// timing is one open-loop request. due is when the schedule said to send
// it; woke is when the generator got round to it; start and end bracket
// the send itself.
type timing struct {
	due, woke, start, end time.Duration
	// late is how late the generator woke for this request, counted only
	// from when it was free to wait for it: time spent blocked because
	// every sender was busy is the system's backlog, not the generator's.
	late time.Duration
	err  error
}

// latency is the request's latency from when it was due, which charges a
// stall to every request queued behind it.
func (t timing) latency() time.Duration { return t.end - t.due }

// runOpenLoop sends request i at origin+sched[i] through at most senders
// concurrent senders, whatever the system's response times. A request due
// while every sender is busy waits for the next free one. With one sender
// the send runs on the generator's own goroutine. prepare, when set, builds
// request i on the generator's goroutine before it waits for i's due time,
// so inputs need not all be held in memory.
func runOpenLoop(clk clock, sched []time.Duration, senders int, prepare func(i int), send func(i int) error) []timing {
	out := make([]timing, len(sched))
	do := func(i int) {
		t := &out[i]
		t.start = clk.now()
		t.err = send(i)
		t.end = clk.now()
	}
	var (
		work chan int
		wg   sync.WaitGroup
	)
	if senders > 1 {
		work = make(chan int) // unbuffered: a hand-off waits for a free sender
		wg.Add(senders)
		for k := 0; k < senders; k++ {
			go func() {
				defer wg.Done()
				for i := range work {
					do(i)
				}
			}()
		}
	}
	origin := clk.now()
	freeAt := origin
	for i, d := range sched {
		if prepare != nil {
			prepare(i)
			freeAt = max(freeAt, clk.now())
		}
		due := origin + d
		clk.sleepUntil(due)
		woke := clk.now()
		out[i].due, out[i].woke, out[i].late = due, woke, woke-max(due, freeAt)
		if work != nil {
			work <- i
		} else {
			do(i)
		}
		freeAt = clk.now()
	}
	if work != nil {
		close(work)
		wg.Wait()
	}
	return out
}
