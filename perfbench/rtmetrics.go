package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// Runtime metric names read at phase boundaries.
const (
	mLive        = "/gc/heap/live:bytes"
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mAllocObjs   = "/gc/heap/allocs:objects"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU    = "/cpu/classes/total:cpu-seconds"
	mSchedLatens = "/sched/latencies:seconds"
)

// rtSnap is one reading of the runtime counters.
type rtSnap struct {
	allocBytes, allocObjs uint64
	gcCPU, totalCPU       float64
	sched                 *metrics.Float64Histogram
}

func readRuntime() rtSnap {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjs}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mSchedLatens}}
	metrics.Read(s)
	return rtSnap{
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		sched:      s[4].Value.Float64Histogram(),
	}
}

// rtDelta is what the runtime did between two readings.
type rtDelta struct {
	allocBytes, allocObjs float64
	gcCPU                 ratio   // base: all CPU the runtime accounted
	schedP90              float64 // seconds
}

func (a rtSnap) to(b rtSnap) rtDelta {
	d := rtDelta{
		allocBytes: float64(b.allocBytes - a.allocBytes),
		allocObjs:  float64(b.allocObjs - a.allocObjs),
		gcCPU:      ratio{num: b.gcCPU - a.gcCPU, base: b.totalCPU - a.totalCPU},
	}
	counts := make([]uint64, len(b.sched.Counts))
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
	}
	d.schedP90 = histPercentile(b.sched.Buckets, counts, 90)
	return d
}

// histPercentile returns the upper bound of the bucket holding the p-th
// percentile of a runtime/metrics histogram (0 for an empty one).
func histPercentile(buckets []float64, counts []uint64, p float64) float64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(n)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			hi := buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = buckets[i]
			}
			return hi
		}
	}
	return buckets[len(buckets)-1]
}

// heapPeak samples the live heap while a timed phase runs. start forces a
// GC first, so the peak counts what the phase keeps alive, not garbage
// left over from set-up.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{})}
	s := []metrics.Sample{{Name: mLive}}
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// done stops sampling and returns the peak live heap in MB.
func (h *heapPeak) done() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}
