package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request,
// job or chunk share an ID; Parent is the index of the span that caused
// this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so instrumented call sites cost a
// nil check.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<14)} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its index (-1 when untraced).
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: -1})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	d := end - t.spans[i].Start
	t.mu.Unlock()
	return time.Duration(d)
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTime is a span's duration minus the part of its interval covered by
// its children (clipped to the parent's interval; overlapping children
// count once).
func selfTime(spans []span, children [][]int, i int) int64 {
	p := spans[i]
	if p.End < 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children[i] {
		s := spans[c]
		if s.End < 0 {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	covered, curLo, curHi := int64(0), int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return p.dur() - covered
}

// spanStat aggregates the closed spans of one name.
type spanStat struct {
	Name  string
	Count int
	Total samples // per-span durations, ns
	Self  samples // per-span self times, ns
}

// spanStats groups closed spans by name, sorted by total self time.
func spanStats(spans []span) []*spanStat {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := map[string]*spanStat{}
	var out []*spanStat
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
			out = append(out, st)
		}
		st.Count++
		st.Total.add(float64(s.dur()))
		st.Self.add(float64(selfTime(spans, children, i)))
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Self.sum() > out[b].Self.sum() })
	return out
}
