package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ic"
	"repro/internal/split"
)

// reportJSONCand is an embodied-only hybrid 3D candidate of gates gates.
func reportJSONCand(t *testing.T, gates float64) Candidate {
	t.Helper()
	d, err := split.Homogeneous(split.Chip{Name: "rj", ProcessNM: 7, Gates: gates}, ic.Hybrid3D)
	if err != nil {
		t.Fatal(err)
	}
	return Candidate{ID: d.Name, Design: d}
}

func evalOne(t *testing.T, e *Engine, c Candidate) Result {
	t.Helper()
	res, err := e.Evaluate(context.Background(), []Candidate{c})
	if err != nil || res[0].Err != nil {
		t.Fatalf("evaluate: %v %v", err, res[0].Err)
	}
	return res[0]
}

// A memo entry's body walks nil → encodedOnce → kept bytes, and the kept
// bytes are exactly json.Marshal of the report.
func TestReportJSONKeepsFromSecondEncode(t *testing.T) {
	e := New(core.Default())
	r := evalOne(t, e, reportJSONCand(t, 17e9))
	if r.memo == nil || r.memo.rep != r.Report {
		t.Fatal("an Evaluate result does not carry its memo entry")
	}
	want, err := json.Marshal(r.Report)
	if err != nil {
		t.Fatal(err)
	}
	if r.memo.body.Load() != nil {
		t.Fatal("a report never encoded holds a body")
	}
	for i := 1; i <= 3; i++ {
		b, err := r.ReportJSON()
		if err != nil || !bytes.Equal(b, want) {
			t.Fatalf("encode %d: %v, bytes equal json.Marshal: %v", i, err, bytes.Equal(b, want))
		}
		switch kept := r.memo.body.Load(); {
		case i == 1 && kept != encodedOnce:
			t.Fatal("a report encoded once keeps bytes")
		case i > 1 && (kept == nil || kept == encodedOnce):
			t.Fatalf("encode %d kept no bytes", i)
		case i == 3 && &(*kept)[0] != &b[0]:
			t.Fatal("encode 3 did not return the kept bytes")
		}
	}
	// A caller that swaps the report of its result gets that report's
	// bytes, never the entry's.
	swapped := r
	swapped.Report = &core.TotalReport{Embodied: r.Report.Embodied, Total: r.Report.Total + 1}
	want, err = json.Marshal(swapped.Report)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := swapped.ReportJSON(); err != nil || !bytes.Equal(b, want) {
		t.Fatal("a swapped report was not encoded on its own")
	}
}

// Concurrent encodes of one reused report settle on exactly one kept copy.
func TestReportJSONConcurrentKeepsOneCopy(t *testing.T) {
	e := New(core.Default())
	c := reportJSONCand(t, 17e9)
	if _, err := evalOne(t, e, c).ReportJSON(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Evaluate(context.Background(), []Candidate{c})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := res[0].ReportJSON(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	r := evalOne(t, e, c)
	kept := r.memo.body.Load()
	if kept == nil || kept == encodedOnce {
		t.Fatal("a report encoded nine times kept no bytes")
	}
	for i := 0; i < 3; i++ {
		if b, _ := r.ReportJSON(); &b[0] != &(*kept)[0] {
			t.Fatal("the kept copy changed after it was kept")
		}
	}
}

// Eviction drops the entry and its kept bytes with it: the design's next
// evaluation lands in a fresh entry that holds nothing.
func TestReportJSONEvictedWithEntry(t *testing.T) {
	e := New(core.Default())
	e.CacheLimit = 1
	a, b := reportJSONCand(t, 17e9), reportJSONCand(t, 25e9)
	ra := evalOne(t, e, a)
	for i := 0; i < 2; i++ {
		if _, err := ra.ReportJSON(); err != nil {
			t.Fatal(err)
		}
	}
	evalOne(t, e, b)
	if e.Stats().Evictions == 0 {
		t.Fatal("CacheLimit 1 evicted nothing")
	}
	again := evalOne(t, e, a)
	if again.memo == ra.memo || again.memo.body.Load() != nil {
		t.Fatal("the re-evaluated design kept the evicted entry's bytes")
	}
}
