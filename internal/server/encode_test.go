package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/explore"
	"repro/internal/server/apitypes"
)

// Every endpoint that parses a body with decode accepts whitespace after the
// request value and rejects anything else, closing delimiters included.
func TestDecodeRejectsTrailingData(t *testing.T) {
	lakefield := loadLakefield(t)
	space := jobSpaceBody()
	endpoints := []struct {
		path string
		body any
	}{
		{"/v1/evaluate", apitypes.EvaluateRequest{Design: lakefield}},
		{"/v1/evaluate/batch", apitypes.BatchRequest{Designs: []*design.Design{lakefield}}},
		{"/v1/explore", space},
		{"/v1/optimize", apitypes.OptimizeRequest{Space: optimizeSpec()}},
		{"/v1/jobs", space},
		{"/v1/shards/run", apitypes.ShardRunRequest{}},
		{"/v1/replicas", apitypes.RegisterReplicaRequest{URL: "ftp://not-a-replica"}},
	}
	trailers := []struct {
		trailer string
		ok      bool
	}{
		{"", true}, {"\n", true},
		{"}", false}, {"]", false}, {"}}", false}, {" x", false}, {" {}", false},
	}
	s := New(Options{})
	defer s.Shutdown(context.Background())
	for _, ep := range endpoints {
		raw, err := json.Marshal(ep.body)
		if err != nil {
			t.Fatal(err)
		}
		base := post(t, s, ep.path, string(raw))
		if strings.Contains(base.Body.String(), "after its JSON value") {
			t.Fatalf("%s: the bare body is rejected: %s", ep.path, base.Body)
		}
		for _, tc := range trailers {
			rec := post(t, s, ep.path, string(raw)+tc.trailer)
			switch {
			case tc.ok && rec.Code != base.Code:
				t.Errorf("%s + %q: status %d, want the bare body's %d (%s)",
					ep.path, tc.trailer, rec.Code, base.Code, rec.Body)
			case !tc.ok && rec.Code != http.StatusBadRequest:
				t.Errorf("%s + %q: status %d, want 400 (%s)", ep.path, tc.trailer, rec.Code, rec.Body)
			case !tc.ok && !strings.Contains(rec.Body.String(), "after its JSON value"):
				t.Errorf("%s + %q: body %s does not name the trailing data", ep.path, tc.trailer, rec.Body)
			}
		}
	}
}

// envelopeReports evaluates two shipped designs and returns their reports.
func envelopeReports(tb testing.TB) []*core.TotalReport {
	tb.Helper()
	var cands []explore.Candidate
	for _, name := range []string{"lakefield", "orin-emib"} {
		d, err := design.Load("../../designs/" + name + ".json")
		if err != nil {
			tb.Fatal(err)
		}
		w, eff := (*apitypes.WorkloadSpec)(nil).Resolve()
		cands = append(cands, explore.Candidate{ID: name, Design: d, Workload: w, Eff: eff})
	}
	results, err := explore.New(core.Default()).Evaluate(context.Background(), cands)
	if err != nil {
		tb.Fatal(err)
	}
	reps := make([]*core.TotalReport, len(results))
	for i, r := range results {
		if r.Err != nil {
			tb.Fatal(r.Err)
		}
		reps[i] = r.Report
	}
	return reps
}

// FuzzEvaluateEnvelope holds the hand-written framing to encoding/json:
// the single body must equal json.Marshal of apitypes.EvaluateResponse plus
// the newline, and the batch body what a json.Encoder writes for
// apitypes.BatchResponse, for any design name and error message and any mix
// of result and error items. mask bit k makes item k an error; n bounds the
// batch to 0–15 items. A 16-byte buffer makes every item cross a flush.
func FuzzEvaluateEnvelope(f *testing.F) {
	reps := envelopeReports(f)
	bodies := make([][]byte, len(reps))
	for i, r := range reps {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		bodies[i] = b
	}
	f.Add("lakefield", "bad die", uint8(3), uint16(0))
	f.Add("a<b>&c\u2028d\u2029e", "x<y", uint8(5), uint16(0b10110))
	f.Add("\xff\xfeinvalid\xc3", "\xff", uint8(2), uint16(0b01))
	f.Add("ctl\x00\x01\x1f\b\f\n\r\t\"\\/", "\x7fé", uint8(4), uint16(0b1010))
	f.Add("", "", uint8(0), uint16(0))
	f.Add("all-failed", "no", uint8(15), uint16(0xffff))
	// One character that needs escaping per name, so each escape check
	// is exercised on its own.
	for _, name := range []string{"lt<", "gt>", "amp&", `quote"`, `bs\`, "ctl\x01", "nul\x00", "utf8é", "ls\u2028", "ff\xff"} {
		f.Add(name, "", uint8(1), uint16(0))
	}
	f.Fuzz(func(t *testing.T, name, msg string, n uint8, mask uint16) {
		var got bytes.Buffer
		bw := bufio.NewWriterSize(&got, 16)
		writeEvaluateBody(bw, name, bodies[0])
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(apitypes.EvaluateResponse{Design: name, Report: reps[0]})
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("single body differs from encoding/json\ngot:  %q\nwant: %q", got.Bytes(), want)
		}

		items := make([]batchItem, n%16)
		oracle := apitypes.BatchResponse{Count: len(items), Results: []apitypes.BatchItem{}}
		for k := range items {
			o := apitypes.BatchItem{Index: k}
			if mask&(1<<k) != 0 {
				items[k].err = &apitypes.Error{Code: "invalid_design", Message: msg + name}
				o.Error = items[k].err
				oracle.Failed++
			} else {
				r := k % len(reps)
				items[k].name, items[k].report = name, bodies[r]
				if o.Result, err = json.Marshal(apitypes.EvaluateResponse{Design: name, Report: reps[r]}); err != nil {
					t.Fatal(err)
				}
			}
			oracle.Results = append(oracle.Results, o)
		}
		got.Reset()
		bw.Reset(&got)
		writeBatchBody(bw, items)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		var wantBuf bytes.Buffer
		if err := json.NewEncoder(&wantBuf).Encode(oracle); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), wantBuf.Bytes()) {
			t.Fatalf("batch body differs from encoding/json\ngot:  %q\nwant: %q", got.Bytes(), wantBuf.Bytes())
		}
	})
}

// Concurrent batches over the same designs race to encode, keep and reuse
// the same memo entries' bytes; every response must be the bytes a lone
// cold batch produces. Run under -race.
func TestConcurrentBatchesSameDesigns(t *testing.T) {
	req := mixedBatch(t)
	// Drop the duplicates of earlier designs: which of two concurrent
	// requests reaches the memo first would decide the names inside their
	// shared report.
	req.Designs = append(req.Designs[:8:8], req.Designs[10:]...)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	want := post(t, New(Options{}), "/v1/evaluate/batch", string(body))
	if want.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", want.Code, want.Body)
	}
	s := New(Options{MaxConcurrent: 16})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate/batch",
					bytes.NewReader(body)))
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
					errs <- rec.Body.String()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent batch answered differently from a cold one:\n%s", e)
	}
}
