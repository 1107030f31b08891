package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"

	"repro/internal/design"
	"repro/internal/server/apitypes"
)

// benchDesigns builds n distinct ORIN-class designs (distinct die areas, so
// the memoization cache cannot collapse them).
func benchDesigns(b *testing.B, n int) []*design.Design {
	b.Helper()
	raw, err := os.ReadFile("../../designs/lakefield.json")
	if err != nil {
		b.Fatal(err)
	}
	out := make([]*design.Design, n)
	for i := range out {
		d, err := design.Unmarshal(raw)
		if err != nil {
			b.Fatal(err)
		}
		d.Dies[1].AreaMM2 = 82.5 + float64(i)*0.01
		out[i] = d
	}
	return out
}

// BenchmarkBatchThroughput measures end-to-end designs/sec through POST
// /v1/evaluate/batch — JSON decode, fan-out, evaluation and encode — with a
// cold cache per batch size. This is the number CI tracks in
// BENCH_serve.json.
func BenchmarkBatchThroughput(b *testing.B) {
	for _, size := range []int{1, 16, 128} {
		b.Run(fmtInt(size), func(b *testing.B) {
			designs := benchDesigns(b, size)
			body, err := json.Marshal(apitypes.BatchRequest{Designs: designs})
			if err != nil {
				b.Fatal(err)
			}
			s := New(Options{CacheLimit: -1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/evaluate/batch",
					bytes.NewReader(body))
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			b.StopTimer()
			elapsed := b.Elapsed()
			if elapsed > 0 {
				b.ReportMetric(float64(size*b.N)/elapsed.Seconds(), "designs/s")
			}
		})
	}
}

// BenchmarkBatchWarmCache is the duplicated-fleet case: every design after
// the first is a cache hit, so throughput approaches serialization cost.
func BenchmarkBatchWarmCache(b *testing.B) {
	designs := benchDesigns(b, 1)
	req := apitypes.BatchRequest{}
	for i := 0; i < 128; i++ {
		req.Designs = append(req.Designs, designs[0])
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	s := New(Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		httpReq := httptest.NewRequest(http.MethodPost, "/v1/evaluate/batch",
			bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httpReq)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkBatchServeMix is the batch of the serve mix: 32 designs, 22 from
// a hot set the memo already holds and 10 never seen before, so each batch
// evaluates 10 designs and encodes 32 reports. The body is assembled in the
// timed loop from pre-encoded pieces (a few memcpys per batch).
func BenchmarkBatchServeMix(b *testing.B) {
	const hot, fresh = 22, 10
	hotDesigns := benchDesigns(b, hot)
	hotBody, err := json.Marshal(hotDesigns)
	if err != nil {
		b.Fatal(err)
	}
	// The fresh designs are the first hot design with a die area no other
	// batch uses, spliced into its encoding at a sentinel value.
	tmpl := benchDesigns(b, 1)[0]
	tmpl.Dies[1].AreaMM2 = 12345.5
	raw, err := json.Marshal(tmpl)
	if err != nil {
		b.Fatal(err)
	}
	pre, post, ok := bytes.Cut(raw, []byte("12345.5"))
	if !ok {
		b.Fatal("sentinel area not found in the encoded design")
	}
	s := New(Options{})
	send := func(body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/evaluate/batch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	send(append(append([]byte(`{"designs":`), hotBody...), '}')) // warm the hot set

	var body []byte
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = append(append(body[:0], `{"designs":`...), hotBody[:len(hotBody)-1]...)
		for k := 0; k < fresh; k++ {
			next++
			body = append(append(body, ','), pre...)
			body = strconv.AppendFloat(body, 90+float64(next)*1e-6, 'g', -1, 64)
			body = append(body, post...)
		}
		send(append(body, "]}"...))
	}
}

// BenchmarkEvaluateSingle is the single-request hot path.
func BenchmarkEvaluateSingle(b *testing.B) {
	designs := benchDesigns(b, 1)
	body, err := json.Marshal(apitypes.EvaluateRequest{Design: designs[0]})
	if err != nil {
		b.Fatal(err)
	}
	s := New(Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

func fmtInt(n int) string { return "designs=" + itoa(n) }
