package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/server/apitypes"
)

// The evaluate endpoints frame their responses by hand around report bytes
// that come from json.Marshal (explore.Result.ReportJSON), writing in one
// pass through one buffered writer. The framing renders exactly what
// encoding/json renders for apitypes.EvaluateResponse and
// apitypes.BatchResponse; FuzzEvaluateEnvelope holds it to that.

// batchItem is one batch outcome before framing: the caller's design name
// and report bytes, or the error.
type batchItem struct {
	name   string
	report []byte
	err    *apitypes.Error
}

// writers pools the response buffers of the evaluate endpoints.
var writers = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 16<<10) }}

// writeFramed emits a 200 whose body write produces.
func writeFramed(w http.ResponseWriter, write func(*bufio.Writer)) int {
	w.Header().Set("Content-Type", "application/json")
	bw := writers.Get().(*bufio.Writer)
	bw.Reset(w)
	write(bw)
	_ = bw.Flush() // a failed write means the client has gone: no one to tell
	bw.Reset(nil)
	writers.Put(bw)
	return http.StatusOK
}

// writeEvaluateBody writes the apitypes.EvaluateResponse of one design and
// the encoder's trailing newline.
func writeEvaluateBody(bw *bufio.Writer, name string, report []byte) {
	writeResult(bw, name, report)
	_ = bw.WriteByte('\n')
}

// writeBatchBody writes the apitypes.BatchResponse of items and the
// encoder's trailing newline.
func writeBatchBody(bw *bufio.Writer, items []batchItem) {
	failed := 0
	for _, it := range items {
		if it.err != nil {
			failed++
		}
	}
	b := append(bw.AvailableBuffer(), `{"count":`...)
	b = strconv.AppendInt(b, int64(len(items)), 10)
	b = append(b, `,"failed":`...)
	b = strconv.AppendInt(b, int64(failed), 10)
	b = append(b, `,"results":[`...)
	_, _ = bw.Write(b)
	for i, it := range items {
		b = bw.AvailableBuffer()
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"index":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		if it.err != nil {
			// Errors are the rare path: encoding/json renders them.
			msg, _ := json.Marshal(it.err) // two strings: cannot fail
			b = append(append(append(b, `,"error":`...), msg...), '}')
			_, _ = bw.Write(b)
			continue
		}
		_, _ = bw.Write(append(b, `,"result":`...))
		writeResult(bw, it.name, it.report)
		_ = bw.WriteByte('}')
	}
	_, _ = bw.WriteString("]}\n")
}

// writeResult writes {"design":name,"report":report}.
func writeResult(bw *bufio.Writer, name string, report []byte) {
	b := append(bw.AvailableBuffer(), `{"design":`...)
	b = appendJSONString(b, name)
	_, _ = bw.Write(append(b, `,"report":`...))
	_, _ = bw.Write(report)
	_ = bw.WriteByte('}')
}

// appendJSONString appends s as encoding/json renders a string. Design
// names are almost always plain ASCII, which is copied between quotes;
// anything encoding/json would escape or replace goes through it.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' ||
			c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string: cannot fail
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
