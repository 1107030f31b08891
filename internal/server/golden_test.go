package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/design"
	"repro/internal/server/apitypes"
	"repro/internal/split"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// The /v1/evaluate body for the shipped Lakefield design is pinned: any
// model change, report-struct change or encoder change that moves a single
// byte of the wire format shows up as a golden diff. Clients depend on this
// shape.
func TestGoldenEvaluateLakefield(t *testing.T) {
	s := New(Options{})
	rec := post(t, s, "/v1/evaluate", apitypes.EvaluateRequest{Design: loadLakefield(t)})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	// Pin the indented form: readable diffs, same bytes underneath.
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, rec.Body.Bytes(), "", "  "); err != nil {
		t.Fatal(err)
	}
	got := pretty.Bytes()

	path := filepath.Join("testdata", "evaluate_lakefield.golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/v1/evaluate body for lakefield drifted from the golden file.\ngot:\n%s\nwant:\n%s\n(run with -update if the change is intended)",
			got, want)
	}
}

// The /v1/evaluate body for Lakefield under the shipped 2030-decarbonized
// profile (sent as an inline params overlay) is pinned too: the overlay
// path is part of the wire contract, and its report must stay distinct
// from the baseline golden above.
func TestGoldenEvaluateLakefieldWithProfile(t *testing.T) {
	overlay, err := os.ReadFile(filepath.Join("..", "..", "profiles", "grid-2030-decarbonized.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{})
	rec := post(t, s, "/v1/evaluate", apitypes.EvaluateRequest{
		Design: loadLakefield(t),
		Params: json.RawMessage(overlay),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, rec.Body.Bytes(), "", "  "); err != nil {
		t.Fatal(err)
	}
	got := pretty.Bytes()

	path := filepath.Join("testdata", "evaluate_lakefield_grid2030.golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("profile /v1/evaluate body drifted from the golden file (run with -update if intended)\ngot:\n%s", got)
	}
	baseline, err := os.ReadFile(filepath.Join("testdata", "evaluate_lakefield.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, baseline) {
		t.Error("profile evaluation reproduced the baseline golden")
	}
}

// The /v1/evaluate/batch body for a mixed batch is pinned too. It covers
// the framing cases the batch writer must render exactly like
// encoding/json: every shipped design, a renamed duplicate (the memo-shared
// report keeps the first-seen names inside it while the envelope carries the
// caller's name), a name that needs HTML and U+2028 escaping, a null entry,
// an invalid design and a bandwidth_infeasible item. The batch is sent
// three times: cold, then twice warm, so the body is checked on the paths
// that encode a report fresh, keep its bytes and reuse the kept bytes.
func TestGoldenEvaluateBatchMixed(t *testing.T) {
	req := mixedBatch(t)
	// One worker: which of two duplicates reaches the memo first decides
	// the names inside their shared report, so the order must be fixed.
	s := New(Options{Workers: 1})
	path := filepath.Join("testdata", "evaluate_batch_mixed.golden.json")
	for call := 0; call < 3; call++ {
		rec := post(t, s, "/v1/evaluate/batch", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("call %d: status = %d: %s", call, rec.Code, rec.Body)
		}
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, rec.Body.Bytes(), "", "  "); err != nil {
			t.Fatal(err)
		}
		got := pretty.Bytes()
		if *update && call == 0 {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to regenerate)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("call %d: /v1/evaluate/batch body drifted from the golden file (run with -update if intended)\ngot:\n%s",
				call, got)
		}
	}
}

// mixedBatch builds the golden batch request: the shipped designs, then the
// renamed duplicate, the escaped name, a null, an invalid design and an
// MCM split that fails the §3.4 bandwidth constraint.
func mixedBatch(t *testing.T) apitypes.BatchRequest {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "designs", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped designs: %v", err)
	}
	req := apitypes.BatchRequest{RequireBandwidthValid: true}
	for _, f := range files {
		d, err := design.Load(f)
		if err != nil {
			t.Fatal(err)
		}
		req.Designs = append(req.Designs, d)
	}
	renamed := loadLakefield(t)
	renamed.Name = "lakefield-renamed"
	escaped := loadLakefield(t)
	escaped.Name = "a<b>&c\u2028d"
	invalid := loadLakefield(t)
	invalid.Integration = "quantum-stack"
	mcm, err := split.Homogeneous(split.Chip{Name: "bw", ProcessNM: 7, Gates: 17e9}, "mcm")
	if err != nil {
		t.Fatal(err)
	}
	req.Designs = append(req.Designs, renamed, escaped, nil, invalid, mcm)
	return req
}
