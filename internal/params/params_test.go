package params

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/grid"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default set invalid: %v", err)
	}
}

// The profile format round-trips exactly: serializing the baseline and
// re-parsing it reproduces the same canonical bytes and fingerprint. This
// is the serialization half of the "no silent constant drift" guard; the
// model half (byte-identical evaluation reports) lives in internal/core.
func TestDefaultRoundTrip(t *testing.T) {
	base := Default()
	data, err := base.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("re-parsing the serialized baseline: %v", err)
	}
	c1, err := base.canonical()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := back.canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(c1) != string(c2) {
		t.Errorf("canonical encoding drifted through a round-trip:\n%s\nvs\n%s", c1, c2)
	}
	f1, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := back.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Errorf("fingerprint drifted through a round-trip: %s vs %s", f1, f2)
	}
}

func TestFingerprintStableAndDistinct(t *testing.T) {
	f1, err := Default().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Default().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Errorf("fingerprint not deterministic: %s vs %s", f1, f2)
	}
	if f1.IsZero() {
		t.Error("baseline fingerprint is zero")
	}
	if len(f1.String()) != 32 {
		t.Errorf("fingerprint hex length = %d, want 32", len(f1.String()))
	}
	hi, lo := f1.Words()
	if hi == 0 && lo == 0 {
		t.Error("fingerprint words are zero")
	}

	mod, err := Overlay(Default(), []byte(`{"grid":{"intensities":{"taiwan":100}}}`))
	if err != nil {
		t.Fatal(err)
	}
	f3, err := mod.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if f3 == f1 {
		t.Error("modified set shares the baseline fingerprint")
	}
}

func TestOverlayMergesDeep(t *testing.T) {
	patch := `{
	  "version": "test-overlay",
	  "grid": {"intensities": {"taiwan": 123, "atlantis": 45}},
	  "tech": {"nodes": {"7": {"d0_per_cm2": 0.09}}},
	  "assembly": {"shared_beol_layers": 3}
	}`
	s, err := Overlay(Default(), []byte(patch))
	if err != nil {
		t.Fatal(err)
	}
	if s.Version != "test-overlay" {
		t.Errorf("version = %q", s.Version)
	}
	if got := s.Grid.Intensities[grid.Taiwan]; got != 123 {
		t.Errorf("taiwan = %v, want 123", got)
	}
	if got := s.Grid.Intensities[grid.Location("atlantis")]; got != 45 {
		t.Errorf("added location = %v, want 45", got)
	}
	// Untouched siblings survive the merge.
	if got := s.Grid.Intensities[grid.USA]; got != 380 {
		t.Errorf("usa = %v, want 380 (untouched)", got)
	}
	n7 := s.Tech.Nodes[7]
	if n7.D0 != 0.09 {
		t.Errorf("7 nm D0 = %v, want 0.09", n7.D0)
	}
	if n7.Beta != 546 {
		t.Errorf("7 nm beta = %v, want 546 (untouched sibling field)", n7.Beta)
	}
	if s.Assembly.SharedBEOLLayers != 3 {
		t.Errorf("shared BEOL layers = %d", s.Assembly.SharedBEOLLayers)
	}
	if s.Assembly.SeqFEOLPremium != 0.05 {
		t.Errorf("seq FEOL premium = %v (untouched)", s.Assembly.SeqFEOLPremium)
	}
}

func TestOverlayNullDeletes(t *testing.T) {
	s, err := Overlay(Default(), []byte(`{"grid":{"intensities":{"norway":null}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Grid.Intensities[grid.Norway]; ok {
		t.Error("null overlay did not delete the norway entry")
	}
	if len(s.Grid.Intensities) != len(Default().Grid.Intensities)-1 {
		t.Error("delete changed more than one entry")
	}
}

func TestOverlayRejects(t *testing.T) {
	cases := []struct {
		name  string
		patch string
		want  string // substring of the error
	}{
		{"syntax", `{`, "not valid JSON"},
		{"non-object", `42`, "must be a JSON object"},
		{"trailing", `{} {}`, "not valid JSON"},
		{"trailing-brace", `{}}`, "not valid JSON"},
		{"trailing-bracket", `{}]`, "not valid JSON"},
		{"trailing-braces", `{}}}`, "not valid JSON"},
		{"unknown-field", `{"gird": {}}`, "schema"},
		{"unknown-nested", `{"tech":{"nodes":{"7":{"d0":0.1}}}}`, "schema"},
		{"negative", `{"grid":{"intensities":{"taiwan":-5}}}`, "outside"},
		{"case-collision", `{"grid":{"intensities":{"USA":40}}}`, "lowercase"},
		{"absurd", `{"grid":{"intensities":{"taiwan":1e9}}}`, "outside"},
		{"bad-yield", `{"bonding":{"attach_yield_25d":1.5}}`, "outside (0,1]"},
		{"bad-node", `{"tech":{"nodes":{"2":{"beta":100,"beta_mem":50,"epa_total_kwh_per_cm2":1,"gpa_total_kg_per_cm2":0.1,"mpa_total_kg_per_cm2":0.1,"ref_beol":9,"max_beol":10,"d0_per_cm2":0.1,"alpha":6,"tsv_um":10,"miv_um":0.6,"feol_share":0.58}}}}`, "3–28"},
		{"empty-grid-after-delete", `{"grid":{"intensities":null}}`, "grid"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Overlay(Default(), []byte(c.patch))
			if err == nil {
				t.Fatalf("overlay %q accepted", c.patch)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// Whitespace after the overlay value is not trailing data.
func TestOverlayAcceptsTrailingWhitespace(t *testing.T) {
	for _, patch := range []string{"{}", "{}\n", " {} \t\r\n"} {
		if _, err := Overlay(Default(), []byte(patch)); err != nil {
			t.Errorf("overlay %q rejected: %v", patch, err)
		}
	}
}

// JSON cannot carry NaN/Inf literals; confirm they are rejected at the
// syntax layer rather than leaking into the model.
func TestOverlayRejectsNonFiniteJSON(t *testing.T) {
	for _, patch := range []string{
		`{"grid":{"intensities":{"taiwan":NaN}}}`,
		`{"beol":{"utilization":Infinity}}`,
	} {
		if _, err := Overlay(Default(), []byte(patch)); err == nil {
			t.Errorf("overlay %q accepted", patch)
		}
	}
}

// The exact float values of the calibration survive JSON: every number in
// the canonical encoding re-parses to the identical float64.
func TestNumbersRoundTripExactly(t *testing.T) {
	data, err := json.Marshal(Default())
	if err != nil {
		t.Fatal(err)
	}
	var back Set
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Error("canonical JSON is not a fixed point of marshal∘unmarshal")
	}
}
