package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/server/apitypes"
	"repro/internal/units"
	"repro/internal/workload"
)

// recordedDigests pins the oracle digest of the distinct and reuse spaces
// for a few seeds ("<workload>/<seed>" → digest). A model change that
// moves a result changes these; TestRecordedDigests regenerates nothing
// and fails instead.
//
//go:embed testdata/digests.json
var recordedDigestsJSON []byte

func recordedDigest(workload string, seed int64) (string, bool) {
	var m map[string]string
	if err := json.Unmarshal(recordedDigestsJSON, &m); err != nil {
		return "", false
	}
	d, ok := m[fmt.Sprintf("%s/%d", workload, seed)]
	return d, ok
}

// coreSampleN is how many calls each core replay times.
const coreSampleN = 300

// putCoreLayers replays the model terms directly on seeded samples of each
// workload's inputs: EmbodiedTerm on distinct designs, OperationalFrom on
// reuse points and Total on the repository's designs.
func putCoreLayers(l map[string]float64, e *env, m *core.Model) error {
	dc, err := sampleCandidates(e.rng("core-distinct"),
		distinctSpace(e.rng("distinct"), "distinct", distinctGatesN, distinctFabsN), coreSampleN)
	if err != nil {
		return err
	}
	rc, err := sampleCandidates(e.rng("core-reuse"), reuseSpace(e.rng("reuse"), reuseYearsN), coreSampleN)
	if err != nil {
		return err
	}
	designs, err := loadDesigns(e.root)
	if err != nil {
		return err
	}
	w, eff := (*apitypes.WorkloadSpec)(nil).Resolve()
	var emb []operationalPoint
	for _, cd := range dc {
		emb = append(emb, operationalPoint{cd.Design, cd.Workload, cd.Eff})
	}
	var ops []operationalPoint
	for _, cd := range rc {
		ops = append(ops, operationalPoint{cd.Design, cd.Workload, cd.Eff})
	}
	var tots []operationalPoint
	for i := 0; i < coreSampleN; i++ {
		tots = append(tots, operationalPoint{designs[i%len(designs)], w, eff})
	}
	l["core.embodied_term_us"] = embodiedUS(m, emb)
	l["core.operational_us"] = operationalUS(m, ops)
	l["core.total_us"] = totalUS(m, tots)
	return nil
}

// embodiedUS is the median µs of Model.EmbodiedTerm over the points'
// designs.
func embodiedUS(m *core.Model, pts []operationalPoint) float64 {
	var d samples
	for _, p := range pts {
		t0 := time.Now()
		_, _ = m.EmbodiedTerm(p.d) // a failing design costs what it costs
		d.addDur(time.Since(t0))
	}
	return d.pctUS(50)
}

// operationalPoint is one (design, workload) operational evaluation.
type operationalPoint struct {
	d   *design.Design
	w   workload.Workload
	eff units.Efficiency
}

// operationalUS is the median µs of Model.OperationalFrom over points,
// each completed from a precomputed embodied term.
func operationalUS(m *core.Model, pts []operationalPoint) float64 {
	var d samples
	for _, p := range pts {
		er, err := m.EmbodiedTerm(p.d)
		if err != nil {
			continue
		}
		t0 := time.Now()
		_, _ = m.OperationalFrom(er, p.d, p.w, p.eff)
		d.addDur(time.Since(t0))
	}
	return d.pctUS(50)
}

// totalUS is the median µs of Model.Total over points.
func totalUS(m *core.Model, pts []operationalPoint) float64 {
	var d samples
	for _, p := range pts {
		t0 := time.Now()
		_, _ = m.Total(p.d, p.w, p.eff)
		d.addDur(time.Since(t0))
	}
	return d.pctUS(50)
}
