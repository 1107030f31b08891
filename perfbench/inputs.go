package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/explore"
	"repro/internal/grid"
	"repro/internal/split"
)

// Axis pools the seeded spaces draw from.
var (
	allNodes = []int{3, 5, 7, 10, 12, 14, 16, 22, 28}
	fabPool  = []grid.Location{grid.Taiwan, grid.SouthKorea, grid.Japan, grid.China,
		grid.USA, grid.Europe, grid.India, grid.Norway}
	usePool = []grid.Location{grid.USA, grid.Europe, grid.India, grid.China, grid.Taiwan,
		grid.California, grid.Norway, grid.WorldAverage, grid.Renewable}
	bothStrategies = []split.Strategy{split.HomogeneousStrategy, split.HeterogeneousStrategy}
)

// The seed moves every continuous input (design sizes, lifetimes, die-area
// perturbations) and the choice of equivalent grids, but not the shape or
// the cost structure of a space: two seeds give different candidates that
// cost the same to evaluate, so run-to-run spread measures the system, not
// the draw.

// jitteredGrid returns n increasing values lo·(1 + step·(i + ½)), each
// moved by up to ±20 % of a step (no jitter for a nil rng).
func jitteredGrid(rng *rand.Rand, n int, lo, step float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		j := 0.0
		if rng != nil {
			j = 0.4 * (rng.Float64() - 0.5)
		}
		out[i] = lo * (1 + step*(float64(i)+0.5+j))
	}
	return out
}

// distinctGates returns n distinct, increasing design sizes from 1e9 to
// 1e11 gates.
func distinctGates(rng *rand.Rand, n int) []float64 {
	return jitteredGrid(rng, n, 1e9, 99/float64(n))
}

// rotate returns n consecutive elements of pool from a seeded offset.
func rotate[T any](rng *rand.Rand, pool []T, n int) []T {
	off := rng.Intn(len(pool))
	out := make([]T, n)
	for i := range out {
		out[i] = pool[(off+i)%len(pool)]
	}
	return out
}

// distinctSpace is the space where every candidate is its own design: many
// gate sizes × all nodes × a few fab grids × both strategies, one use grid
// and one lifetime.
func distinctSpace(rng *rand.Rand, name string, gates, fabs int) explore.Space {
	return explore.Space{
		Name:          name,
		Strategies:    bothStrategies,
		NodesNM:       allNodes,
		Gates:         distinctGates(rng, gates),
		FabLocations:  rotate(rng, fabPool, fabs),
		UseLocations:  rotate(rng, usePool, 1),
		LifetimeYears: []float64{5 + 10*rng.Float64()},
	}
}

// optimizeSpace has the distinct space's design axes plus every use grid
// and a lifetime axis: the shape of the optimizer's reference space, where
// bound probes on the embodied term prune whole (design, fab) blocks. It
// does not depend on the seed: how much a branch-and-bound search prunes
// depends on where the optimum lies, so a seeded space would make the
// optimizer's time measure the draw.
func optimizeSpace(gates, fabs, years int) explore.Space {
	return explore.Space{
		Name:          "optimize",
		Strategies:    bothStrategies,
		NodesNM:       allNodes,
		Gates:         jitteredGrid(nil, gates, 1e9, 99/float64(gates)),
		FabLocations:  fabPool[:fabs],
		UseLocations:  usePool,
		LifetimeYears: jitteredGrid(nil, years, 1, 1),
	}
}

// reuseSpace is the space where nearly every embodied term is reused: few
// designs × all nine use grids × a long lifetime axis.
func reuseSpace(rng *rand.Rand, lifetimes int) explore.Space {
	return explore.Space{
		Name:          "reuse",
		Strategies:    bothStrategies,
		NodesNM:       []int{5, 14},
		Gates:         jitteredGrid(rng, 1, 17e9, 0.1),
		FabLocations:  rotate(rng, fabPool, 1),
		UseLocations:  usePool,
		LifetimeYears: jitteredGrid(rng, lifetimes, 1, 0.1),
	}
}

// sampleCandidates decodes n seeded candidates of a space.
func sampleCandidates(rng *rand.Rand, s explore.Space, n int) ([]explore.Candidate, error) {
	it, err := s.Iter()
	if err != nil {
		return nil, err
	}
	cu := it.Cursor()
	out := make([]explore.Candidate, 0, n)
	for i := 0; i < n; i++ {
		c, err := cu.At(rng.Intn(it.Len()))
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// loadDesigns reads every design under root/designs in name order.
func loadDesigns(root string) ([]*design.Design, error) {
	paths, err := filepath.Glob(filepath.Join(root, "designs", "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []*design.Design
	for _, p := range paths {
		d, err := design.Load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no designs under %s/designs", root)
	}
	return out, nil
}

// loadProfiles reads every parameter profile under root/profiles.
func loadProfiles(root string) ([][]byte, error) {
	paths, err := filepath.Glob(filepath.Join(root, "profiles", "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no profiles under %s/profiles", root)
	}
	return out, nil
}

// perturb returns a copy of d named name with every die's size inputs
// (explicit area and gate count, whichever are given) scaled by factor.
// Memo keys cover both, so a new factor is a design the engine has never
// seen.
func perturb(d *design.Design, name string, factor float64) *design.Design {
	c := *d
	c.Name = name
	c.Dies = append(c.Dies[:0:0], d.Dies...)
	for i := range c.Dies {
		c.Dies[i].AreaMM2 *= factor
		c.Dies[i].Gates *= factor
	}
	return &c
}

// validVariant reports whether a perturbed design evaluates under m.
func validVariant(m *core.Model, d *design.Design) bool {
	if m.ValidateDesign(d) != nil {
		return false
	}
	_, err := m.EmbodiedTerm(d)
	return err == nil
}
