package retime

import (
	"context"
	"math/rand"
	"testing"
)

// nastyGraph builds a random cyclic retiming graph whose delays are
// binary-unrepresentable decimals at the given magnitude, so path-delay
// sums carry rounding noise in their low bits — the regime where strict
// float comparisons against a computed Tmin go wrong.
func nastyGraph(rng *rand.Rand, n int, scale float64) *Graph {
	decimals := []float64{0.1, 0.2, 0.3, 0.6, 0.7, 1.1}
	rg := NewGraph()
	for i := 0; i < n; i++ {
		rg.AddVertex("u", KindUnit, decimals[rng.Intn(len(decimals))]*scale)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() < 0.55 {
				continue
			}
			w := rng.Intn(3)
			if j <= i && w == 0 {
				w = 1 + rng.Intn(2)
			}
			rg.AddEdge(i, j, w)
		}
	}
	for i := 0; i+1 < n; i++ {
		rg.AddEdge(i, i+1, rng.Intn(2))
	}
	rg.AddEdge(n-1, 0, 1+rng.Intn(2))
	return rg
}

// TestRetimeAtExactTmin is the regression test for the strict D(u,v) > T
// comparison in clock-constraint generation: re-solving at exactly the Tmin returned
// by MinPeriod — the planner's Tclk whenever the slack collapses — must
// stay feasible at every delay magnitude. With an absolute 1e-9 epsilon
// this spuriously flips to infeasible once delays reach ~1e7 (one ulp of
// the path sums already exceeds the tolerance).
func TestRetimeAtExactTmin(t *testing.T) {
	for _, scale := range []float64{1, 1e7} {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 60; trial++ {
			rg := nastyGraph(rng, 4+rng.Intn(6), scale)
			if err := rg.Validate(); err != nil {
				continue
			}
			tmin, r, _, err := rg.MinPeriod(context.Background(), 1e-3*scale)
			if err != nil {
				t.Fatalf("scale %g trial %d: MinPeriod: %v", scale, trial, err)
			}
			if err := rg.CheckFeasible(r, tmin); err != nil {
				t.Fatalf("scale %g trial %d: labeling from MinPeriod rejected: %v", scale, trial, err)
			}
			// The planner path regenerates constraints at exactly T = Tmin.
			cs, err := rg.BuildConstraints(context.Background(), tmin)
			if err != nil {
				t.Fatalf("scale %g trial %d: constraints at exact Tmin: %v", scale, trial, err)
			}
			r2, ok := cs.Feasible(rg)
			if !ok {
				t.Fatalf("scale %g trial %d: infeasible at exactly Tmin=%v", scale, trial, tmin)
			}
			if err := rg.CheckFeasible(r2, tmin); err != nil {
				t.Fatalf("scale %g trial %d: solution at exact Tmin invalid: %v", scale, trial, err)
			}
		}
	}
}
