package retime

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickCycleWeightConservation: for any graph and any legal labeling,
// the total register count around every cycle is invariant under Apply.
func TestQuickCycleWeightConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 3 + rng.Intn(8)
		rg := ring(k, 1, 1+rng.Intn(3))
		// Add chords with enough registers to stay legal under the
		// labeling below.
		for i := 0; i < k/2; i++ {
			a, b := rng.Intn(k), rng.Intn(k)
			if a != b {
				rg.AddEdge(a, b, 2+rng.Intn(2))
			}
		}
		r := make([]int, rg.N())
		for i := range r {
			r[i] = rng.Intn(2) // labels in {0,1} keep chords legal
		}
		out, err := rg.Apply(r)
		if err != nil {
			return true // illegal labeling is allowed to fail
		}
		// Σ w_r(e) - Σ w(e) must equal Σ (r[to]-r[from]) = telescoping 0
		// only over cycles; check the exact identity per edge instead.
		for i := 0; i < rg.M(); i++ {
			f0, t0, w0 := rg.Edge(i)
			_, _, w1 := out.Edge(i)
			if w1 != w0+r[t0]-r[f0] {
				return false
			}
		}
		// And around the base ring, total is unchanged.
		sum0, sum1 := 0, 0
		for i := 0; i < k; i++ {
			_, _, w0 := rg.Edge(i)
			_, _, w1 := out.Edge(i)
			sum0 += w0
			sum1 += w1
		}
		return sum0 == sum1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMinAreaAlwaysFeasible: whatever random legal graph and a target
// at or above the current period, MinArea returns a labeling that passes
// CheckFeasible and never increases the register count.
func TestQuickMinAreaAlwaysFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rg := randomGraph(rng, 4+rng.Intn(5), seed%2 == 0)
		p, err := rg.Period()
		if err != nil {
			return false
		}
		T := p * (1 + rng.Float64())
		res, err := rg.MinArea(T)
		if err != nil {
			return false
		}
		if rg.CheckFeasible(res.R, T) != nil {
			return false
		}
		return res.Registers <= rg.TotalRegisters()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMinPeriodLowerBoundsPeriod: the minimum period never exceeds
// the current period and never undercuts the largest vertex delay.
func TestQuickMinPeriodBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rg := randomGraph(rng, 4+rng.Intn(4), seed%2 == 1)
		p, err := rg.Period()
		if err != nil {
			return false
		}
		T, r, _, err := rg.MinPeriod(context.Background(), 1e-4)
		if err != nil {
			return false
		}
		maxD := 0.0
		for v := 0; v < rg.N(); v++ {
			if rg.Delay(v) > maxD {
				maxD = rg.Delay(v)
			}
		}
		if T > p+1e-6 || T < maxD-1e-6 {
			return false
		}
		return rg.CheckFeasible(r, T+1e-6) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWDTriangle: W satisfies the triangle inequality over
// concatenated paths: W(u,w) <= W(u,v) + W(v,w) whenever all are defined.
func TestQuickWDTriangle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rg := randomGraph(rng, 4+rng.Intn(5), false)
		wd := oracleWD(rg)
		n := rg.N()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if wd.W[u][v] < 0 {
					continue
				}
				for w := 0; w < n; w++ {
					if wd.W[v][w] < 0 || wd.W[u][w] < 0 {
						continue
					}
					if wd.W[u][w] > wd.W[u][v]+wd.W[v][w] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
