package retime

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func TestMinAreaSolverMatchesOneShot(t *testing.T) {
	rg := ring(6, 1, 3)
	pool, err := NewCutPool(context.Background(), rg, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewMinAreaSolver(pool)
	var last *MinAreaResult
	for round, area := range [][]float64{
		nil,
		{1, 1, 1, 1, 1, 1},
		{3, 0.5, 1, 2, 0.25, 1},
		{3, 0.5, 1, 2, 0.25, 1}, // unchanged weights: free round
	} {
		warm, err := s.Resolve(area)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		cold, err := minAreaFull(rg, 2, area)
		if err != nil {
			t.Fatalf("round %d: cold: %v", round, err)
		}
		if warm.Registers != cold.Registers || warm.WeightedArea != cold.WeightedArea {
			t.Fatalf("round %d: warm %d/%g, cold %d/%g",
				round, warm.Registers, warm.WeightedArea, cold.Registers, cold.WeightedArea)
		}
		for v := range warm.R {
			if warm.R[v] != cold.R[v] {
				t.Fatalf("round %d: r(%d) = %d warm, %d cold", round, v, warm.R[v], cold.R[v])
			}
		}
		if warm.Stats.Warm != (round > 0) {
			t.Fatalf("round %d: Warm=%v", round, warm.Stats.Warm)
		}
		last = warm
	}
	// The fourth round repeated the third's weights: nothing to route.
	if st := last.Stats; st.AugmentingPaths != 0 || st.SupplyChanged != 0 {
		t.Fatalf("repeat round stats: %+v", st)
	}
}

// TestMinAreaSolverWarmEqualsCold is the randomized warm/cold equivalence
// gate at the retime level: random graphs, rounds of random per-vertex
// weights, every round's persistent-solver result compared against a
// from-scratch solve of the full system. Labels must match exactly (residual
// shortest-path potentials are canonical across optimal flows), hence so do
// Registers and WeightedArea.
func TestMinAreaSolverWarmEqualsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 25; trial++ {
		rg := randomGraph(rng, 4+rng.Intn(5), rng.Intn(2) == 0)
		T, err := rg.Period()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pool, err := NewCutPool(context.Background(), rg, T) // r = 0 is feasible at the initial period
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		s := NewMinAreaSolver(pool)
		for round := 0; round < 6; round++ {
			var area []float64
			if round > 0 { // round 0 exercises the nil (uniform) path
				area = make([]float64, rg.N())
				for v := range area {
					area[v] = 0.1 + 3*rng.Float64()
				}
			}
			warm, err := s.Resolve(area)
			if err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			cold, err := minAreaFull(rg, T, area)
			if err != nil {
				t.Fatalf("trial %d round %d: cold: %v", trial, round, err)
			}
			if warm.Registers != cold.Registers {
				t.Fatalf("trial %d round %d: registers %d warm, %d cold",
					trial, round, warm.Registers, cold.Registers)
			}
			if math.Abs(warm.WeightedArea-cold.WeightedArea) > 1e-9 {
				t.Fatalf("trial %d round %d: weighted area %g warm, %g cold",
					trial, round, warm.WeightedArea, cold.WeightedArea)
			}
			for v := range warm.R {
				if warm.R[v] != cold.R[v] {
					t.Fatalf("trial %d round %d: r(%d) = %d warm, %d cold",
						trial, round, v, warm.R[v], cold.R[v])
				}
			}
			if round > 0 && !warm.Stats.Warm {
				t.Fatalf("trial %d round %d: expected warm solve, stats %+v",
					trial, round, warm.Stats)
			}
		}
	}
}

// TestMinAreaSolverClone clones a solver after a uniform solve and runs
// rounds of random weights on the clone and, as the reference, on a
// second solver over an identically probed pool: every round must agree
// in labels, counts and flow work. The original must be left as it was:
// re-solving its weights is free and gives its labels again. Every
// Resolve's register counts must equal those of the applied labeling.
func TestMinAreaSolverClone(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 25; trial++ {
		rg := randomGraph(rng, 4+rng.Intn(5), rng.Intn(2) == 0)
		T, err := rg.Period()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		solved := func() (*CutPool, *MinAreaSolver, *MinAreaResult) {
			pool, err := NewCutPool(context.Background(), rg, T)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			s := NewMinAreaSolver(pool)
			if s.Current(pool) {
				t.Fatalf("trial %d: a solver with no network is current", trial)
			}
			res, err := s.Resolve(nil)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !s.Current(pool) {
				t.Fatalf("trial %d: not current right after a solve", trial)
			}
			return pool, s, res
		}
		pool, orig, first := solved()
		refPool, ref, _ := solved()
		if orig.Current(refPool) {
			t.Fatalf("trial %d: current on another pool of the same system", trial)
		}
		clone := orig.Clone()
		cutsBefore := pool.Stats().Cuts
		for round := 0; round < 5; round++ {
			area := make([]float64, rg.N())
			for v := range area {
				area[v] = 0.1 + 3*rng.Float64()
			}
			got, err := clone.Resolve(area)
			if err != nil {
				t.Fatalf("trial %d round %d: clone: %v", trial, round, err)
			}
			want, err := ref.Resolve(area)
			if err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			if got.Stats != want.Stats || got.Cuts != want.Cuts || got.Rebuilds != want.Rebuilds ||
				got.Registers != want.Registers || got.WeightedArea != want.WeightedArea {
				t.Fatalf("trial %d round %d: clone %+v, reference %+v", trial, round, got, want)
			}
			for v := range want.R {
				if got.R[v] != want.R[v] {
					t.Fatalf("trial %d round %d: r(%d) = %d on the clone, %d on the reference",
						trial, round, v, got.R[v], want.R[v])
				}
			}
			checkCounts(t, rg, area, got)
		}
		if grew := pool.Stats().Cuts > cutsBefore; orig.Current(pool) == grew {
			t.Fatalf("trial %d: Current = %v after the pool grew: %v", trial, orig.Current(pool), grew)
		}
		again, err := orig.Resolve(nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if st := again.Stats; st.SupplyChanged != 0 || st.AugmentingPaths != 0 || again.Rebuilds != 0 {
			t.Fatalf("trial %d: re-solving the original's weights did work: %+v", trial, again)
		}
		for v := range first.R {
			if again.R[v] != first.R[v] {
				t.Fatalf("trial %d: r(%d) = %d after the clone's rounds, %d before", trial, v, again.R[v], first.R[v])
			}
		}
		checkCounts(t, rg, nil, first)
	}
}

// checkCounts compares a Resolve's register counts with those of the
// graph its labeling retimes.
func checkCounts(t *testing.T, rg *Graph, area []float64, res *MinAreaResult) {
	t.Helper()
	out, err := rg.Apply(res.R)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.TotalRegisters(); got != res.Registers {
		t.Fatalf("Registers %d, applied labeling %d", res.Registers, got)
	}
	tails := out.RegistersPerEdgeTail()
	for v := range tails {
		if res.TailRegisters[v] != tails[v] {
			t.Fatalf("TailRegisters[%d] = %d, applied labeling %d", v, res.TailRegisters[v], tails[v])
		}
	}
	wa := 0.0
	for _, e := range out.g.Edges() {
		a := 1.0
		if area != nil {
			a = area[e.From]
		}
		wa += a * float64(e.W)
	}
	if wa != res.WeightedArea {
		t.Fatalf("WeightedArea %g, applied labeling %g", res.WeightedArea, wa)
	}
}

func TestNewMinAreaSolverValidation(t *testing.T) {
	rg := ring(6, 1, 3)
	pool, err := NewCutPool(context.Background(), rg, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewMinAreaSolver(pool)
	if _, err := s.Resolve([]float64{1, 2}); err == nil {
		t.Fatal("short area vector accepted")
	}
	if _, err := s.Resolve([]float64{1, 1, 1, -2, 1, 1}); err == nil {
		t.Fatal("negative area weight accepted")
	}
	if _, err := s.Resolve([]float64{1, 1, 1, math.NaN(), 1, 1}); err == nil {
		t.Fatal("NaN area weight accepted")
	}
}

func TestNewMinAreaSolverInfeasible(t *testing.T) {
	// A 3-ring with 1 register and unit delays cannot meet T=1: every
	// legal register distribution leaves a 2-delay combinational path.
	rg := ring(3, 1, 1)
	if _, err := NewCutPool(context.Background(), rg, 1); err == nil {
		t.Fatal("infeasible period accepted")
	} else if _, ok := err.(ErrInfeasible); !ok {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}
