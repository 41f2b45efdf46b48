package retime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestPoolMinAreaMatchesFullSystem: the min-area cut loop on a pool probed
// at T gives the labels the full system at T (BuildConstraints) gives, at
// the maximum vertex delay, Tmin, the midpoint to the unretimed period and
// that period, under uniform and random weights. One solver per period
// runs the weights in turn, so later rounds solve warm on a pool that
// earlier rounds grew.
func TestPoolMinAreaMatchesFullSystem(t *testing.T) {
	rebuilds := 0
	check := func(t *testing.T, what string, rg *Graph, rng *rand.Rand) {
		t.Helper()
		tmin, _, _, err := rg.MinPeriod(context.Background(), 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		p, err := rg.Period()
		if err != nil {
			t.Fatal(err)
		}
		weights := [][]float64{nil, make([]float64, rg.N()), nil}
		for v := range weights[1] {
			weights[1][v] = 0.1 + 3*rng.Float64()
		}
		for _, T := range []float64{rg.MaxDelay(), tmin, (tmin + p) / 2, p} {
			pool, perr := NewCutPool(context.Background(), rg, T)
			_, ferr := fullPool(rg, T)
			if (perr == nil) != (ferr == nil) {
				t.Fatalf("%s T=%.17g: pool err %v, full err %v", what, T, perr, ferr)
			}
			if perr != nil {
				continue
			}
			s := NewMinAreaSolver(pool)
			for i, area := range weights {
				got, err := s.Resolve(area)
				if err != nil {
					t.Fatalf("%s T=%.17g weights %d: %v", what, T, i, err)
				}
				want, err := minAreaFull(rg, T, area)
				if err != nil {
					t.Fatalf("%s T=%.17g weights %d: full: %v", what, T, i, err)
				}
				for v := range want.R {
					if got.R[v] != want.R[v] {
						t.Fatalf("%s T=%.17g weights %d: r(%d) = %d on the pool, %d on the full system",
							what, T, i, v, got.R[v], want.R[v])
					}
				}
				if err := rg.CheckFeasible(got.R, T); err != nil {
					t.Fatalf("%s T=%.17g weights %d: %v", what, T, i, err)
				}
				rebuilds += got.Rebuilds
			}
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		check(t, fmt.Sprintf("seed %d", seed), randomGraph(rng, 5+rng.Intn(8), seed%2 == 1), rng)
	}
	rng := rand.New(rand.NewSource(1))
	check(t, "s386", bench89Graph(t, "s386"), rng)
	if !testing.Short() {
		check(t, "s953", bench89Graph(t, "s953"), rng)
	}
	// The loop must have been exercised: some labeling of the probe's pool
	// missed T and needed cuts.
	if rebuilds == 0 {
		t.Fatal("no solve rebuilt its network")
	}
	t.Logf("%d rebuilds", rebuilds)
}

// TestPoolCutsAreImplied: every cut the pool holds after min-area solves
// is implied by the full system, so each full-system optimum satisfies it.
func TestPoolCutsAreImplied(t *testing.T) {
	rg := bench89Graph(t, "s386")
	p, err := rg.Period()
	if err != nil {
		t.Fatal(err)
	}
	T := 0.8 * p
	pool, err := NewCutPool(context.Background(), rg, T)
	if err != nil {
		t.Fatal(err)
	}
	area := make([]float64, rg.N())
	for v := range area {
		area[v] = float64(1 + v%5)
	}
	s := NewMinAreaSolver(pool)
	for _, a := range [][]float64{nil, area} {
		if _, err := s.Resolve(a); err != nil {
			t.Fatal(err)
		}
		want, err := minAreaFull(rg, T, a)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range pool.Constraints().Cons {
			if want.R[c.U]-want.R[c.V] > c.Bound {
				t.Fatalf("pool constraint %+v cuts off the full system's optimum", c)
			}
		}
	}
	if pool.ProbeStats().Cuts == 0 {
		t.Fatal("the probe at 0.8·Period cut nothing")
	}
}

// TestEveryCutIsImplied: every path cut a solver holds is implied by the
// full system. After a MinPeriod search, and after a probe at Tclk plus
// uniform and weighted min-area solves on its pool, each finite-key arc
// (u, v, bound, d) of both solvers is checked against the W/D oracle: its
// path is register-free under some labeling, so bound ≥ W(u,v) − 1; a
// larger bound is implied by the edge constraints along a minimum-W path,
// and an equal one needs D(u,v) ≥ d, so the full system constrains (u,v)
// at every period the cut is active at.
func TestEveryCutIsImplied(t *testing.T) {
	cuts := 0
	verify := func(t *testing.T, what string, fs *FeasSolver, wd *WD) {
		t.Helper()
		for v, a := range fs.arcs {
			for _, c := range a {
				if math.IsInf(c.d, 1) {
					continue
				}
				cuts++
				w, d := int(wd.W[c.u][v]), wd.D[c.u][v]
				if w < 0 || w-1 > int(c.bound) || (w-1 == int(c.bound) && d < c.d) {
					t.Fatalf("%s: cut r(%d) − r(%d) ≤ %d keyed %.17g is not implied: W = %d, D = %.17g",
						what, c.u, v, c.bound, c.d, w, d)
				}
			}
		}
	}
	check := func(t *testing.T, what string, rg *Graph, rng *rand.Rand) {
		t.Helper()
		wd := oracleWD(rg)
		fs := NewFeasSolver(rg)
		tmin, _, _, err := rg.minPeriod(context.Background(), fs, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		verify(t, what+" period search", fs, wd)
		p, err := rg.Period()
		if err != nil {
			t.Fatal(err)
		}
		pool, err := NewCutPool(context.Background(), rg, tmin+0.2*(p-tmin))
		if err != nil {
			t.Fatal(err)
		}
		area := make([]float64, rg.N())
		for v := range area {
			area[v] = 0.1 + 3*rng.Float64()
		}
		s := NewMinAreaSolver(pool)
		for _, a := range [][]float64{nil, area} {
			if _, err := s.Resolve(a); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		verify(t, what+" Tclk pool", pool.fs, wd)
	}
	for seed := int64(0); seed < 32; seed++ {
		rng := rand.New(rand.NewSource(seed))
		check(t, fmt.Sprintf("seed %d", seed), randomGraph(rng, 5+rng.Intn(8), seed%2 == 1), rng)
	}
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"s386", "s400"} {
		check(t, name, bench89Graph(t, name), rng)
	}
	if cuts == 0 {
		t.Fatal("no solver held a cut")
	}
	t.Logf("%d cuts checked", cuts)
}

// TestCutPoolCancelled: a cancelled context stops the probe between its
// cut rounds with the context's error, not an infeasibility verdict.
func TestCutPoolCancelled(t *testing.T) {
	rg := bench89Graph(t, "s953")
	p, err := rg.Period()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = NewCutPool(ctx, rg, 0.8*p)
	if !errors.Is(err, context.Canceled) || errors.As(err, new(ErrInfeasible)) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
