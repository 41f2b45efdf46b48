package retime

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func rowsEqual(a, b []SourcePair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDenseLazyRowsEqual pins the lazy engine's bit-identity claim at the
// row level: at the same floor, the all-pairs W/D oracle and the lazy sweep
// engine serve identical SourcePair rows (same pairs, same order, same D
// and DPrune values) on random graphs.
func TestDenseLazyRowsEqual(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rg := randomGraph(rng, 4+rng.Intn(8), seed%2 == 0)
		wd := oracleWD(rg)
		for _, floor := range []float64{0, rg.MaxDelay()} {
			dense := newOracleSource(rg, wd, floor)
			lazy := NewLazySource(rg, floor, 0)
			if dense.N() != lazy.N() || dense.Floor() != lazy.Floor() {
				t.Fatalf("seed %d: source metadata mismatch", seed)
			}
			for u := 0; u < rg.N(); u++ {
				dr, lr := dense.Row(u), lazy.Row(u)
				if !rowsEqual(dr, lr) {
					t.Fatalf("seed %d floor %g: row %d differs:\ndense %v\nlazy  %v",
						seed, floor, u, dr, lr)
				}
			}
			// Cached rows must be identical on a second read too.
			for u := 0; u < rg.N(); u++ {
				if !rowsEqual(dense.Row(u), lazy.Row(u)) {
					t.Fatalf("seed %d floor %g: cached row %d differs", seed, floor, u)
				}
			}
		}
	}
}

// TestLazyConstraintsMatchDense: the full constraint system generated
// through the lazy engine — a shared source floored at the maximum vertex
// delay, and the one-shot source of BuildConstraints(T, nil) — equals the
// system built from the W/D oracle at every tested period. The collapsed
// s386 graph is large enough for ClockConstraints to read its rows across
// workers.
func TestLazyConstraintsMatchDense(t *testing.T) {
	check := func(t *testing.T, what string, rg *Graph) {
		t.Helper()
		oracle := newOracleSource(rg, oracleWD(rg), 0)
		floor := rg.MaxDelay()
		lazy := NewLazySource(rg, floor, 0)
		p, err := rg.Period()
		if err != nil {
			t.Fatal(err)
		}
		for _, T := range []float64{floor, (floor + p) / 2, p, p * 1.5} {
			want, werr := rg.BuildConstraints(T, oracle)
			for _, src := range []ConstraintSource{lazy, nil} {
				got, gerr := rg.BuildConstraints(T, src)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s T=%g: oracle err %v, lazy err %v", what, T, werr, gerr)
				}
				if werr != nil {
					continue
				}
				constraintsEqual(t, fmt.Sprintf("%s T=%g", what, T), want, got)
			}
		}
	}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		check(t, fmt.Sprintf("seed %d", seed), randomGraph(rng, 5+rng.Intn(6), seed%2 == 1))
	}
	check(t, "s386", bench89Graph(t, "s386"))
}

// constraintsEqual fails the test unless got is the same system as want,
// constraint for constraint and count for count.
func constraintsEqual(t *testing.T, what string, want, got *Constraints) {
	t.Helper()
	if len(want.Cons) != len(got.Cons) {
		t.Fatalf("%s: %d oracle constraints, %d lazy", what, len(want.Cons), len(got.Cons))
	}
	for i := range want.Cons {
		if want.Cons[i] != got.Cons[i] {
			t.Fatalf("%s: constraint %d: oracle %+v lazy %+v", what, i, want.Cons[i], got.Cons[i])
		}
	}
	if want.ClockCount != got.ClockCount || want.EdgeCount != got.EdgeCount || want.PinCount != got.PinCount {
		t.Fatalf("%s: count mismatch oracle %+v lazy %+v", what, want, got)
	}
}

// TestOneShotBuildConstraintsAtMaxDelay: the one-shot BuildConstraints
// floors its source at the asked period, so T equal to the maximum vertex
// delay — and T within the comparison tolerance below it, which the
// vertex-delay check still admits — builds the oracle's system instead of
// tripping the source-floor check.
func TestOneShotBuildConstraintsAtMaxDelay(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rg := randomGraph(rng, 5+rng.Intn(6), seed%2 == 0)
		oracle := newOracleSource(rg, oracleWD(rg), 0)
		maxD := rg.MaxDelay()
		for _, T := range []float64{maxD, maxD - periodTol(maxD)/2} {
			want, err := rg.BuildConstraints(T, oracle)
			if err != nil {
				t.Fatalf("seed %d T=%.17g: oracle: %v", seed, T, err)
			}
			got, err := rg.BuildConstraints(T, nil)
			if err != nil {
				t.Fatalf("seed %d T=%.17g: one-shot: %v", seed, T, err)
			}
			constraintsEqual(t, fmt.Sprintf("seed %d T=%.17g", seed, T), want, got)
		}
	}
}

// TestLazyCacheEviction squeezes the row cache to a handful of pairs: rows
// must survive eviction (recomputed sweeps still bit-identical), and the
// accounting must register the evictions.
func TestLazyCacheEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rg := randomGraph(rng, 12, false)
	dense := newOracleSource(rg, oracleWD(rg), 0)
	lazy := NewLazySource(rg, 0, 4) // ~one small row per shard
	for pass := 0; pass < 3; pass++ {
		for u := 0; u < rg.N(); u++ {
			if !rowsEqual(dense.Row(u), lazy.Row(u)) {
				t.Fatalf("pass %d: row %d differs after eviction pressure", pass, u)
			}
		}
	}
	mem := lazy.Mem()
	if mem.Evictions == 0 {
		t.Fatalf("no evictions under a 4-pair budget: %+v", mem)
	}
	if mem.CachedPairs < 0 || mem.CachedRows < 0 {
		t.Fatalf("negative cache accounting: %+v", mem)
	}
	if mem.Sweeps == 0 {
		t.Fatalf("no sweeps recorded: %+v", mem)
	}
}

// TestLazySourceAbandonsPeriphery: with the floor at the maximum vertex
// delay, sources whose every outgoing path stays at or below the floor
// (sinks, shallow periphery) are answered without any sweep.
func TestLazySourceAbandonsPeriphery(t *testing.T) {
	rg := NewGraph()
	a := rg.AddVertex("a", KindUnit, 5) // the max-delay vertex
	b := rg.AddVertex("b", KindUnit, 1)
	c := rg.AddVertex("c", KindUnit, 1) // sink: no outgoing path
	rg.AddEdge(a, b, 1)
	rg.AddEdge(b, a, 1)
	rg.AddEdge(b, c, 1)
	lazy := NewLazySource(rg, rg.MaxDelay(), 0)
	if row := lazy.Row(c); row != nil {
		t.Fatalf("sink row = %v, want nil", row)
	}
	if mem := lazy.Mem(); mem.Abandoned == 0 || mem.Sweeps != 0 {
		t.Fatalf("expected an abandoned source and no sweeps, got %+v", mem)
	}
	// a and b reach the cycle: suffix +Inf, never abandoned.
	lazy.Row(a)
	if mem := lazy.Mem(); mem.Sweeps == 0 {
		t.Fatalf("cyclic-core source did not sweep: %+v", mem)
	}
}

// TestLazyMinPeriodBudgetAbortsIndexBuild: an expired context stops the
// search before its first probe and degrades to the zero-probe partial
// (Hi = the unretimed period) instead of probing on past the deadline.
func TestLazyMinPeriodBudgetAbortsIndexBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rg := randomGraph(rng, 12, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := rg.MinPeriod(ctx, 1e-3)
	var beb *ErrBudgetExceeded
	if !errors.As(err, &beb) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if beb.Partial.Probes != 0 {
		t.Fatalf("probes = %d, want 0", beb.Partial.Probes)
	}
	p, perr := rg.Period()
	if perr != nil {
		t.Fatal(perr)
	}
	if beb.Partial.Hi != p {
		t.Fatalf("partial Hi = %g, want unretimed period %g", beb.Partial.Hi, p)
	}
}

// TestLazyCacheScaleSheds drops the process-wide cache scale and verifies
// the shards shed down to the reduced budget on their next insertions —
// still serving bit-identical rows — then restores full budget behavior
// when the scale returns to 100.
func TestLazyCacheScaleSheds(t *testing.T) {
	defer SetLazyCacheScale(100)
	rng := rand.New(rand.NewSource(3))
	rg := randomGraph(rng, 16, false)
	dense := newOracleSource(rg, oracleWD(rg), 0)
	// Ample at full scale (nothing evicts) but small enough that 1% of it
	// is below the resident pair count, so the shed has real work to do.
	lazy := NewLazySource(rg, 0, 2048)
	for u := 0; u < rg.N(); u++ {
		lazy.Row(u)
	}
	before := lazy.Mem()
	if before.Evictions != 0 {
		t.Fatalf("evictions under an ample budget: %+v", before)
	}
	if before.CachedPairs == 0 {
		t.Skip("graph produced no cacheable pairs")
	}

	if prev := SetLazyCacheScale(0); prev != 100 {
		t.Fatalf("previous scale = %d, want 100", prev)
	}
	if LazyCacheScale() != 1 {
		t.Fatalf("scale = %d after clamped set, want 1", LazyCacheScale())
	}
	// Re-touch every row: evicted rows recompute, and every insertion
	// evicts down to ~1 pair per shard.
	for u := 0; u < rg.N(); u++ {
		if !rowsEqual(dense.Row(u), lazy.Row(u)) {
			t.Fatalf("row %d differs under shed budget", u)
		}
	}
	after := lazy.Mem()
	if after.Evictions == 0 {
		t.Fatalf("no evictions after shedding to 1%%: %+v", after)
	}
	if after.CachedPairs >= before.CachedPairs {
		t.Fatalf("cache did not shrink: %d -> %d pairs", before.CachedPairs, after.CachedPairs)
	}

	if prev := SetLazyCacheScale(100); prev != 1 {
		t.Fatalf("previous scale = %d, want 1", prev)
	}
	evBase := lazy.Mem().Evictions
	for u := 0; u < rg.N(); u++ {
		if !rowsEqual(dense.Row(u), lazy.Row(u)) {
			t.Fatalf("row %d differs after budget restore", u)
		}
	}
	if ev := lazy.Mem().Evictions; ev != evBase {
		t.Fatalf("evictions after restoring scale 100: %d -> %d", evBase, ev)
	}
}
