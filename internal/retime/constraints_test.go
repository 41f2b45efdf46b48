package retime

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestLazyConstraintsMatchDense: BuildConstraints equals the system built
// from the all-pairs W/D oracle — constraint for constraint, in order, and
// count for count — at periods from the maximum vertex delay (and within
// the comparison tolerance below it, which the vertex-delay check still
// admits) up to 1.5× the unretimed period. The collapsed s386 and s953
// graphs are large enough for the generation pass to fan out across
// workers.
func TestLazyConstraintsMatchDense(t *testing.T) {
	check := func(t *testing.T, what string, rg *Graph) {
		t.Helper()
		wd := oracleWD(rg)
		maxD := rg.MaxDelay()
		p, err := rg.Period()
		if err != nil {
			t.Fatal(err)
		}
		for _, T := range []float64{maxD, maxD - periodTol(maxD)/2, (maxD + p) / 2, p, p * 1.5} {
			want, werr := oracleConstraints(rg, wd, T)
			got, gerr := rg.BuildConstraints(context.Background(), T)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s T=%.17g: oracle err %v, build err %v", what, T, werr, gerr)
			}
			if werr != nil {
				continue
			}
			constraintsEqual(t, fmt.Sprintf("%s T=%.17g", what, T), want, got)
		}
	}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		check(t, fmt.Sprintf("seed %d", seed), randomGraph(rng, 5+rng.Intn(6), seed%2 == 1))
	}
	check(t, "s386", bench89Graph(t, "s386"))
	check(t, "s953", bench89Graph(t, "s953"))
}

// constraintsEqual fails the test unless got is the same system as want,
// constraint for constraint and count for count.
func constraintsEqual(t *testing.T, what string, want, got *Constraints) {
	t.Helper()
	if len(want.Cons) != len(got.Cons) {
		t.Fatalf("%s: %d oracle constraints, %d built", what, len(want.Cons), len(got.Cons))
	}
	for i := range want.Cons {
		if want.Cons[i] != got.Cons[i] {
			t.Fatalf("%s: constraint %d: oracle %+v built %+v", what, i, want.Cons[i], got.Cons[i])
		}
	}
	if want.ClockCount != got.ClockCount || want.EdgeCount != got.EdgeCount || want.PinCount != got.PinCount {
		t.Fatalf("%s: count mismatch oracle %+v built %+v", what, want, got)
	}
}

// TestOneShotBuildConstraintsAtMaxDelay: T equal to the maximum vertex
// delay — and T within the comparison tolerance below it, which the
// vertex-delay check still admits — builds the oracle's system instead of
// failing.
func TestOneShotBuildConstraintsAtMaxDelay(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rg := randomGraph(rng, 5+rng.Intn(6), seed%2 == 0)
		wd := oracleWD(rg)
		maxD := rg.MaxDelay()
		for _, T := range []float64{maxD, maxD - periodTol(maxD)/2} {
			want, err := oracleConstraints(rg, wd, T)
			if err != nil {
				t.Fatalf("seed %d T=%.17g: oracle: %v", seed, T, err)
			}
			got, err := rg.BuildConstraints(context.Background(), T)
			if err != nil {
				t.Fatalf("seed %d T=%.17g: build: %v", seed, T, err)
			}
			constraintsEqual(t, fmt.Sprintf("seed %d T=%.17g", seed, T), want, got)
		}
	}
}

// TestLazySourceAbandonsPeriphery: at T equal to the maximum vertex delay,
// sources whose every outgoing path stays at or below T (sinks, shallow
// periphery) are abandoned without a sweep, while sources reaching a
// cycle are always swept.
func TestLazySourceAbandonsPeriphery(t *testing.T) {
	rg := NewGraph()
	a := rg.AddVertex("a", KindUnit, 5) // the max-delay vertex
	b := rg.AddVertex("b", KindUnit, 1)
	c := rg.AddVertex("c", KindUnit, 1) // sink: no outgoing path
	rg.AddEdge(a, b, 1)
	rg.AddEdge(b, a, 1)
	rg.AddEdge(b, c, 1)
	_, sweeps, abandoned, err := rg.buildConstraintsCounted(context.Background(), rg.MaxDelay())
	if err != nil {
		t.Fatal(err)
	}
	// a and b reach the cycle: suffix +Inf, never abandoned; c is.
	if abandoned != 1 || sweeps != 2 {
		t.Fatalf("abandoned %d, sweeps %d; want 1 abandoned sink and 2 sweeps", abandoned, sweeps)
	}
}

// TestBuildConstraintsCancelled: a cancelled context stops the generation
// pass, and the build returns context.Canceled instead of a system.
func TestBuildConstraintsCancelled(t *testing.T) {
	rg := bench89Graph(t, "s953")
	p, err := rg.Period()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cs, err := rg.BuildConstraints(ctx, p)
	if !errors.Is(err, context.Canceled) || cs != nil {
		t.Fatalf("cancelled build = %v, %v; want nil, context.Canceled", cs, err)
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
