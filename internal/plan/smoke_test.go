package plan

import (
	"math"
	"os"
	"testing"
	"time"

	"lacret/internal/bench89"
	"lacret/internal/core"
)

// TestLazyEngineSmokeS5378 is the CI guard for the retiming engines at
// the largest Table 1 circuit (47k retiming vertices as planned): the
// period search must converge to the known Tmin within the budget, where
// all-pairs W/D matrices at this size would be ~27 GB. The search keeps
// only the path cuts its probes need (tens of thousands), and constraint
// generation at Tclk sweeps each source once.
//
// Gated behind LACRET_SMOKE=1 like the warm-probe smoke: it plans the
// largest Table 1 circuit, which is too slow for the default test run. The
// pass runs under a wall budget (default 5m, LACRET_SMOKE_BUDGET to
// override). The search converges in seconds; constraint generation at
// Tclk and the retiming stages after it may degrade at the budget, so the
// test asserts nothing about them.
func TestLazyEngineSmokeS5378(t *testing.T) {
	if os.Getenv("LACRET_SMOKE") == "" {
		t.Skip("set LACRET_SMOKE=1 to run")
	}
	budget := 5 * time.Minute
	if s := os.Getenv("LACRET_SMOKE_BUDGET"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("LACRET_SMOKE_BUDGET: %v", err)
		}
		budget = d
	}
	p, ok := bench89.ByName("s5378")
	if !ok {
		t.Fatal("no s5378 in catalog")
	}
	nl, err := bench89.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Plan(nl, Config{
		Seed: p.Seed, Whitespace: 0.13, TclkSlack: 0.2,
		LAC:    core.Options{Alpha: 0.2, Nmax: 5, MaxIters: 20},
		Budget: Budget{Wall: budget},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Problem.Pool.ProbeStats().Cuts == 0 {
		t.Fatal("the Tclk probe cut nothing")
	}
	if res.ProbeMem.DenseBytes != 0 {
		t.Fatalf("lazy engine reports %d dense bytes", res.ProbeMem.DenseBytes)
	}
	if res.Tmin <= 0 || res.Tclk < res.Tmin || res.LAC == nil {
		t.Fatalf("implausible plan: Tmin=%g Tclk=%g", res.Tmin, res.Tclk)
	}
	for _, s := range res.TruncatedStages() {
		if s == stagePeriods {
			t.Fatalf("period search truncated at the budget: Tmin in (%g, %g]", res.TminLo, res.Tmin)
		}
	}
	if res.TminLo != 0 || math.Abs(res.Tmin-32.302633) >= 1e-6 {
		t.Fatalf("converged Tmin %.9f (TminLo %g), want 32.302633", res.Tmin, res.TminLo)
	}
	t.Logf("s5378 plan: %d vertices, Tmin=%.6f Tclk=%.3f, %d cuts in %d rounds, pool at Tclk: %d cuts (+%d after), degraded=%v",
		res.Graph.N(), res.Tmin, res.Tclk, res.Probe.Cuts, res.Probe.CutRounds, res.Problem.Pool.ProbeStats().Cuts,
		res.Problem.Pool.Stats().Cuts, res.TruncatedStages())
}
