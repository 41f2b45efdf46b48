package plan

import (
	"os"
	"testing"
	"time"

	"lacret/internal/bench89"
	"lacret/internal/core"
)

// TestLazyEngineSmokeS5378 is the CI guard for the lazy constraint engine:
// a full s5378 plan (47k retiming vertices as planned) must run within the
// memory of a CI runner — all-pairs W/D matrices at this size would be
// ~27 GB, where the lazy engine's bulk, the period search's candidate
// index floored at the iteration bound, is 8.1 GB when complete.
//
// Gated behind LACRET_SMOKE=1 like the warm-probe smoke: it plans the
// largest Table 1 circuit, which is too slow for the default test run. The
// pass runs under a wall budget (default 5m, LACRET_SMOKE_BUDGET to
// override) — a converged s5378 search takes ~18 min of period probing on a
// 1-CPU box, and a budget-degraded pass exercises the engine just as well.
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
	if res.ProbeMem.Sweeps == 0 {
		t.Fatal("lazy engine swept nothing")
	}
	if res.ProbeMem.DenseBytes != 0 {
		t.Fatalf("lazy engine reports %d dense bytes", res.ProbeMem.DenseBytes)
	}
	if res.Tmin <= 0 || res.Tclk < res.Tmin || res.LAC == nil {
		t.Fatalf("implausible plan: Tmin=%g Tclk=%g", res.Tmin, res.Tclk)
	}
	t.Logf("s5378 lazy plan: %d vertices, Tmin=%.3f Tclk=%.3f, %d sweeps (%d abandoned), cache %d rows/%d pairs (%d evictions, %d hits), degraded=%v",
		res.Graph.N(), res.Tmin, res.Tclk, res.ProbeMem.Sweeps, res.ProbeMem.Abandoned,
		res.ProbeMem.CachedRows, res.ProbeMem.CachedPairs, res.ProbeMem.Evictions, res.ProbeMem.Hits,
		res.TruncatedStages())
}
