package plan

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"lacret/internal/bench89"
	"lacret/internal/core"
	"lacret/internal/route"
)

// TestPlanGoldenS400Engine pins what TestPlanGoldenS400 does not: the
// LAC labeling and constraint count of the golden s400 plan (recorded
// when the W/D-matrix engine still planned this circuit, so the lazy
// source must reproduce it bit for bit), and the source's accounting.
func TestPlanGoldenS400Engine(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog circuit in short mode")
	}
	p, ok := bench89.ByName("s400")
	if !ok {
		t.Fatal("no s400 in catalog")
	}
	nl, err := bench89.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Plan(nl, Config{
		Seed: p.Seed, Whitespace: 0.13, TclkSlack: 0.2,
		LAC: core.Options{Alpha: 0.2, Nmax: 5, MaxIters: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tmin != 3.0401092935255556 || res.Tclk != 4.6144248994400368 {
		t.Errorf("Tmin %.17g Tclk %.17g, want the golden 3.0401092935255556 / 4.6144248994400368",
			res.Tmin, res.Tclk)
	}
	// The pool the Tclk probe left (the constraints stage's count) and
	// the pool after min-area and LAC added the cuts their labelings
	// needed: engine properties, not answers. They move with the cut rule
	// (every too-long path end is cut in each timing pass).
	if n := stageCounter(res, stageConstraints, "constraints"); n != 1437 {
		t.Errorf("%g constraints in the pool at Tclk, want 1437", n)
	}
	if n := len(res.Problem.Pool.Constraints().Cons); n != 1577 {
		t.Errorf("%d constraints in the pool after LAC, want 1577", n)
	}
	// FNV-1a over the labels written as "r0,r1,...,": a compact pin of all
	// 665 labels.
	h := fnv.New64a()
	for _, r := range res.LAC.R {
		fmt.Fprintf(h, "%d,", r)
	}
	if got := h.Sum64(); len(res.LAC.R) != 665 || got != 0x58534ae3ab78d13 {
		t.Errorf("LAC labeling: %d labels, hash %#x; want 665, 0x58534ae3ab78d13", len(res.LAC.R), got)
	}
	if res.Problem.Pool.ProbeStats().Cuts == 0 {
		t.Error("the Tclk probe cut nothing")
	}
	if res.ProbeMem.DenseBytes != 0 {
		t.Error("source reports dense matrix bytes")
	}
}

// stageCounter returns the named counter of the pass's event for stage, or
// -1 when there is none.
func stageCounter(res *Result, stage, name string) float64 {
	for _, ev := range res.Trace {
		if ev.Stage != stage {
			continue
		}
		for _, c := range ev.Counters {
			if c.Name == name {
				return c.Value
			}
		}
	}
	return -1
}

// TestProblemRegeneratesConstraints: a core Problem without a cut pool
// probes Tclk cold for one, and its pool reproduces the planned min-area
// baseline.
func TestProblemRegeneratesConstraints(t *testing.T) {
	nl := smallCircuit(t)
	res, err := Plan(nl, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := res.Problem
	p := &core.Problem{Graph: q.Graph, Tclk: q.Tclk, TileOf: q.TileOf, Cap: q.Cap, FFArea: q.FFArea}
	ma, err := p.MinAreaBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if ma.NF != res.MinArea.NF || ma.NFOA != res.MinArea.NFOA {
		t.Fatalf("regenerated baseline NF=%d NFOA=%d, want NF=%d NFOA=%d",
			ma.NF, ma.NFOA, res.MinArea.NF, res.MinArea.NFOA)
	}
}

// cancelOnRun cancels the pass's context as its stage starts, so the
// wrapped stage runs under an already-cancelled context.
type cancelOnRun struct {
	Stage
	cancel context.CancelFunc
}

func (c cancelOnRun) Run(ctx context.Context, st *PlanState, cfg *Config) error {
	c.cancel()
	return c.Stage.Run(ctx, st, cfg)
}

// TestConstraintsStageCancelled: cancelling the pass while the constraints
// stage runs fails that stage with an error wrapping context.Canceled, not
// with ErrTclkInfeasible (Tclk was never shown infeasible).
func TestConstraintsStageCancelled(t *testing.T) {
	cfg := Config{Seed: 1}
	st, err := NewState(smallCircuit(t), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stages []Stage
	for _, s := range DefaultStages() {
		if s.Name() == stageConstraints {
			s = cancelOnRun{Stage: s, cancel: cancel}
		}
		stages = append(stages, s)
	}
	err = st.RunContext(ctx, stages, &cfg)
	if !errors.Is(err, context.Canceled) || errors.As(err, new(ErrTclkInfeasible)) {
		t.Fatalf("cancelled constraints stage: err = %v, want context.Canceled", err)
	}
	if n := len(st.Result.Trace); n == 0 || st.Result.Trace[n-1].Stage != stageConstraints {
		t.Fatalf("pass did not stop in the constraints stage: %d events", n)
	}
	if st.Constraints != nil {
		t.Fatal("cancelled stage committed a constraint system")
	}
}

// TestFractionalRouteCapacityFails: a fractional Config.RouteCapacity
// fails the pass in the route stage with route.ErrNotIntegral, and the
// stage commits no routing.
func TestFractionalRouteCapacityFails(t *testing.T) {
	cfg := Config{Seed: 1, RouteCapacity: 12.5}
	st, err := NewState(smallCircuit(t), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = st.RunContext(context.Background(), DefaultStages(), &cfg)
	if !errors.Is(err, route.ErrNotIntegral) {
		t.Fatalf("err = %v, want route.ErrNotIntegral", err)
	}
	if n := len(st.Result.Trace); n == 0 || st.Result.Trace[n-1].Stage != stageRoute {
		t.Fatalf("pass did not stop in the route stage: %d events", n)
	}
	if st.Routing != nil {
		t.Fatal("failed route stage committed a routing")
	}
}
