package plan

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"lacret/internal/bench89"
	"lacret/internal/core"
)

// The stage names of the default pipeline, in order.
var defaultStageNames = []string{
	"partition", "floorplan", "grid", "route", "repeaters",
	"graph", "periods", "constraints", "minarea", "lac",
}

func TestDefaultStagesOrder(t *testing.T) {
	stages := DefaultStages()
	if len(stages) != len(defaultStageNames) {
		t.Fatalf("%d stages, want %d", len(stages), len(defaultStageNames))
	}
	for i, s := range stages {
		if s.Name() != defaultStageNames[i] {
			t.Fatalf("stage %d is %q, want %q", i, s.Name(), defaultStageNames[i])
		}
	}
}

// TestPlanGoldenS400 pins the pipeline to the pre-refactor monolith: these
// values were captured from the single-function plan.Plan at the commit
// before the stage split, on catalog circuit s400 with its catalog seed
// and the Table 1 configuration. Any drift means the pipeline is not a
// pure refactoring.
func TestPlanGoldenS400(t *testing.T) {
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
	exact := func(name string, got, want float64) {
		if got != want {
			t.Errorf("%s = %.17g, want %.17g (pre-refactor monolith)", name, got, want)
		}
	}
	exact("Tinit", res.Tinit, 10.911687323097958)
	exact("Tmin", res.Tmin, 3.0401092935255556)
	exact("Tclk", res.Tclk, 4.6144248994400368)
	// The pre-refactor monolith summed wirelength in map-iteration order,
	// so its last ulp wandered run to run (…446/…449/…451/…454 observed);
	// the router now counts edges and multiplies once, which lands — and
	// stays — on this value.
	exact("RouteWirelength", res.RouteWirelength, 225501.13820302521)
	exact("SteinerEstimate", res.SteinerEstimate, 215432.45856162327)
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"MinArea.NFOA", res.MinArea.NFOA, 0},
		{"MinArea.NF", res.MinArea.NF, 235},
		{"LAC.NFOA", res.LAC.NFOA, 0},
		{"LAC.NF", res.LAC.NF, 235},
		{"LAC.NWR", res.LAC.NWR, 1},
		{"RepeaterCount", res.RepeaterCount, 272},
		{"WireUnits", res.WireUnits, 480},
		{"InterBlockNets", res.InterBlockNets, 77},
		{"RouteOverflow", res.RouteOverflow, 0},
		{"Grid.Rows", res.Grid.Rows, 16},
		{"Grid.Cols", res.Grid.Cols, 15},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d (pre-refactor monolith)", c.name, c.got, c.want)
		}
	}
}

func TestPlanEmitsTraceEvents(t *testing.T) {
	nl := smallCircuit(t)
	var streamed []StageEvent
	res, err := Plan(nl, Config{
		Seed: 1, FloorplanMoves: 2000,
		Trace: func(ev StageEvent) { streamed = append(streamed, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(defaultStageNames) {
		t.Fatalf("%d streamed events, want %d", len(streamed), len(defaultStageNames))
	}
	if len(res.Trace) != len(defaultStageNames) {
		t.Fatalf("%d result events, want %d", len(res.Trace), len(defaultStageNames))
	}
	counters := map[string]map[string]float64{}
	for i, ev := range res.Trace {
		if ev.Stage != defaultStageNames[i] {
			t.Fatalf("event %d is %q, want %q", i, ev.Stage, defaultStageNames[i])
		}
		if ev.Index != i {
			t.Fatalf("event %s has index %d, want %d", ev.Stage, ev.Index, i)
		}
		if ev.Skipped {
			t.Fatalf("stage %s skipped on a fresh plan", ev.Stage)
		}
		if ev.Wall <= 0 {
			t.Fatalf("stage %s has wall time %v", ev.Stage, ev.Wall)
		}
		if streamed[i].Stage != ev.Stage || streamed[i].Wall != ev.Wall {
			t.Fatalf("streamed event %d diverges from Result.Trace", i)
		}
		counters[ev.Stage] = map[string]float64{}
		for _, c := range ev.Counters {
			counters[ev.Stage][c.Name] = c.Value
		}
	}
	// The issue's key counters: nets routed, overflow, repeaters, wire
	// units, LAC rounds.
	for _, want := range []struct {
		stage, counter string
		value          float64
	}{
		{"route", "nets", float64(res.InterBlockNets)},
		{"route", "overflow", float64(res.RouteOverflow)},
		{"repeaters", "repeaters", float64(res.RepeaterCount)},
		{"graph", "wire_units", float64(res.WireUnits)},
		{"lac", "rounds", float64(res.LAC.NWR)},
		{"partition", "blocks", float64(res.NumBlocks)},
		{"periods", "tclk", res.Tclk},
		{"minarea", "nfoa", float64(res.MinArea.NFOA)},
	} {
		got, ok := counters[want.stage][want.counter]
		if !ok {
			t.Errorf("stage %s missing counter %s", want.stage, want.counter)
		} else if got != want.value {
			t.Errorf("stage %s counter %s = %g, want %g", want.stage, want.counter, got, want.value)
		}
	}
}

// TestPlanTracesStageWalls: the stage events are the pass's timing record.
// Every default stage runs exactly once with a non-negative wall, and
// StageWall reads the two retiming modes' Texec straight off those events.
func TestPlanTracesStageWalls(t *testing.T) {
	nl := smallCircuit(t)
	res, err := Plan(nl, Config{Seed: 1, FloorplanMoves: 3000})
	if err != nil {
		t.Fatal(err)
	}
	wall := map[string]time.Duration{}
	for _, name := range defaultStageNames {
		n := 0
		for _, ev := range res.Trace {
			if ev.Stage != name || ev.Skipped {
				continue
			}
			n++
			if ev.Wall < 0 {
				t.Fatalf("stage %s has negative wall %v", name, ev.Wall)
			}
			wall[name] = ev.Wall
		}
		if n != 1 {
			t.Fatalf("stage %s has %d executed events, want 1", name, n)
		}
	}
	for _, name := range []string{"minarea", "lac"} {
		if got := res.StageWall(name); got != wall[name] {
			t.Fatalf("StageWall(%q) = %v, event wall %v", name, got, wall[name])
		}
	}
	if len(res.LAC.Iters) != res.LAC.NWR {
		t.Fatalf("%d LAC round stats for NWR=%d", len(res.LAC.Iters), res.LAC.NWR)
	}
}

// TestPipelineStageByStage drives the stages one at a time through the
// public API and checks the outcome matches the one-shot driver.
func TestPipelineStageByStage(t *testing.T) {
	nl := smallCircuit(t)
	cfg := Config{Seed: 3, FloorplanMoves: 2000}
	st, err := NewState(nl, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range DefaultStages() {
		if err := st.Run([]Stage{s}, &cfg); err != nil {
			t.Fatalf("stage %s: %v", s.Name(), err)
		}
	}
	nl2 := smallCircuit(t)
	ref, err := Plan(nl2, Config{Seed: 3, FloorplanMoves: 2000})
	if err != nil {
		t.Fatal(err)
	}
	res := st.Result
	if res.Tinit != ref.Tinit || res.Tmin != ref.Tmin || res.Tclk != ref.Tclk {
		t.Fatalf("stage-by-stage periods diverge: %v vs %v",
			[]float64{res.Tinit, res.Tmin, res.Tclk}, []float64{ref.Tinit, ref.Tmin, ref.Tclk})
	}
	if res.LAC.NFOA != ref.LAC.NFOA || res.LAC.NF != ref.LAC.NF ||
		res.RepeaterCount != ref.RepeaterCount || res.WireUnits != ref.WireUnits {
		t.Fatal("stage-by-stage outcome diverges from the one-shot driver")
	}
}

// TestReusePartitionSkipsStage locks the state-reuse contract: a pass
// seeded from an earlier pass skips partitioning, reports it as a Skipped
// trace event, and still produces the identical result.
func TestReusePartitionSkipsStage(t *testing.T) {
	nl := smallCircuit(t)
	cfg := Config{Seed: 6, FloorplanMoves: 2000, Whitespace: 0.02}
	first, st1, err := planPass(context.Background(), nl, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := ExpandedConfig(cfg, first)

	// Reference: full pipeline at the expanded configuration.
	nlRef := smallCircuit(t)
	ref, err := Plan(nlRef, cfg2)
	if err != nil {
		t.Fatal(err)
	}

	// Reused: re-enter at the floorplan stage.
	reused, _, err := planPass(context.Background(), nl, cfg2, st1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reused.Trace) == 0 || reused.Trace[0].Stage != "partition" || !reused.Trace[0].Skipped {
		t.Fatalf("partition not reported as skipped: %+v", reused.Trace)
	}
	for _, ev := range reused.Trace[1:] {
		if ev.Skipped {
			t.Fatalf("stage %s unexpectedly skipped", ev.Stage)
		}
	}
	if d := reused.StageWall("partition"); d != 0 {
		t.Fatalf("skipped partition charged %v", d)
	}
	if reused.Tinit != ref.Tinit || reused.Tmin != ref.Tmin || reused.Tclk != ref.Tclk ||
		reused.LAC.NFOA != ref.LAC.NFOA || reused.LAC.NF != ref.LAC.NF ||
		reused.MinArea.NFOA != ref.MinArea.NFOA ||
		reused.RouteWirelength != ref.RouteWirelength ||
		reused.RepeaterCount != ref.RepeaterCount {
		t.Fatal("partition reuse changed the planning outcome")
	}
}

// TestReusePartitionResultCarriesBlocks is a regression test: a pass that
// reuses a partition must still report the block structure on its Result.
// It used to stay zero, so ExpandedConfig on a violating last-iteration
// result indexed a zero-length scale slice and panicked (first seen on
// s5378, the first circuit to end its final pass with violations).
func TestReusePartitionResultCarriesBlocks(t *testing.T) {
	nl := smallCircuit(t)
	cfg := Config{Seed: 6, FloorplanMoves: 2000, Whitespace: 0.02}
	first, st1, err := planPass(context.Background(), nl, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	reused, _, err := planPass(context.Background(), nl, ExpandedConfig(cfg, first), st1)
	if err != nil {
		t.Fatal(err)
	}
	if reused.NumBlocks != first.NumBlocks || reused.NumBlocks == 0 {
		t.Fatalf("reused pass reports %d blocks, first pass %d", reused.NumBlocks, first.NumBlocks)
	}
	if len(reused.BlockOf) != len(first.BlockOf) {
		t.Fatalf("reused pass reports %d block assignments, first pass %d",
			len(reused.BlockOf), len(first.BlockOf))
	}
	// Force a violation in the last soft block's tile and expand again —
	// exactly the path that used to panic.
	b := reused.NumBlocks - 1
	tl := reused.Grid.SoftTile[b]
	reused.LAC.Violated = append(reused.LAC.Violated, tl)
	next := ExpandedConfig(cfg, reused)
	if len(next.BlockScale) != reused.NumBlocks {
		t.Fatalf("BlockScale has %d entries for %d blocks", len(next.BlockScale), reused.NumBlocks)
	}
	if next.BlockScale[b] <= 1 {
		t.Fatalf("violated block %d not grown: scale %g", b, next.BlockScale[b])
	}
}

func TestReusePartitionErrors(t *testing.T) {
	nl := smallCircuit(t)
	cfg := Config{Seed: 1}
	st, err := NewState(nl, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ReusePartition(nil); err == nil {
		t.Fatal("nil previous state accepted")
	}
	if err := st.ReusePartition(&PlanState{}); err == nil {
		t.Fatal("empty previous state accepted")
	}
	other := smallCircuit(t)
	cfgO := Config{Seed: 1}
	prev, err := NewState(other, &cfgO)
	if err != nil {
		t.Fatal(err)
	}
	if err := prev.Run(DefaultStages()[:1], &cfgO); err != nil {
		t.Fatal(err)
	}
	if err := st.ReusePartition(prev); err == nil {
		t.Fatal("partition from a different netlist accepted")
	}
}

func TestPlanIterationsReusePartition(t *testing.T) {
	if testing.Short() {
		t.Skip("iterative planning in short mode")
	}
	nl := smallCircuit(t)
	iters, err := PlanIterations(nl, Config{Seed: 6, FloorplanMoves: 2000, Whitespace: 0.02}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) < 2 {
		t.Skip("no second iteration at this configuration")
	}
	for i, it := range iters {
		if it.Err != nil {
			continue
		}
		skipped := false
		for _, ev := range it.Result.Trace {
			if ev.Stage == "partition" && ev.Skipped {
				skipped = true
			}
		}
		if i == 0 && skipped {
			t.Fatal("first iteration skipped the partition stage")
		}
		if i > 0 && !skipped {
			t.Fatalf("iteration %d did not skip the partition stage", i+1)
		}
	}
}

// TestPlanIterationsInfeasibleSecondPass covers the paper's s1269 case
// through PlanIterations: the first pass succeeds (with violations), the
// expansion carries its Tclk over as TclkOverride, and the expanded
// floorplan's Tmin rises above it — the second pass must fail with
// ErrTclkInfeasible while the iteration list still carries the successful
// first pass. A near-zero slack puts Tclk right at the first pass's Tmin,
// so any Tmin increase after expansion trips the error.
func TestPlanIterationsInfeasibleSecondPass(t *testing.T) {
	nl := smallCircuit(t)
	iters, err := PlanIterations(nl, Config{
		Seed: 1, FloorplanMoves: 2000, Whitespace: 0.02, TclkSlack: 0.01,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 2 {
		t.Fatalf("%d iterations, want 2 (violating first pass, failing second)", len(iters))
	}
	first := iters[0]
	if first.Err != nil {
		t.Fatalf("first pass failed: %v", first.Err)
	}
	if first.Result == nil || first.Result.LAC == nil {
		t.Fatal("first pass result not carried in the iteration list")
	}
	if first.Result.LAC.NFOA == 0 {
		t.Fatal("first pass has no violations; nothing forced the second pass")
	}
	second := iters[1]
	var infeasible ErrTclkInfeasible
	if second.Err == nil || !errors.As(second.Err, &infeasible) {
		t.Fatalf("second pass error = %v, want ErrTclkInfeasible", second.Err)
	}
	if infeasible.Tclk >= infeasible.Tmin {
		t.Fatalf("infeasible with Tclk %g >= Tmin %g", infeasible.Tclk, infeasible.Tmin)
	}
	if infeasible.Tclk != first.Result.Tclk {
		t.Fatalf("second pass targeted %g, first pass's Tclk is %g",
			infeasible.Tclk, first.Result.Tclk)
	}
}

// benchSecondPass times one second-iteration pass (the expanded
// configuration after a violating first pass), with and without adopting
// the first pass's partition. The delta is what state reuse buys.
func benchSecondPass(b *testing.B, reuse bool) {
	nl := smallCircuit(b)
	cfg := Config{Seed: 6, FloorplanMoves: 2000, Whitespace: 0.02}
	first, st1, err := planPass(context.Background(), nl, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg2 := ExpandedConfig(cfg, first)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var prev *PlanState
		if reuse {
			prev = st1
		}
		if _, _, err := planPass(context.Background(), nl, cfg2, prev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIteration2Full(b *testing.B)   { benchSecondPass(b, false) }
func BenchmarkIteration2Reused(b *testing.B) { benchSecondPass(b, true) }

func TestStageEventString(t *testing.T) {
	ev := StageEvent{Stage: "route", Wall: 1500 * 1000, // 1.5ms
		Counters: []Counter{{"nets", 77}, {"wirelength", 225501.138}}}
	s := ev.String()
	for _, want := range []string{"route", "nets=77", "wirelength=225501.138"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string %q missing %q", s, want)
		}
	}
	skip := StageEvent{Stage: "partition", Skipped: true, Counters: []Counter{{"blocks", 4}}}
	if !strings.Contains(skip.String(), "reused") {
		t.Fatalf("skipped event string %q missing 'reused'", skip.String())
	}
}

func TestDecreasePct(t *testing.T) {
	mk := func(ma, lac int) *Result {
		return &Result{MinArea: &core.Result{NFOA: ma}, LAC: &core.Result{NFOA: lac}}
	}
	for _, c := range []struct {
		ma, lac int
		want    float64
	}{
		{0, 0, 0},    // neither violates
		{10, 0, 100}, // LAC removed all
		{10, 5, 50},  // halved
		{8, 8, 0},    // no change
		{0, 3, -300}, // regression: min-area clean, LAC violates
		{4, 5, -25},  // LAC worse than a violating min-area
	} {
		got := mk(c.ma, c.lac).DecreasePct()
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("DecreasePct(MA=%d, LAC=%d) = %g, want %g", c.ma, c.lac, got, c.want)
		}
	}
}
