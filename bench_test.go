// Benchmarks regenerating the paper's evaluation artifacts:
//
//   - Table 1 (the only data table): per-circuit min-area vs LAC-retiming
//     — BenchmarkTable1MinArea* / BenchmarkTable1LAC* time the two
//     retiming modes on planned circuits; cmd/table1 prints the full
//     table with all columns.
//   - Figure 1 (the planning flow): BenchmarkFigure1Flow times one
//     complete planning pass (partition → floorplan → route → repeaters →
//     retiming).
//   - Figure 2 (the tile graph): BenchmarkFigure2TileGraph times tile-
//     graph construction from a floorplan.
//   - §5 observations: BenchmarkAlphaSweep (the alpha ablation),
//     BenchmarkMinPeriod and BenchmarkPoolMinArea (the
//     retiming-engine costs), BenchmarkFloorplanStage and
//     BenchmarkRouteStage (the planner's front end).
package lacret

import (
	"context"
	"testing"

	"lacret/internal/bench89"
	"lacret/internal/core"
	"lacret/internal/experiments"
	"lacret/internal/job"
	"lacret/internal/plan"
	"lacret/internal/retime"
	"lacret/internal/tile"
)

// planned caches one planning result per circuit for the retiming benches.
var planned = map[string]*plan.Result{}

func plannedCircuit(b testing.TB, name string) *plan.Result {
	b.Helper()
	if r, ok := planned[name]; ok {
		return r
	}
	p, ok := bench89.ByName(name)
	if !ok {
		b.Fatalf("unknown circuit %s", name)
	}
	nl, err := bench89.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	r, err := plan.Plan(nl, plan.Config{Seed: p.Seed, Whitespace: 0.13,
		LAC: core.Options{Alpha: 0.2, Nmax: 5, MaxIters: 20}})
	if err != nil {
		b.Fatal(err)
	}
	planned[name] = r
	return r
}

func benchMinArea(b *testing.B, name string) {
	r := plannedCircuit(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Problem.MinAreaBaseline(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchLAC(b *testing.B, name string) {
	r := plannedCircuit(b, name)
	opt := core.Options{Alpha: 0.2, Nmax: 5, MaxIters: 20}
	var scans, labelings int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Problem.Solve(opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range res.Iters {
			scans += it.Scans
			labelings += it.Labelings
		}
	}
	// The flow engine's deterministic work per solve, beside the wall time.
	// The planned Problem keeps no flow network, so the first solve runs
	// round 0 cold and keeps its network; every later solve takes that
	// round's answer without a flow solve, so round 0 adds no scans or
	// labelings to them.
	b.ReportMetric(float64(scans)/float64(b.N), "scans/op")
	b.ReportMetric(float64(labelings)/float64(b.N), "labelings/op")
}

// Table 1: min-area retiming column (Texec) per circuit.
func BenchmarkTable1MinAreaS386(b *testing.B) { benchMinArea(b, "s386") }
func BenchmarkTable1MinAreaS400(b *testing.B) { benchMinArea(b, "s400") }
func BenchmarkTable1MinAreaS526(b *testing.B) { benchMinArea(b, "s526") }
func BenchmarkTable1MinAreaS953(b *testing.B) { benchMinArea(b, "s953") }

// Table 1: LAC-retiming column (Texec) per circuit.
func BenchmarkTable1LACS386(b *testing.B) { benchLAC(b, "s386") }
func BenchmarkTable1LACS400(b *testing.B) { benchLAC(b, "s400") }
func BenchmarkTable1LACS526(b *testing.B) { benchLAC(b, "s526") }
func BenchmarkTable1LACS953(b *testing.B) { benchLAC(b, "s953") }

// The LAC-heavy circuits of the planner benchmark's lac-sweep workload.
func BenchmarkTable1LACS641(b *testing.B)  { benchLAC(b, "s641") }
func BenchmarkTable1LACS1196(b *testing.B) { benchLAC(b, "s1196") }

// Figure 1: one complete interconnect-planning pass.
func BenchmarkFigure1Flow(b *testing.B) {
	p, _ := bench89.ByName("s400")
	for i := 0; i < b.N; i++ {
		nl, err := bench89.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.Plan(nl, plan.Config{Seed: p.Seed, Whitespace: 0.13}); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 2: tile-graph construction from a floorplan.
func BenchmarkFigure2TileGraph(b *testing.B) {
	r := plannedCircuit(b, "s953")
	hard := make([]bool, r.NumBlocks)
	unitArea := make([]float64, r.NumBlocks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tile.Build(r.Placement, hard, unitArea, tile.Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

// §4.2: the alpha ablation behind "around 0.2 typically produces the best
// results".
func BenchmarkAlphaSweep(b *testing.B) {
	r := plannedCircuit(b, "s526")
	alphas := []float64{0.1, 0.2, 0.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range alphas {
			if _, err := r.Problem.Solve(core.Options{Alpha: a, Nmax: 3, MaxIters: 8}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Full Table 1 driver over the three smallest circuits, sequential vs the
// worker pool.
func benchTable1(b *testing.B, jobs int) {
	circuits := []string{"s386", "s400", "s526"}
	cfg := experiments.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Table1Run(cfg, circuits, experiments.Table1Opts{Jobs: jobs})
		for _, r := range rows {
			if r.Err != "" {
				b.Fatalf("%s: %s", r.Circuit, r.Err)
			}
		}
	}
}

func BenchmarkTable1Sequential(b *testing.B) { benchTable1(b, 1) }
func BenchmarkTable1Parallel(b *testing.B)   { benchTable1(b, 0) }

// Retiming-engine costs (the paper's §4.2 complexity discussion: clock
// constraints generated once; min-cost flow per weighted round). Each
// MinPeriod iteration pays what a planning pass's periods stage pays: a
// fresh solver, its cut pool grown from the edge and pin constraints, and
// the probes. It reports the search's timing passes and cuts, which are
// deterministic.
func BenchmarkMinPeriod(b *testing.B) {
	r := plannedCircuit(b, "s526")
	b.ResetTimer()
	var st retime.ProbeStats
	for i := 0; i < b.N; i++ {
		var err error
		if _, _, st, err = r.Graph.MinPeriod(context.Background(), 1e-3); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.CutRounds), "cut_rounds/op")
	b.ReportMetric(float64(st.Cuts), "cuts/op")
}

// Extension ablation: fanout-sharing-aware min-area retiming (the
// Leiserson–Saxe mirror construction) vs the paper's edge-independent
// model.
func BenchmarkSharingModel(b *testing.B) {
	r := plannedCircuit(b, "s386")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Graph.MinAreaShared(r.Tclk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolMinArea times what the constraints and min-area stages run
// at Tclk: one probe on a fresh feasibility solver, whose cut pool the
// min-area cut loop then solves and grows until its labeling meets Tclk.
// It reports the pool's cuts at Tclk, the probe's timing passes and the
// loop's network rebuilds, which are deterministic.
func BenchmarkPoolMinArea(b *testing.B) {
	r := plannedCircuit(b, "s953")
	b.ReportAllocs()
	b.ResetTimer()
	var cuts, rounds, rebuilds int
	for i := 0; i < b.N; i++ {
		pool, err := retime.NewCutPool(context.Background(), r.Graph, r.Tclk)
		if err != nil {
			b.Fatal(err)
		}
		ma, err := retime.NewMinAreaSolver(pool).Resolve(nil)
		if err != nil {
			b.Fatal(err)
		}
		cuts = int(pool.ProbeStats().Cuts) + ma.Cuts
		rounds = pool.ProbeStats().CutRounds
		rebuilds = ma.Rebuilds
	}
	b.ReportMetric(float64(cuts), "cuts/op")
	b.ReportMetric(float64(rounds), "rounds/op")
	b.ReportMetric(float64(rebuilds), "rebuilds/op")
}

// benchStage plans s953 the way the planner benchmark configures a pass
// (the default request, normalized, so the seed is the catalog seed)
// through the stages before the named one, then times only that stage,
// re-run on the same state, and returns the state.
func benchStage(b *testing.B, name string) *plan.PlanState {
	req := job.PlanRequest{Source: job.Source{Circuit: "s953"}}
	req.Normalize()
	nl, err := req.Source.Netlist()
	if err != nil {
		b.Fatal(err)
	}
	cfg := req.PlanConfig()
	st, err := plan.NewState(nl, &cfg)
	if err != nil {
		b.Fatal(err)
	}
	stages := plan.DefaultStages()
	at := -1
	for i, s := range stages {
		if s.Name() == name {
			at = i
		}
	}
	if at < 0 {
		b.Fatalf("no stage %s", name)
	}
	ctx := context.Background()
	if err := st.RunContext(ctx, stages[:at], &cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := stages[at].Run(ctx, st, &cfg); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

// Front-end stage costs: the sequence-pair annealer and the maze router
// with rip-up and re-route, each timed alone on a planned s953. The
// router's searches/op and settled/op (cells expanded) are deterministic.
func BenchmarkFloorplanStage(b *testing.B) { benchStage(b, "floorplan") }

func BenchmarkRouteStage(b *testing.B) {
	res := benchStage(b, "route").Routing
	b.ReportMetric(float64(res.Searches), "searches/op")
	b.ReportMetric(float64(res.Settled), "settled/op")
}
