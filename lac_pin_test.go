package lacret

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
	"time"

	"lacret/internal/bench89"
	"lacret/internal/core"
	"lacret/internal/job"
	"lacret/internal/plan"
)

// lacPin is the pinned outcome of one LAC solve: the FNV-1a hash of the
// labels written as "r0,r1,...,", the Table 1 counts, and each weighted
// round's (N_FOA, registers).
type lacPin struct {
	hash          uint64
	nfoa, nf, nwr int
	rounds        [][2]int
}

func (p lacPin) String() string {
	return fmt.Sprintf("{%#x, %d, %d, %d, %v}", p.hash, p.nfoa, p.nf, p.nwr, p.rounds)
}

func pinOf(res *core.Result) lacPin {
	h := fnv.New64a()
	for _, r := range res.R {
		fmt.Fprintf(h, "%d,", r)
	}
	p := lacPin{hash: h.Sum64(), nfoa: res.NFOA, nf: res.NF, nwr: res.NWR}
	for _, it := range res.Iters {
		p.rounds = append(p.rounds, [2]int{it.NFOA, it.Registers})
	}
	return p
}

// TestLACAnswersPinned pins the LAC answers of four LAC-heavy circuits
// across the alpha grid. The golden s400 pin converges in one round at
// N_FOA 0, so it cannot see a flow engine that routes later rounds
// differently; s953, s641, s1196 and s1423 run several reweighting rounds
// each. The
// circuits are planned through min-area retiming at the default request
// configuration (as lacplan, table1 and lacretd plan them), then solved at
// each alpha.
func TestLACAnswersPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog circuits in short mode")
	}
	want := map[string]lacPin{
		"s953@0.05": {0xfb6299f9b615773c, 0, 392, 3, [][2]int{{99, 392}, {33, 392}, {0, 392}}},
		"s953@0.2":  {0xfb6299f9b615773c, 0, 392, 3, [][2]int{{99, 392}, {33, 392}, {0, 392}}},
		"s953@1": {0x32f23319597e6fa0, 21, 396, 20, [][2]int{{99, 392}, {37, 398}, {24, 398}, {37, 398},
			{24, 399}, {37, 398}, {24, 401}, {23, 396}, {37, 400}, {23, 398}, {34, 396}, {22, 399},
			{34, 396}, {22, 399}, {21, 396}, {22, 398}, {35, 398}, {22, 399}, {34, 396}, {21, 397}}},
		"s641@0.05": {0x98f90a810872079a, 1, 327, 7, [][2]int{{39, 327}, {1, 327}, {1, 327}, {30, 327},
			{1, 327}, {1, 327}, {1, 327}}},
		"s641@0.2": {0x6ae2f1d310db723c, 0, 329, 3, [][2]int{{39, 327}, {1, 327}, {0, 329}}},
		"s641@1":   {0xe58b45a6a239e714, 0, 331, 2, [][2]int{{39, 327}, {0, 331}}},
		"s1196@0.05": {0xff12692e1d8fe17a, 22, 578, 13, [][2]int{{210, 569}, {51, 569}, {54, 573}, {33, 573},
			{57, 578}, {27, 578}, {49, 578}, {22, 578}, {45, 578}, {23, 578}, {41, 578}, {26, 578}, {42, 578}}},
		"s1196@0.2": {0x6e40649e35c74777, 22, 579, 13, [][2]int{{210, 569}, {52, 573}, {62, 578}, {28, 578},
			{45, 578}, {26, 579}, {41, 579}, {22, 579}, {69, 579}, {78, 578}, {90, 578}, {90, 578}, {160, 578}}},
		"s1196@1": {0x20b29b4e9b74e5e1, 48, 592, 9, [][2]int{{210, 569}, {53, 590}, {71, 590}, {48, 592},
			{104, 579}, {90, 582}, {90, 578}, {160, 578}, {160, 578}}},
		"s1423@0.05": {0xf8487b7ac43b50c0, 148, 786, 9, [][2]int{{454, 783}, {187, 783}, {175, 783}, {148, 786},
			{179, 821}, {164, 821}, {181, 821}, {164, 821}, {173, 821}}},
		"s1423@0.2": {0x2d1a7499ff6731ad, 159, 835, 11, [][2]int{{454, 783}, {183, 786}, {184, 825}, {167, 832},
			{179, 832}, {159, 835}, {179, 835}, {171, 837}, {188, 838}, {160, 834}, {231, 828}}},
		"s1423@1": {0xdb31f035d3bae83, 187, 857, 9, [][2]int{{454, 783}, {198, 858}, {202, 863}, {187, 857},
			{228, 835}, {248, 849}, {296, 828}, {296, 828}, {313, 843}}},
	}
	for _, circuit := range []string{"s953", "s641", "s1196", "s1423"} {
		st, cfg := planBeforeLAC(t, circuit)
		for _, alpha := range []float64{0.05, 0.2, 1.0} {
			opt := cfg.LAC
			opt.Alpha, opt.AlphaSet = alpha, true
			res, err := st.Result.Problem.Solve(opt)
			if err != nil {
				t.Fatalf("%s alpha %g: %v", circuit, alpha, err)
			}
			key := fmt.Sprintf("%s@%g", circuit, alpha)
			got, w := pinOf(res), want[key]
			if got.String() != w.String() {
				t.Errorf("%s: got %v, want %v", key, got, w)
			}
		}
	}
}

// TestLACWarmColdReweighted arms the per-round warm/cold gate
// (core.Options.VerifyWarm) on two LAC-heavy circuits as the root
// benchmarks plan them. Every reweighting round perturbs most node
// supplies, so the flow engine takes its global-change path on a network
// the size of a real circuit, and every round must match a from-scratch
// solve in labeling, register count and weighted area.
func TestLACWarmColdReweighted(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog circuits in short mode")
	}
	for _, circuit := range []string{"s641", "s1196"} {
		r := plannedCircuit(t, circuit)
		n := r.Problem.Graph.N()
		for _, alpha := range []float64{0.05, 1.0} {
			opt := core.Options{Alpha: alpha, AlphaSet: true, Nmax: 5, MaxIters: 20, VerifyWarm: true}
			res, err := r.Problem.Solve(opt)
			if err != nil {
				t.Fatalf("%s alpha %g: %v", circuit, alpha, err)
			}
			global := 0
			for _, it := range res.Iters[1:] {
				if it.Warm && 4*it.SupplyChanged >= n {
					global++
				}
			}
			if res.NWR < 2 || global == 0 {
				t.Fatalf("%s alpha %g: %d rounds, %d warm with a global supply change; want a reweighted one",
					circuit, alpha, res.NWR, global)
			}
		}
	}
}

// planBeforeLAC plans a catalog circuit through min-area retiming at the
// default request configuration, as lacplan, table1 and lacretd plan it.
func planBeforeLAC(t *testing.T, circuit string) (*plan.PlanState, plan.Config) {
	t.Helper()
	req := job.PlanRequest{Source: job.Source{Circuit: circuit}}
	req.Normalize()
	nl, err := req.Source.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	cfg := req.PlanConfig()
	st, err := plan.NewState(nl, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	var stages []plan.Stage
	for _, s := range plan.DefaultStages() {
		if s.Name() != "lac" {
			stages = append(stages, s)
		}
	}
	if err := st.RunContext(context.Background(), stages, &cfg); err != nil {
		t.Fatalf("%s: %v", circuit, err)
	}
	return st, cfg
}

// TestLACAlphaOrderIndependent runs the planner benchmark's alpha grid
// forward on one Problem and reversed on another, then forward again on
// the second, whose pool the reversed run grew: every alpha's answer must
// be the same in all three, so the answers do not depend on what the cut
// pool held when a solve started.
func TestLACAlphaOrderIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog circuits in short mode")
	}
	alphas := []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}
	for _, circuit := range []string{"s641", "s1196"} {
		solve := func(st *plan.PlanState, cfg plan.Config, alpha float64) lacPin {
			opt := cfg.LAC
			opt.Alpha, opt.AlphaSet = alpha, true
			res, err := st.Result.Problem.Solve(opt)
			if err != nil {
				t.Fatalf("%s alpha %g: %v", circuit, alpha, err)
			}
			return pinOf(res)
		}
		fwd, fcfg := planBeforeLAC(t, circuit)
		want := map[float64]string{}
		for _, a := range alphas {
			want[a] = solve(fwd, fcfg, a).String()
		}
		rev, rcfg := planBeforeLAC(t, circuit)
		for i := len(alphas) - 1; i >= 0; i-- {
			if got := solve(rev, rcfg, alphas[i]).String(); got != want[alphas[i]] {
				t.Errorf("%s@%g reversed: %s, forward %s", circuit, alphas[i], got, want[alphas[i]])
			}
		}
		for _, a := range alphas {
			if got := solve(rev, rcfg, a).String(); got != want[a] {
				t.Errorf("%s@%g forward after reversed: %s, forward %s", circuit, a, got, want[a])
			}
		}
		if rev.Result.Problem.Pool.Stats().Cuts == 0 {
			t.Errorf("%s: the sweep never grew the pool", circuit)
		}
	}
}

// TestLACReusesBaseline compares Solves that take the min-area baseline's
// kept network as round 0 with Solves on a Problem that never ran the
// baseline, over the planner benchmark's alpha grid on s641 and s1196.
// The two sides are two identically planned states, so their cut pools
// grow in lockstep. Answers and every round's flow work from round 1 on
// must match; a reused round 0 reports no flow work. Once a solve grows
// the pool, the kept network is stale: the next solve runs round 0 cold
// and keeps a copy of it, which the solve after that reuses. A truncated
// answer, and every other returned one, carries the graph its labeling
// retimes, and plan.Plan keeps no network behind.
func TestLACReusesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog circuits in short mode")
	}
	alphas := []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}
	stale := 0
	for _, circuit := range []string{"s641", "s1196"} {
		st, cfg := planBeforeLAC(t, circuit)
		ref, _ := planBeforeLAC(t, circuit)
		p, rp := st.Result.Problem, ref.Result.Problem
		keptAt := p.Pool.Stats().Cuts
		for _, alpha := range alphas {
			opt := cfg.LAC
			opt.Alpha, opt.AlphaSet = alpha, true
			key := fmt.Sprintf("%s@%g", circuit, alpha)
			cutsNow := p.Pool.Stats().Cuts
			got, err := p.Solve(opt)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			fresh := &core.Problem{Graph: rp.Graph, Tclk: rp.Tclk, TileOf: rp.TileOf, Cap: rp.Cap,
				FFArea: rp.FFArea, Pool: rp.Pool}
			want, err := fresh.Solve(opt)
			if err != nil {
				t.Fatalf("%s fresh: %v", key, err)
			}
			if g, w := pinOf(got), pinOf(want); g.String() != w.String() {
				t.Fatalf("%s: reused %v, fresh %v", key, g, w)
			}
			if want.Iters[0].Phases == 0 {
				t.Fatalf("%s: the fresh Problem's round 0 did no flow work", key)
			}
			reused := cutsNow == keptAt
			if !reused {
				stale++
				keptAt = cutsNow
			}
			r0 := got.Iters[0]
			noWork := core.IterStat{NFOA: r0.NFOA, Registers: r0.Registers, MaxRatio: r0.MaxRatio, Duration: r0.Duration}
			if reused && r0 != noWork {
				t.Fatalf("%s: reused round 0 reports flow work: %+v", key, r0)
			}
			if !reused && r0 != withDuration(want.Iters[0], r0.Duration) {
				t.Fatalf("%s: cold round 0 %+v, fresh %+v", key, r0, want.Iters[0])
			}
			for i := 1; i < len(want.Iters); i++ {
				if g, w := got.Iters[i], want.Iters[i]; g != withDuration(w, g.Duration) {
					t.Fatalf("%s round %d: %+v, fresh %+v", key, i, g, w)
				}
			}
			checkRetimed(t, key, p, got)
			checkRetimed(t, key+" fresh", fresh, want)
		}
		if p.Pool.Stats().Cuts != rp.Pool.Stats().Cuts {
			t.Fatalf("%s: pools grew apart: %d and %d cuts", circuit, p.Pool.Stats().Cuts, rp.Pool.Stats().Cuts)
		}

		// Truncation right after round 0: the answer is the baseline's.
		base, err := p.MinAreaBaseline()
		if err != nil {
			t.Fatal(err)
		}
		opt := cfg.LAC
		opt.Alpha, opt.AlphaSet = 1, true
		got, err := p.SolveContext(&errAfter{Context: context.Background(), calls: 1}, opt)
		if err != nil {
			t.Fatalf("%s truncated: %v", circuit, err)
		}
		if !got.Truncated || got.NWR != 1 || got.NF != base.NF || got.NFOA != base.NFOA {
			t.Fatalf("%s truncated: %+v, baseline NF %d NFOA %d", circuit, got, base.NF, base.NFOA)
		}
		checkRetimed(t, circuit+" truncated", p, got)
	}

	// s1196's first LAC solve grows the pool.
	if stale == 0 {
		t.Error("no solve found the kept network stale")
	}

	// A planning pass keeps no flow network: a Solve on its Problem
	// solves round 0 cold.
	bp, _ := bench89.ByName("s641")
	nl, err := bench89.Generate(bp)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Alpha: 0.2, Nmax: 5, MaxIters: 20}
	res, err := plan.Plan(nl, plan.Config{Seed: bp.Seed, Whitespace: 0.13, LAC: opt})
	if err != nil {
		t.Fatal(err)
	}
	again, err := res.Problem.Solve(opt)
	if err != nil {
		t.Fatal(err)
	}
	if again.Iters[0].Phases == 0 {
		t.Error("plan.Plan left a kept network behind: round 0 reused it")
	}
}

// withDuration returns it with its wall time replaced.
func withDuration(it core.IterStat, d time.Duration) core.IterStat {
	it.Duration = d
	return it
}

// checkRetimed checks that a returned LAC answer's graph is its labeling
// applied to the problem's graph, and that its tile counts are that
// graph's.
func checkRetimed(t *testing.T, key string, p *core.Problem, res *core.Result) {
	t.Helper()
	want, err := p.Graph.Apply(res.R)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	if res.Retimed == nil || res.Retimed.M() != want.M() {
		t.Fatalf("%s: returned graph %v", key, res.Retimed)
	}
	for i := 0; i < want.M(); i++ {
		if res.Retimed.EdgeWeight(i) != want.EdgeWeight(i) {
			t.Fatalf("%s: edge %d weight %d, applied labeling %d", key, i, res.Retimed.EdgeWeight(i), want.EdgeWeight(i))
		}
	}
	if !slices.Equal(res.TileFF, p.TileFFCounts(res.Retimed)) {
		t.Fatalf("%s: TileFF %v, retimed graph %v", key, res.TileFF, p.TileFFCounts(res.Retimed))
	}
}

// errAfter is a context that reports itself cancelled once Err has been
// asked calls times, so a solve stops at a chosen check.
type errAfter struct {
	context.Context
	calls int
}

func (c *errAfter) Done() <-chan struct{} { return make(chan struct{}) }

func (c *errAfter) Err() error {
	if c.calls <= 0 {
		return context.Canceled
	}
	c.calls--
	return nil
}
