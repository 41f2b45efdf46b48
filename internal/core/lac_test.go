package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"lacret/internal/retime"
)

// tightLoose builds: pi -> a -> b -> po with one movable register (on a->b)
// and two tiles: tile 0 (tight, zero capacity) holding pi and a; tile 1
// (roomy) holding b and po. Plain min-area retiming has no reason to move
// the register out of tile 0; LAC must.
func tightLoose() *Problem {
	rg := retime.NewGraph()
	pi := rg.AddVertex("pi", retime.KindPort, 0)
	a := rg.AddVertex("a", retime.KindUnit, 1)
	b := rg.AddVertex("b", retime.KindUnit, 1)
	po := rg.AddVertex("po", retime.KindPort, 0)
	rg.AddEdge(pi, a, 0)
	rg.AddEdge(a, b, 1)
	rg.AddEdge(b, po, 0)
	return &Problem{
		Graph:  rg,
		Tclk:   10,
		TileOf: []int{0, 0, 1, 1},
		Cap:    []float64{0, 1000},
		FFArea: 10,
	}
}

func TestMinAreaBaselineReportsViolation(t *testing.T) {
	p := tightLoose()
	res, err := p.MinAreaBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if res.NF != 1 {
		t.Fatalf("NF=%d", res.NF)
	}
	// Uniform min-area is indifferent; whichever placement it picks, the
	// accounting must be consistent.
	nfoa, _ := p.Violations(res.TileFF)
	if nfoa != res.NFOA {
		t.Fatalf("inconsistent NFOA %d vs %d", res.NFOA, nfoa)
	}
}

// TestMinAreaBaselineContextCancelled: the baseline's flow solve honors
// its context, so a cancelled run stops with the context's error instead
// of solving to completion.
func TestMinAreaBaselineContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := tightLoose().MinAreaBaselineContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("res=%v err=%v, want an error matching context.Canceled", res, err)
	}
	if _, err := tightLoose().MinAreaBaselineContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestLACMovesRegisterOutOfTightTile(t *testing.T) {
	p := tightLoose()
	res, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NFOA != 0 {
		t.Fatalf("NFOA=%d after LAC (tileFF=%v)", res.NFOA, res.TileFF)
	}
	if res.TileFF[0] != 0 || res.TileFF[1] != 1 {
		t.Fatalf("tileFF=%v", res.TileFF)
	}
	if res.NF != 1 {
		t.Fatalf("NF=%d", res.NF)
	}
	if res.NWR < 1 {
		t.Fatalf("NWR=%d", res.NWR)
	}
	// Period still met.
	if err := p.Graph.CheckFeasible(res.R, p.Tclk); err != nil {
		t.Fatal(err)
	}
}

// ringProblem: a ring of 6 unit-delay vertices over 3 tiles (2 vertices
// each) carrying 3 registers; capacities allow registers only in specific
// tiles.
func ringProblem(caps []float64) *Problem {
	rg := retime.NewGraph()
	for i := 0; i < 6; i++ {
		rg.AddVertex("u", retime.KindUnit, 1)
	}
	for i := 0; i < 5; i++ {
		rg.AddEdge(i, i+1, 0)
	}
	rg.AddEdge(5, 0, 3)
	return &Problem{
		Graph:  rg,
		Tclk:   2,
		TileOf: []int{0, 0, 1, 1, 2, 2},
		Cap:    caps,
		FFArea: 1,
	}
}

func TestLACOnRingRespectsPeriodAndCaps(t *testing.T) {
	// Tclk=2 needs a register every 2 delay units: 3 registers spread out.
	// Give each tile capacity 1: a valid solution puts one register per
	// tile.
	p := ringProblem([]float64{1, 1, 1})
	res, err := p.Solve(Options{Nmax: 8, MaxIters: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.NFOA != 0 {
		t.Fatalf("NFOA=%d tileFF=%v", res.NFOA, res.TileFF)
	}
	if err := p.Graph.CheckFeasible(res.R, p.Tclk); err != nil {
		t.Fatal(err)
	}
	if res.NF != 3 {
		t.Fatalf("NF=%d", res.NF)
	}
}

func TestLACInfeasibleCapacityStillReturnsBest(t *testing.T) {
	// Zero capacity everywhere: violations are unavoidable; LAC must
	// return its best attempt, not fail.
	p := ringProblem([]float64{0, 0, 0})
	res, err := p.Solve(Options{Nmax: 3, MaxIters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.NFOA == 0 {
		t.Fatal("expected violations with zero capacity")
	}
	if res.NF != 3 {
		t.Fatalf("NF=%d", res.NF)
	}
	if len(res.Iters) == 0 || res.NWR == 0 {
		t.Fatalf("missing telemetry: %+v", res)
	}
}

func TestLACNeverWorseThanMinArea(t *testing.T) {
	for _, caps := range [][]float64{
		{1, 1, 1}, {0, 3, 0}, {3, 0, 0}, {2, 2, 2}, {0, 0, 3},
	} {
		p := ringProblem(caps)
		ma, err := p.MinAreaBaseline()
		if err != nil {
			t.Fatal(err)
		}
		lac, err := p.Solve(Options{Nmax: 8, MaxIters: 40})
		if err != nil {
			t.Fatal(err)
		}
		if lac.NFOA > ma.NFOA {
			t.Fatalf("caps %v: LAC NFOA %d > min-area %d", caps, lac.NFOA, ma.NFOA)
		}
	}
}

func TestLACInfeasiblePeriod(t *testing.T) {
	p := tightLoose()
	p.Tclk = 0.5 // below unit delay
	if _, err := p.Solve(Options{}); err == nil {
		t.Fatal("infeasible period accepted")
	}
}

func TestProblemValidation(t *testing.T) {
	good := tightLoose()
	bad := tightLoose()
	bad.TileOf = []int{0}
	if _, err := bad.Solve(Options{}); err == nil {
		t.Fatal("short TileOf accepted")
	}
	bad = tightLoose()
	bad.TileOf = []int{0, 0, 9, 0}
	if _, err := bad.Solve(Options{}); err == nil {
		t.Fatal("out-of-range tile accepted")
	}
	bad = tightLoose()
	bad.FFArea = 0
	if _, err := bad.Solve(Options{}); err == nil {
		t.Fatal("zero FFArea accepted")
	}
	bad = tightLoose()
	bad.Tclk = -1
	if _, err := bad.Solve(Options{}); err == nil {
		t.Fatal("negative Tclk accepted")
	}
	if _, err := good.Solve(Options{Alpha: 2}); err == nil {
		t.Fatal("alpha > 1 accepted")
	}
	nilGraph := tightLoose()
	nilGraph.Graph = nil
	if _, err := nilGraph.Solve(Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	otherPeriod := tightLoose()
	pool, err := retime.NewCutPool(context.Background(), otherPeriod.Graph, 2*otherPeriod.Tclk)
	if err != nil {
		t.Fatal(err)
	}
	otherPeriod.Pool = pool
	if _, err := otherPeriod.Solve(Options{}); err == nil {
		t.Fatal("pool for another period accepted")
	}
}

func TestConstraintReuse(t *testing.T) {
	p := tightLoose()
	pool, err := retime.NewCutPool(context.Background(), p.Graph, p.Tclk)
	if err != nil {
		t.Fatal(err)
	}
	p.Pool = pool
	res, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NFOA != 0 {
		t.Fatalf("NFOA=%d", res.NFOA)
	}
}

func TestUtilizationGuard(t *testing.T) {
	if utilization(100, 0, 1) != 16 {
		t.Fatal("zero capacity should cap at max ratio")
	}
	if utilization(5, 10, 1) != 0.5 {
		t.Fatal("plain ratio")
	}
	if utilization(1e9, 10, 1) != 16 {
		t.Fatal("cap at max ratio")
	}
}

func TestViolationsCeil(t *testing.T) {
	p := tightLoose()
	p.Cap = []float64{15, 1000} // 1.5 FFs of capacity in tile 0
	nfoa, violated := p.Violations([]int{3, 0})
	// 3 FFs x 10 area = 30; over = 15 -> ceil(15/10) = 2 FFs don't fit.
	if nfoa != 2 || len(violated) != 1 || violated[0] != 0 {
		t.Fatalf("nfoa=%d violated=%v", nfoa, violated)
	}
}

func TestSolveExactMatchesKnownOptimum(t *testing.T) {
	p := tightLoose()
	res, err := p.SolveExact()
	if err != nil {
		t.Fatal(err)
	}
	if res.NFOA != 0 || res.NF != 1 {
		t.Fatalf("exact: NFOA=%d NF=%d", res.NFOA, res.NF)
	}
	if err := p.Graph.CheckFeasible(res.R, p.Tclk); err != nil {
		t.Fatal(err)
	}
}

func TestSolveExactInfeasiblePeriod(t *testing.T) {
	p := tightLoose()
	p.Tclk = 0.5
	if _, err := p.SolveExact(); err == nil {
		t.Fatal("infeasible period accepted")
	}
}

// TestHeuristicOptimalityGap measures the paper's heuristic against the
// exact ILP optimum on small random instances: the heuristic can never be
// better, and on these sizes it should usually match.
func TestHeuristicOptimalityGap(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	trials, matched := 0, 0
	for iter := 0; iter < 30; iter++ {
		// Small ring with chords over 3 tiles, random tight capacities.
		nv := 4 + rng.Intn(3)
		rg := retime.NewGraph()
		for i := 0; i < nv; i++ {
			rg.AddVertex("u", retime.KindUnit, 1)
		}
		for i := 0; i+1 < nv; i++ {
			rg.AddEdge(i, i+1, rng.Intn(2))
		}
		rg.AddEdge(nv-1, 0, 1+rng.Intn(2))
		tileOf := make([]int, nv)
		for i := range tileOf {
			tileOf[i] = rng.Intn(3)
		}
		caps := []float64{float64(rng.Intn(3)), float64(rng.Intn(3)), float64(rng.Intn(3))}
		p := &Problem{
			Graph: rg, Tclk: float64(2 + rng.Intn(3)),
			TileOf: tileOf, Cap: caps, FFArea: 1,
		}
		exact, err := p.SolveExact()
		if err != nil {
			continue // infeasible period for this instance
		}
		heur, err := p.Solve(Options{Nmax: 6, MaxIters: 25})
		if err != nil {
			t.Fatalf("iter %d: heuristic failed where exact succeeded: %v", iter, err)
		}
		trials++
		if heur.NFOA < exact.NFOA {
			t.Fatalf("iter %d: heuristic %d beat the exact optimum %d", iter, heur.NFOA, exact.NFOA)
		}
		if heur.NFOA == exact.NFOA {
			matched++
		}
	}
	if trials == 0 {
		t.Skip("no feasible instances generated")
	}
	// The heuristic should match the optimum on a solid majority of these
	// tiny instances.
	if matched*2 < trials {
		t.Fatalf("heuristic matched the optimum on only %d/%d instances", matched, trials)
	}
	t.Logf("heuristic matched the exact ILP optimum on %d/%d instances", matched, trials)
}

// TestAlphaZeroHonored pins the Options.Alpha sentinel fix: Alpha: 0 with
// AlphaSet freezes the tile weights, so every round re-solves the identical
// uniform problem, nothing ever improves on round 1, and the loop runs out
// its full no-improvement window. Before the fix, Alpha == 0 silently
// became 0.2 and pure unweighted reweighting was unrequestable.
func TestAlphaZeroHonored(t *testing.T) {
	p := ringProblem([]float64{0, 0, 0}) // violations unavoidable: never stops early
	nmax := 3
	res, err := p.Solve(Options{Alpha: 0, AlphaSet: true, Nmax: nmax, MaxIters: 40})
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + nmax; res.NWR != want {
		t.Fatalf("NWR=%d, want %d (round 1 + full no-improvement window)", res.NWR, want)
	}
	for i, it := range res.Iters {
		if it.NFOA != res.Iters[0].NFOA || it.Registers != res.Iters[0].Registers {
			t.Fatalf("round %d differs under frozen weights: %+v vs %+v", i+1, it, res.Iters[0])
		}
	}
	// Without AlphaSet the zero value still selects the 0.2 default (the
	// long-standing behavior every existing caller relies on).
	if _, err := p.Solve(Options{Alpha: 0, Nmax: nmax, MaxIters: 40}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(Options{Alpha: -0.1, AlphaSet: true}); err == nil {
		t.Fatal("negative alpha accepted")
	}
}

// TestLACIterationAccounting locks the telemetry contract: one IterStat per
// weighted min-area round, wall time populated on every round, and the
// incremental-engine counters consistent with the LAC structure (round 1
// cold, later rounds warm, constraint arc costs never change).
func TestLACIterationAccounting(t *testing.T) {
	for _, caps := range [][]float64{{1, 1, 1}, {0, 0, 0}, {0, 3, 0}} {
		p := ringProblem(caps)
		res, err := p.Solve(Options{Nmax: 4, MaxIters: 20})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Iters) != res.NWR {
			t.Fatalf("caps %v: len(Iters)=%d, NWR=%d", caps, len(res.Iters), res.NWR)
		}
		for i, it := range res.Iters {
			if it.Duration <= 0 {
				t.Fatalf("caps %v: round %d has no Duration", caps, i+1)
			}
			if it.Warm != (i > 0) {
				t.Fatalf("caps %v: round %d Warm=%v", caps, i+1, it.Warm)
			}
			if i > 0 && it.SupplyChanged == 0 && it.AugPaths > 0 {
				t.Fatalf("caps %v: round %d ran %d augmenting paths with no supply change",
					caps, i+1, it.AugPaths)
			}
		}
	}
}

// TestMinAreaBaselineMatchesSolveRound1 pins that the baseline column of
// Table 1 and the LAC loop's first round are the same solve: uniform
// weights, identical NFOA and violated-tile accounting.
func TestMinAreaBaselineMatchesSolveRound1(t *testing.T) {
	for _, caps := range [][]float64{{1, 1, 1}, {0, 0, 0}, {0, 3, 0}, {2, 2, 2}} {
		p := ringProblem(caps)
		base, err := p.MinAreaBaseline()
		if err != nil {
			t.Fatal(err)
		}
		if len(base.Iters) != 1 || base.NWR != 1 {
			t.Fatalf("caps %v: baseline telemetry %d iters, NWR=%d", caps, len(base.Iters), base.NWR)
		}
		if base.Iters[0].Duration <= 0 {
			t.Fatalf("caps %v: baseline round has no Duration", caps)
		}
		round1, err := p.Solve(Options{MaxIters: 1})
		if err != nil {
			t.Fatal(err)
		}
		if round1.NFOA != base.NFOA || round1.NF != base.NF {
			t.Fatalf("caps %v: round 1 NFOA=%d NF=%d, baseline NFOA=%d NF=%d",
				caps, round1.NFOA, round1.NF, base.NFOA, base.NF)
		}
		if len(round1.Violated) != len(base.Violated) {
			t.Fatalf("caps %v: violated %v vs baseline %v", caps, round1.Violated, base.Violated)
		}
		for i := range round1.Violated {
			if round1.Violated[i] != base.Violated[i] {
				t.Fatalf("caps %v: violated %v vs baseline %v", caps, round1.Violated, base.Violated)
			}
		}
	}
}

// TestSolveWarmEqualsCold runs the full LAC loop on the incremental engine
// with the per-round warm/cold gate armed: every round's labeling, register
// count and weighted area must equal a from-scratch solve under the same
// weights. Equal rounds imply the identical trajectory (labeling, violation
// count, register count, round count) a from-scratch loop would take.
func TestSolveWarmEqualsCold(t *testing.T) {
	problems := []*Problem{
		tightLoose(),
		ringProblem([]float64{1, 1, 1}),
		ringProblem([]float64{0, 0, 0}),
		ringProblem([]float64{0, 3, 0}),
	}
	for pi, p := range problems {
		if _, err := p.Solve(Options{Nmax: 6, MaxIters: 25, VerifyWarm: true}); err != nil {
			t.Fatalf("problem %d: %v", pi, err)
		}
	}
}

// TestSolveWarmEqualsColdRandom is the randomized half of the warm/cold
// equivalence gate: random small instances (the optimality-gap generator's
// shape), every round cross-checked against a from-scratch solve by
// VerifyWarm.
func TestSolveWarmEqualsColdRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	for iter := 0; iter < 40; iter++ {
		nv := 4 + rng.Intn(4)
		rg := retime.NewGraph()
		for i := 0; i < nv; i++ {
			rg.AddVertex("u", retime.KindUnit, 1)
		}
		for i := 0; i+1 < nv; i++ {
			rg.AddEdge(i, i+1, rng.Intn(2))
		}
		rg.AddEdge(nv-1, 0, 1+rng.Intn(2))
		tileOf := make([]int, nv)
		for i := range tileOf {
			tileOf[i] = rng.Intn(3)
		}
		caps := []float64{float64(rng.Intn(3)), float64(rng.Intn(3)), float64(rng.Intn(3))}
		p := &Problem{
			Graph: rg, Tclk: float64(2 + rng.Intn(3)),
			TileOf: tileOf, Cap: caps, FFArea: 1,
		}
		if _, err := p.Solve(Options{Nmax: 5, MaxIters: 20, VerifyWarm: true}); err != nil {
			if _, infeasible := errInfeasible(err); infeasible {
				continue
			}
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

// errInfeasible reports whether err is a retiming infeasibility (the random
// generator produces periods below the minimum achievable).
func errInfeasible(err error) (retime.ErrInfeasible, bool) {
	e, ok := err.(retime.ErrInfeasible)
	return e, ok
}

// chordProblem builds a random instance large enough that its cut pool
// must grow: forward edges (weight 0 or 1) and backward edges (weight
// 1 or 2) over nv units of delay 1–4, mapped to four tiles of small
// capacity, at a period between Tmin and the unretimed period.
func chordProblem(t *testing.T, seed int64, nv int) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rg := retime.NewGraph()
	for i := 0; i < nv; i++ {
		rg.AddVertex("u", retime.KindUnit, float64(1+rng.Intn(4)))
	}
	for i := 0; i+1 < nv; i++ {
		rg.AddEdge(i, i+1, rng.Intn(2))
	}
	for k := 0; k < nv; k++ {
		i, j := rng.Intn(nv), rng.Intn(nv)
		if i < j {
			rg.AddEdge(i, j, rng.Intn(2))
		} else if i > j {
			rg.AddEdge(i, j, 1+rng.Intn(2))
		}
	}
	rg.AddEdge(nv-1, 0, 2)
	tmin, _, _, err := rg.MinPeriod(context.Background(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	tinit, err := rg.Period()
	if err != nil {
		t.Fatal(err)
	}
	tileOf := make([]int, nv)
	for i := range tileOf {
		tileOf[i] = rng.Intn(4)
	}
	return &Problem{
		Graph: rg, Tclk: tmin + 0.2*(tinit-tmin),
		TileOf: tileOf, Cap: []float64{2, 1, 3, 1}, FFArea: 1,
	}
}

// TestSolveConcurrentSharesPool: Solve calls running concurrently on one
// Problem share the pool they grow and give the answers of sequential
// solves on a fresh Problem. Each seed runs them twice: on a Problem that
// starts without a pool, so the solves probe it lazily, run round 0 cold
// and keep copies of their networks concurrently; and on one whose
// baseline probed the pool and kept its solved network, so the solves
// start from clones of one network. Run under -race.
func TestSolveConcurrentSharesPool(t *testing.T) {
	alphas := []float64{0.05, 0.2, 0.6, 1}
	for seed := int64(1); seed <= 3; seed++ {
		ref := chordProblem(t, seed, 60)
		want := make([]*Result, len(alphas))
		for i, a := range alphas {
			res, err := ref.Solve(Options{Alpha: a, AlphaSet: true})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res
		}
		if ref.Pool.Stats().Cuts == 0 {
			t.Fatalf("seed %d: the solves never grew the pool", seed)
		}
		for _, baseline := range []bool{false, true} {
			p := chordProblem(t, seed, 60)
			if baseline {
				if _, err := p.MinAreaBaseline(); err != nil {
					t.Fatal(err)
				}
			}
			got := make([]*Result, 2*len(alphas))
			errs := make([]error, len(got))
			done := make(chan struct{})
			for i := range got {
				go func() {
					defer func() { done <- struct{}{} }()
					got[i], errs[i] = p.Solve(Options{Alpha: alphas[i%len(alphas)], AlphaSet: true})
				}()
			}
			for range got {
				<-done
			}
			for i, res := range got {
				if errs[i] != nil {
					t.Fatalf("seed %d baseline %v solve %d: %v", seed, baseline, i, errs[i])
				}
				w := want[i%len(alphas)]
				if res.NFOA != w.NFOA || res.NF != w.NF || res.NWR != w.NWR {
					t.Fatalf("seed %d baseline %v alpha %g: NFOA/NF/NWR %d/%d/%d, sequential %d/%d/%d",
						seed, baseline, alphas[i%len(alphas)], res.NFOA, res.NF, res.NWR, w.NFOA, w.NF, w.NWR)
				}
				for v := range w.R {
					if res.R[v] != w.R[v] {
						t.Fatalf("seed %d baseline %v alpha %g: r(%d) = %d, sequential %d",
							seed, baseline, alphas[i%len(alphas)], v, res.R[v], w.R[v])
					}
				}
			}
		}
	}
}

// TestSolveAfterProblemSwap: a caller that runs the baseline, then clears
// Pool and changes Tclk or Graph, gets the answer of a Problem that was
// built that way. The kept network belongs to the old pool and must not
// seed the new problem's rounds.
func TestSolveAfterProblemSwap(t *testing.T) {
	opt := Options{Alpha: 0.2, AlphaSet: true}
	for seed := int64(1); seed <= 3; seed++ {
		other := chordProblem(t, seed+10, 60)
		for _, swap := range []string{"tclk", "graph"} {
			p := chordProblem(t, seed, 60)
			if _, err := p.MinAreaBaseline(); err != nil {
				t.Fatal(err)
			}
			fresh := chordProblem(t, seed, 60)
			switch swap {
			case "tclk":
				tinit, err := p.Graph.Period()
				if err != nil {
					t.Fatal(err)
				}
				p.Tclk = (p.Tclk + tinit) / 2
				fresh.Tclk = p.Tclk
			case "graph":
				p.Graph, p.Tclk, p.TileOf = other.Graph, other.Tclk, other.TileOf
				fresh = chordProblem(t, seed+10, 60)
			}
			p.Pool = nil
			got, err := p.Solve(opt)
			if err != nil {
				t.Fatalf("seed %d swap %s: %v", seed, swap, err)
			}
			want, err := fresh.Solve(opt)
			if err != nil {
				t.Fatal(err)
			}
			if got.NFOA != want.NFOA || got.NF != want.NF || got.NWR != want.NWR ||
				got.Iters[0].Scans != want.Iters[0].Scans {
				t.Fatalf("seed %d swap %s: NFOA/NF/NWR/scans0 %d/%d/%d/%d, fresh problem %d/%d/%d/%d", seed, swap,
					got.NFOA, got.NF, got.NWR, got.Iters[0].Scans, want.NFOA, want.NF, want.NWR, want.Iters[0].Scans)
			}
			if !slices.Equal(got.R, want.R) {
				t.Fatalf("seed %d swap %s: labeling differs from a fresh problem's", seed, swap)
			}
		}
	}
}
