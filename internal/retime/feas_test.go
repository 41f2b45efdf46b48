package retime

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"lacret/internal/bench89"
)

// coldProbe is the from-scratch feasibility oracle the incremental solver
// must match bit-for-bit: rebuild the full constraint system at T and run
// the solver cold. Build errors (invalid T, vertex delay above T) are the
// infeasible verdict, exactly as the pre-solver period search treated them.
// The system comes from the all-pairs W/D oracle, so the cold side shares
// no sweep with the generation pass, only the candidate test.
func coldProbe(rg *Graph, wd *WD, T float64) (r []int, ok bool) {
	cs, err := oracleConstraints(rg, wd, T)
	if err != nil {
		return nil, false
	}
	return cs.Feasible(rg)
}

// coldMinPeriodWD re-implements the period search exactly as it ran before
// the incremental solver existed — cold probes, same bracket logic — as the
// bit-identity oracle for the full search. It also returns its probe
// count, which the incremental search must match: the period floor only
// answers probes faster, it never removes one.
func coldMinPeriodWD(rg *Graph, eps float64, wd *WD) (float64, []int, int, error) {
	if eps <= 0 {
		eps = 1e-4
	}
	hi, err := rg.Period()
	if err != nil {
		return 0, nil, 0, err
	}
	lo := 0.0
	for v := 0; v < rg.N(); v++ {
		if rg.delay[v] > lo {
			lo = rg.delay[v]
		}
	}
	if hi < lo {
		hi = lo
	}
	bestT := hi
	bestR := make([]int, rg.N())
	probes := 0
	probe := func(T float64) bool {
		probes++
		labels, ok := coldProbe(rg, wd, T)
		if !ok {
			return false
		}
		applied, err := rg.Apply(labels)
		if err != nil {
			return false
		}
		p, err := applied.Period()
		if err != nil {
			return false
		}
		if p < bestT {
			bestT, bestR = p, labels
		}
		return true
	}
	probe(lo)
	for bestT-lo > eps {
		mid := (lo + bestT) / 2
		if !probe(mid) {
			lo = mid
		} else if bestT > mid+periodEps {
			break
		}
	}
	if err := rg.CheckFeasible(bestR, bestT); err != nil {
		return 0, nil, 0, err
	}
	return bestT, bestR, probes, nil
}

func bench89Graph(tb testing.TB, name string) *Graph {
	tb.Helper()
	p, ok := bench89.ByName(name)
	if !ok {
		tb.Fatalf("no catalog circuit %q", name)
	}
	nl, err := bench89.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	nl.AssignUniform(1.0, 5.0)
	col, err := nl.Collapse()
	if err != nil {
		tb.Fatal(err)
	}
	rg, _, err := FromCollapsed(nl, col)
	if err != nil {
		tb.Fatal(err)
	}
	return rg
}

func labelsEqual(a, b []int) bool {
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

// checkProbeSequence drives one FeasSolver through the given periods,
// followed by periods spread over [MaxDelay, PeriodFloor) (the band the
// floor rejects but the bisection's bracket still covers), and asserts
// verdict and labeling agree exactly with the cold oracle at every step —
// in particular, the cold oracle is infeasible at every probe the solver
// bound-rejects. It returns the solver's counters.
func checkProbeSequence(t *testing.T, rg *Graph, probes []float64) ProbeStats {
	t.Helper()
	wd := oracleWD(rg)
	fs := NewFeasSolver(rg)
	lo, floor := rg.MaxDelay(), rg.PeriodFloor()
	for k := 0; k < 5; k++ {
		probes = append(probes, lo+(floor-lo)*float64(k)/5)
	}
	for i, T := range probes {
		rejects := fs.Stats().BoundRejects
		warmR, _, warmOK := fs.Probe(T)
		coldR, coldOK := coldProbe(rg, wd, T)
		if fs.Stats().BoundRejects > rejects && coldOK {
			t.Fatalf("probe %d at %g: bound-rejected below floor %g, but the cold oracle is feasible", i, T, floor)
		}
		if warmOK != coldOK {
			t.Fatalf("probe %d at %g: warm=%v cold=%v (stats %+v)", i, T, warmOK, coldOK, fs.Stats())
		}
		if warmOK && !labelsEqual(warmR, coldR) {
			t.Fatalf("probe %d at %g: warm labels %v != cold %v", i, T, warmR, coldR)
		}
	}
	return fs.Stats()
}

// TestFeasSolverMatchesColdRandom: on random graphs, arbitrary probe
// sequences — descending (the real search), ascending (forces resets), and
// shuffled — give verdicts and labelings identical to cold solves.
func TestFeasSolverMatchesColdRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rg := randomGraph(rng, 4+rng.Intn(6), seed%2 == 0)
		p, err := rg.Period()
		if err != nil {
			return false
		}
		var probes []float64
		for k := 0; k <= 10; k++ {
			probes = append(probes, p*(1.1-float64(k)*0.11))
		}
		for k := 0; k < 6; k++ {
			probes = append(probes, rng.Float64()*p*1.2)
		}
		checkProbeSequence(t, rg, probes)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFeasSolverMatchesColdBench89: the same equivalence on realistic
// circuit structures (collapsed synthetic ISCAS89 graphs).
func TestFeasSolverMatchesColdBench89(t *testing.T) {
	for _, name := range []string{"s386", "s400", "s526"} {
		t.Run(name, func(t *testing.T) {
			rg := bench89Graph(t, name)
			p, err := rg.Period()
			if err != nil {
				t.Fatal(err)
			}
			var probes []float64
			for k := 0; k <= 12; k++ {
				probes = append(probes, p*(1.0-float64(k)*0.08))
			}
			probes = append(probes, p*0.7, p*0.95, p*0.2) // non-monotone tail
			st := checkProbeSequence(t, rg, probes)
			if name == "s400" && st.BoundRejects == 0 {
				t.Fatalf("no probe below the period floor %g was bound-rejected: %+v", rg.PeriodFloor(), st)
			}
		})
	}
}

// TestMinPeriodMatchesColdSearch: the full incremental search lands on the
// exact same period and labeling as the pre-solver cold search — the
// bit-identity guarantee behind the golden plan outputs.
func TestMinPeriodMatchesColdSearch(t *testing.T) {
	check := func(t *testing.T, rg *Graph) {
		t.Helper()
		wantT, wantR, _, wantErr := coldMinPeriodWD(rg, 1e-3, oracleWD(rg))
		gotT, gotR, _, err := rg.MinPeriod(context.Background(), 1e-3)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("err=%v cold err=%v", err, wantErr)
		}
		if err != nil {
			return
		}
		if gotT != wantT {
			t.Fatalf("T=%v cold=%v", gotT, wantT)
		}
		if !labelsEqual(gotR, wantR) {
			t.Fatalf("labels %v != cold %v", gotR, wantR)
		}
	}
	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			check(t, randomGraph(rng, 4+rng.Intn(6), seed%2 == 0))
		}
	})
	for _, name := range []string{"s386", "s400"} {
		t.Run(name, func(t *testing.T) {
			check(t, bench89Graph(t, name))
		})
	}
}

// TestMinPeriodProbesMatchColdSearch: the period floor answers probes
// below it in O(1) but removes none — the bisection keeps its bracket
// [MaxDelay, Tinit] and its midpoints, so the incremental search makes
// exactly as many probes as the cold one.
func TestMinPeriodProbesMatchColdSearch(t *testing.T) {
	check := func(t *testing.T, rg *Graph) {
		t.Helper()
		_, _, want, wantErr := coldMinPeriodWD(rg, 1e-3, oracleWD(rg))
		_, _, stats, err := rg.MinPeriod(context.Background(), 1e-3)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("err=%v cold err=%v", err, wantErr)
		}
		if err == nil && stats.Probes != want {
			t.Fatalf("probes=%d cold=%d (stats %+v)", stats.Probes, want, stats)
		}
	}
	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			check(t, randomGraph(rng, 4+rng.Intn(6), seed%2 == 0))
		}
	})
	for _, name := range []string{"s386", "s400"} {
		t.Run(name, func(t *testing.T) {
			check(t, bench89Graph(t, name))
		})
	}
}

// TestFeasSolverWarmStats: the descending probe sequence of a real search
// reports warm probes and cut work (regression guard on the counter
// plumbing): every probe that solved ran at least one timing pass.
func TestFeasSolverWarmStats(t *testing.T) {
	rg := bench89Graph(t, "s400")
	_, _, stats, err := rg.MinPeriod(t.Context(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Probes == 0 {
		t.Fatal("no probes recorded")
	}
	if stats.Warm == 0 {
		t.Fatalf("search ran with zero warm probes: %+v", stats)
	}
	if stats.Resets != 0 {
		t.Fatalf("monotone search should never reset: %+v", stats)
	}
	solved := stats.Probes - stats.BoundRejects - stats.WitnessRejects
	if stats.Cuts == 0 || stats.CutRounds < solved {
		t.Fatalf("implausible cut stats (%d probes solved): %+v", solved, stats)
	}
}

// TestProbePeriodMatchesApply: the period a feasible probe reads off its
// last timing pass is the period Graph.Period measures on the graph the
// probe's labeling retimes, bit for bit, over descending, ascending and
// shuffled probe sequences on random graphs and on s386, s400 and s953.
func TestProbePeriodMatchesApply(t *testing.T) {
	feasible := 0
	check := func(t *testing.T, what string, rg *Graph, rng *rand.Rand) {
		t.Helper()
		p, err := rg.Period()
		if err != nil {
			t.Fatal(err)
		}
		lo := rg.MaxDelay()
		var down []float64
		for k := 0; k <= 8; k++ {
			down = append(down, p-(p-lo)*float64(k)/8)
		}
		up := slices.Clone(down)
		slices.Reverse(up)
		shuffled := slices.Clone(down)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, seq := range [][]float64{down, up, shuffled} {
			fs := NewFeasSolver(rg)
			for _, T := range seq {
				r, got, ok := fs.Probe(T)
				if !ok {
					continue
				}
				feasible++
				applied, err := rg.Apply(r)
				if err != nil {
					t.Fatalf("%s T=%.17g: %v", what, T, err)
				}
				want, err := applied.Period()
				if err != nil {
					t.Fatalf("%s T=%.17g: %v", what, T, err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s T=%.17g: probe period %.17g, retimed graph's %.17g", what, T, got, want)
				}
			}
		}
	}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		check(t, fmt.Sprintf("seed %d", seed), randomGraph(rng, 5+rng.Intn(8), seed%2 == 1), rng)
	}
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"s386", "s400", "s953"} {
		check(t, name, bench89Graph(t, name), rng)
	}
	if feasible == 0 {
		t.Fatal("no probe was feasible")
	}
}

// TestWDRowFastPathMatchesGeneral: the out-degree-0 fast path of the W/D
// oracle must produce the same row as the general sweep — in particular, unreachable
// destinations carry D = -Inf, not 0.
func TestWDRowFastPathMatchesGeneral(t *testing.T) {
	build := func(selfLoop bool) *Graph {
		rg := NewGraph()
		a := rg.AddVertex("a", KindUnit, 2)
		b := rg.AddVertex("b", KindUnit, 3)
		s := rg.AddVertex("s", KindUnit, 1) // sink: out-degree 0
		rg.AddVertex("iso", KindUnit, 4)    // unreachable either way
		rg.AddEdge(a, b, 1)
		rg.AddEdge(b, s, 0)
		rg.AddEdge(b, a, 1)
		if selfLoop {
			// A registered self-loop flips s onto the general sweep without
			// making any other vertex reachable from it.
			rg.AddEdge(s, s, 1)
		}
		return rg
	}
	fast := oracleWD(build(false))
	general := oracleWD(build(true))
	const s = 2
	for v := 0; v < fast.N; v++ {
		if fast.W[s][v] != general.W[s][v] {
			t.Fatalf("W[s][%d]: fast=%d general=%d", v, fast.W[s][v], general.W[s][v])
		}
		if fast.D[s][v] != general.D[s][v] {
			t.Fatalf("D[s][%d]: fast=%g general=%g", v, fast.D[s][v], general.D[s][v])
		}
	}
	for v := 0; v < fast.N; v++ {
		if v == s {
			continue
		}
		if !math.IsInf(fast.D[s][v], -1) {
			t.Fatalf("unreachable D[s][%d]=%g, want -Inf", v, fast.D[s][v])
		}
	}
}

// TestFeasibleInfeasibleSystem: a constraint system with a negative cycle
// is reported infeasible (exercising the solver's early-exit SPFA path).
func TestFeasibleInfeasibleSystem(t *testing.T) {
	rg := ring(2, 1, 1)
	cs := &Constraints{N: 2, Cons: []Constraint{
		{U: 0, V: 1, Bound: -1},
		{U: 1, V: 0, Bound: -1},
	}}
	if _, ok := cs.Feasible(rg); ok {
		t.Fatal("negative-cycle system reported feasible")
	}
}

// TestFeasibleReusesArrays: repeated probes against one built system
// must not rebuild the solver-layout triple arrays.
func TestFeasibleReusesArrays(t *testing.T) {
	rg := bench89Graph(t, "s386")
	T, _, _, err := rg.MinPeriod(context.Background(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := rg.BuildConstraints(context.Background(), T*1.05)
	if err != nil {
		t.Fatal(err)
	}
	us1, _, _ := cs.solverArrays()
	us2, _, _ := cs.solverArrays()
	if len(us1) > 0 && &us1[0] != &us2[0] {
		t.Fatal("solverArrays rebuilt the cached triple")
	}
	if _, ok := cs.Feasible(rg); !ok {
		t.Fatal("system at 1.05*Tmin should be feasible")
	}
	// Alloc guard: a warm repeat allocates only the solver's own scratch
	// (labeling, adjacency, worklist) — a fixed count independent of the
	// constraint count, and strictly below the old path which also built
	// the three len(Cons)-sized triple arrays every call.
	allocs := testing.AllocsPerRun(20, func() {
		if _, ok := cs.Feasible(rg); !ok {
			t.Fatal("probe flipped to infeasible")
		}
	})
	if allocs > 10 {
		t.Fatalf("Feasible allocates %v objects per probe, want <= 10", allocs)
	}
}

func BenchmarkFeasible(b *testing.B) {
	rg := bench89Graph(b, "s953")
	T, _, _, err := rg.MinPeriod(context.Background(), 1e-3)
	if err != nil {
		b.Fatal(err)
	}
	cs, err := rg.BuildConstraints(context.Background(), T*1.05)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cs.Feasible(rg); !ok {
			b.Fatal("infeasible")
		}
	}
}

// TestWarmProbeSmokeS953: the incremental search on s953 beats a cold
// search probing the same periods. The cold side reads prebuilt W/D
// oracle rows; the warm side builds its cut pool from scratch on every
// run. Wall-clock comparisons are noisy, so the test is opt-in
// (LACRET_SMOKE=1; CI runs it in the benchmark-smoke step).
func TestWarmProbeSmokeS953(t *testing.T) {
	if os.Getenv("LACRET_SMOKE") != "1" {
		t.Skip("set LACRET_SMOKE=1 to run the warm-vs-cold smoke comparison")
	}
	rg := bench89Graph(t, "s953")
	wd := oracleWD(rg)
	run := func(f func()) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	var warmT, coldT float64
	warm := run(func() {
		T, _, _, err := rg.MinPeriod(context.Background(), 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		warmT = T
	})
	cold := run(func() {
		T, _, _, err := coldMinPeriodWD(rg, 1e-3, wd)
		if err != nil {
			t.Fatal(err)
		}
		coldT = T
	})
	if warmT != coldT {
		t.Fatalf("warm Tmin %v != cold %v", warmT, coldT)
	}
	t.Logf("s953 min-period search: warm %v vs cold %v (%.1fx)", warm, cold, float64(cold)/float64(warm))
	if warm >= cold {
		t.Fatalf("warm search (%v) did not beat cold search (%v)", warm, cold)
	}
}
