package plan

import (
	"context"
	"errors"
	"math"

	"lacret/internal/core"
	"lacret/internal/retime"
)

// periodsStage derives the timing envelope of the as-planned design: the
// initial period Tinit, the optimal retimed period Tmin, and the target
// Tclk.
type periodsStage struct{}

func (periodsStage) Name() string { return stagePeriods }

func (periodsStage) Run(ctx context.Context, st *PlanState, cfg *Config) error {
	rg, res := st.Result.Graph, st.Result
	if rp := st.restoredPeriods; rp != nil {
		// Checkpoint resume: the search outcome is already known, so adopt
		// the restored envelope; the probe counters stay zero — the proof
		// the search was skipped, not repeated.
		res.Tinit, res.Tmin, res.TminLo, res.Tclk = rp.Tinit, rp.Tmin, rp.TminLo, rp.Tclk
		if rp.Truncated {
			st.noteTruncated(stagePeriods)
		}
		return nil
	}
	tinit, err := rg.Period()
	if err != nil {
		return err
	}
	tmin, _, pstats, err := rg.MinPeriod(ctx, 1e-3)
	res.Probe = pstats
	var tminLo float64
	if err != nil {
		// Anytime degradation: a budget-interrupted search still yields an
		// achievable period (the bracket's upper end), so the pass plans
		// against that instead of failing. The proven-infeasible lower end
		// is reported as Result.TminLo.
		var beb *retime.ErrBudgetExceeded
		if !errors.As(err, &beb) {
			return err
		}
		tmin, tminLo = beb.Partial.Hi, beb.Partial.Lo
		st.noteTruncated(stagePeriods)
	}
	res.Tinit, res.Tmin, res.TminLo = tinit, tmin, tminLo
	if cfg.TclkOverride > 0 {
		res.Tclk = cfg.TclkOverride
	} else {
		res.Tclk = tmin + cfg.TclkSlack*(tinit-tmin)
	}
	return nil
}

func (periodsStage) Counters(st *PlanState) []Counter {
	res := st.Result
	cs := []Counter{
		{"tinit", res.Tinit},
		{"tmin", res.Tmin},
		{"tclk", res.Tclk},
		{"probes", float64(res.Probe.Probes)},
		{"feas_warm", float64(res.Probe.Warm)},
		{"witness_rejects", float64(res.Probe.WitnessRejects)},
		{"bound_rejects", float64(res.Probe.BoundRejects)},
		{"pairs_scanned", float64(res.Probe.PairsScanned)},
		{"cuts", float64(res.Probe.Cuts)},
		{"cut_rounds", float64(res.Probe.CutRounds)},
	}
	if res.Probe.Floor > 0 {
		cs = append(cs, Counter{"period_floor", res.Probe.Floor})
	}
	return cs
}

// constraintsStage probes Tclk once on a fresh feasibility solver and
// keeps its cut pool as the LAC problem's clock-period constraints (the
// paper's §4.2 generates them once; the pool holds only the path cuts the
// probe needed, and the retiming stages add the ones their labelings need),
// then assembles the LAC problem with per-tile free capacities.
type constraintsStage struct{}

func (constraintsStage) Name() string { return stageConstraints }

func (constraintsStage) Run(ctx context.Context, st *PlanState, cfg *Config) error {
	rg, res := st.Result.Graph, st.Result
	pool, err := retime.NewCutPool(ctx, rg, res.Tclk)
	if err != nil {
		// Only a proven infeasible probe means Tclk is infeasible;
		// cancellation and validation errors pass through as they are.
		if errors.As(err, new(retime.ErrInfeasible)) {
			return ErrTclkInfeasible{Tclk: res.Tclk, Tmin: res.Tmin}
		}
		return err
	}
	st.Constraints = pool.Constraints()
	g := st.Grid
	caps := make([]float64, g.NumTiles())
	for t := range caps {
		caps[t] = math.Max(0, g.Free(t))
	}
	res.Problem = &core.Problem{
		Graph: rg, Tclk: res.Tclk,
		TileOf: st.TileOf, Cap: caps, FFArea: st.Tech.FFArea,
		Pool: pool,
	}
	return nil
}

func (constraintsStage) Counters(st *PlanState) []Counter {
	var n int
	if st.Constraints != nil {
		n = len(st.Constraints.Cons)
	}
	cs := []Counter{
		{"constraints", float64(n)},
		{"sweeps", 0},
		{"sweeps_abandoned", 0},
	}
	if p := st.Result.Problem; p != nil && p.Pool != nil {
		ps := p.Pool.ProbeStats()
		cs = append(cs, Counter{"cuts", float64(ps.Cuts)}, Counter{"cut_rounds", float64(ps.CutRounds)})
	}
	return cs
}

// minAreaStage runs the plain minimum-area retiming baseline (one
// min-cost-flow solve, no tile awareness).
type minAreaStage struct{}

func (minAreaStage) Name() string { return stageMinArea }

func (minAreaStage) Run(ctx context.Context, st *PlanState, cfg *Config) error {
	res := st.Result
	ma, err := res.Problem.MinAreaBaselineContext(ctx)
	if err != nil {
		return err
	}
	res.MinArea = ma
	res.MinAreaNFN = CountInterconnectFFs(ma.Retimed)
	return nil
}

func (minAreaStage) Counters(st *PlanState) []Counter {
	if st.Result.MinArea == nil {
		return nil
	}
	var aug, ph, lv, sc, cuts, rb int
	for _, it := range st.Result.MinArea.Iters {
		aug += it.AugPaths
		ph += it.Phases
		lv += it.Labelings
		sc += it.Scans
		cuts += it.Cuts
		rb += it.Rebuilds
	}
	return []Counter{
		{"nfoa", float64(st.Result.MinArea.NFOA)},
		{"nf", float64(st.Result.MinArea.NF)},
		{"augpaths", float64(aug)},
		{"phases", float64(ph)},
		{"labelings", float64(lv)},
		{"scans", float64(sc)},
		{"cuts", float64(cuts)},
		{"rebuilds", float64(rb)},
	}
}

// lacStage runs the paper's contribution: LAC-retiming, a series of
// adaptively re-weighted min-area retimings until the per-tile area
// constraints hold or Nmax rounds bring no improvement. Its first round is
// the min-area stage's answer; once the loop is done the stage drops the
// flow network the problem kept for it, so a finished Result holds none.
type lacStage struct{}

func (lacStage) Name() string { return stageLAC }

func (lacStage) Run(ctx context.Context, st *PlanState, cfg *Config) error {
	res := st.Result
	lac, err := res.Problem.SolveContext(ctx, cfg.LAC)
	res.Problem.Release()
	if err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		// The context expired before the loop produced even a first round.
		// The min-area baseline is itself a feasible (tile-oblivious) LAC
		// answer — same NFOA accounting, zero reweighting rounds — so the
		// pass degrades to it rather than failing.
		cp := *res.MinArea
		cp.Truncated = true
		lac = &cp
	}
	if lac.Truncated {
		st.noteTruncated(stageLAC)
	}
	res.LAC = lac
	res.LACNFN = CountInterconnectFFs(lac.Retimed)
	return nil
}

func (lacStage) Counters(st *PlanState) []Counter {
	if st.Result.LAC == nil {
		return nil
	}
	// Incremental-engine telemetry: how many rounds reused the previous
	// solver state, and the total augmenting paths, search phases and
	// distance labelings across the loop (each phase batch-routes the whole
	// admissible subgraph, so phases ≪ augpaths measures how well batching
	// worked).
	var aug, ph, lv, sc, warm, cuts, rb int
	for _, it := range st.Result.LAC.Iters {
		aug += it.AugPaths
		ph += it.Phases
		lv += it.Labelings
		sc += it.Scans
		cuts += it.Cuts
		rb += it.Rebuilds
		if it.Warm {
			warm++
		}
	}
	return []Counter{
		{"nfoa", float64(st.Result.LAC.NFOA)},
		{"nf", float64(st.Result.LAC.NF)},
		{"rounds", float64(st.Result.LAC.NWR)},
		{"warm", float64(warm)},
		{"augpaths", float64(aug)},
		{"phases", float64(ph)},
		{"labelings", float64(lv)},
		{"scans", float64(sc)},
		{"cuts", float64(cuts)},
		{"rebuilds", float64(rb)},
	}
}
