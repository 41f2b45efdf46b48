// Package core implements the paper's contribution: local area constrained
// retiming (LAC-retiming). Given a retiming graph whose vertices are mapped
// to capacity tiles of the floorplan, it finds a retiming that meets the
// target clock period while minimizing the number of flip-flops that
// violate per-tile area capacities.
//
// The LAC problem is an ILP (each tile constraint couples many retiming
// variables), so — following the paper — it is solved as a series of
// weighted minimum-area retimings: all units in a tile share an area
// weight, and after each solve the weights are adapted by
//
//	w_new(t) = w_old(t) * ((1-alpha) + alpha * AC(t)/C(t))
//
// which steers flip-flops away from over-utilized tiles. Iteration stops
// when all constraints are met or no improvement is seen for Nmax rounds.
// The clock-period constraints live in one cut pool per problem, grown by
// the rounds that need them and reused by every later round and solve.
// The first round's weights are uniform, so it is the min-area baseline:
// the problem keeps the baseline's solved flow network, and a solve takes
// the baseline's answer as its first round and warm-starts the second from
// a copy of that network instead of solving the first again.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"lacret/internal/obs"
	"lacret/internal/retime"
)

// Problem is a LAC-retiming instance.
type Problem struct {
	// Graph is the retiming graph (functional units, interconnect units,
	// ports).
	Graph *retime.Graph
	// Tclk is the target clock period.
	Tclk float64
	// TileOf maps every vertex to its capacity tile: a flip-flop on an
	// out-edge of vertex v occupies tile TileOf[v] (the paper's P
	// mapping: "each flip-flop is placed in the same tile as its fanin
	// functional unit or interconnect unit").
	TileOf []int
	// Cap is the remaining area capacity per tile (after repeater
	// insertion), in the same units as FFArea.
	Cap []float64
	// FFArea is the area of one flip-flop.
	FFArea float64
	// Pool optionally supplies the clock-period constraints: a cut pool
	// probed at Tclk over Graph (the planner's). When nil, the first solve
	// probes Tclk cold and keeps the pool here. The pool grows
	// monotonically across rounds and solves; the answers do not depend
	// on what it holds (see retime.CutPool).
	Pool *retime.CutPool

	// mu guards the lazy fill of Pool and the kept network; the pool
	// guards itself.
	mu sync.Mutex
	// kept is a solver that solved the uniform-weight min-area problem on
	// Pool (the baseline's, or a copy of a cold first LAC round's), and
	// keptRes its answer with zero work counters. Solve starts from a
	// clone of it while its network holds the pool's current system; kept
	// itself never solves again.
	kept    *retime.MinAreaSolver
	keptRes *retime.MinAreaResult
}

// pool returns the problem's cut pool, probing Tclk for one on first use.
func (p *Problem) pool(ctx context.Context) (*retime.CutPool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.Pool == nil {
		pool, err := retime.NewCutPool(ctx, p.Graph, p.Tclk)
		if err != nil {
			return nil, err
		}
		p.Pool = pool
	}
	return p.Pool, nil
}

// Options tunes the LAC loop.
type Options struct {
	// Alpha blends the previous tile weight with the utilization ratio.
	// The zero value selects the paper's recommended default 0.2 unless
	// AlphaSet is true, in which case Alpha == 0 is honored literally
	// (tile weights never adapt; every round re-solves uniform weights).
	Alpha float64
	// AlphaSet marks Alpha as explicitly chosen, so a literal 0 is not
	// conflated with "use the default".
	AlphaSet bool
	// Nmax is the no-improvement round limit (default 5).
	Nmax int
	// MaxIters hard-caps the number of weighted min-area solves
	// (default 30).
	MaxIters int
	// VerifyWarm cross-checks every round of the incremental engine
	// against a from-scratch solve and errors on any divergence in
	// labeling, register count, or weighted area — the warm/cold
	// equivalence gate. Costs one full cold solve per round; meant for
	// tests, not production runs.
	VerifyWarm bool
}

// IterStat records one weighted min-area round.
type IterStat struct {
	NFOA      int
	Registers int
	MaxRatio  float64 // worst AC(t)/C(t)
	// Duration is the wall time of this round's weighted min-area solve
	// (including violation accounting).
	Duration time.Duration
	// Warm is true when the round reused the flow engine's previous
	// residual network and potentials instead of solving from scratch.
	Warm bool
	// AugPaths counts the augmenting paths the flow engine ran this
	// round. Warm rounds route a localized supply delta through the
	// previous round's flow, or — when reweighting perturbs most supplies
	// — re-route from zero through the already-built network.
	AugPaths int
	// Phases counts the flow engine's multi-source Dijkstra searches this
	// round (each settles all deficits and batch-routes the admissible
	// subgraph).
	Phases int
	// Labelings counts the flow engine's exact distance labelings this
	// round (one per phase plus one per global relabel; see
	// mcmf.SolveStats.Labelings).
	Labelings int
	// Scans counts the arc positions the flow engine examined this round
	// (see mcmf.SolveStats.Scans).
	Scans int
	// SupplyChanged counts the node supplies that differed from the
	// previous round when the solve started. The constraint arcs' costs
	// are fixed bounds, so reweighting shows up purely in supplies.
	SupplyChanged int
	// Cuts counts the too-long paths the round's cut loop found, and
	// Rebuilds the flow networks it rebuilt from the grown pool (see
	// retime.MinAreaResult).
	Cuts, Rebuilds int
}

// Result is the outcome of LAC-retiming.
type Result struct {
	// R is the chosen retiming labeling; Retimed the resulting graph.
	R       []int
	Retimed *retime.Graph
	// NFOA is the number of flip-flops violating local area constraints
	// (sum over tiles of the flip-flops that do not fit).
	NFOA int
	// NF is the total number of flip-flops after retiming.
	NF int
	// NWR is the number of weighted min-area retimings performed.
	NWR int
	// TileFF holds the flip-flop count charged to each tile.
	TileFF []int
	// Violated lists tiles over capacity.
	Violated []int
	// Iters records per-round telemetry.
	Iters []IterStat
	// Truncated marks an anytime result: the context expired before the
	// LAC loop converged, and this is the best of the completed rounds
	// (SolveContext) or the min-area fallback an anytime caller degraded
	// to. The result is still a valid retiming — only the adaptive search
	// was cut short.
	Truncated bool
}

func (p *Problem) validate() error {
	if p.Graph == nil {
		return fmt.Errorf("core: nil graph")
	}
	if len(p.TileOf) != p.Graph.N() {
		return fmt.Errorf("core: TileOf has %d entries for %d vertices", len(p.TileOf), p.Graph.N())
	}
	for v, t := range p.TileOf {
		if t < 0 || t >= len(p.Cap) {
			return fmt.Errorf("core: vertex %d mapped to tile %d outside [0,%d)", v, t, len(p.Cap))
		}
	}
	if p.FFArea <= 0 {
		return fmt.Errorf("core: FFArea must be positive")
	}
	if p.Tclk <= 0 || math.IsNaN(p.Tclk) {
		return fmt.Errorf("core: invalid Tclk %g", p.Tclk)
	}
	p.mu.Lock()
	pool := p.Pool
	p.mu.Unlock()
	if pool != nil && (pool.Graph() != p.Graph || pool.Period() != p.Tclk) {
		return fmt.Errorf("core: Pool constrains another graph or period than Graph at Tclk %g", p.Tclk)
	}
	return nil
}

// TileFFCounts returns, per tile, the number of flip-flops charged to it by
// the given (already retimed) graph under the problem's P mapping.
func (p *Problem) TileFFCounts(g *retime.Graph) []int {
	return p.tileFF(g.RegistersPerEdgeTail())
}

// tileFF sums per-vertex out-edge register counts into their tiles.
func (p *Problem) tileFF(tails []int) []int {
	counts := make([]int, len(p.Cap))
	for v, c := range tails {
		counts[p.TileOf[v]] += c
	}
	return counts
}

// Violations computes N_FOA: the total number of flip-flops that do not fit
// their tile's capacity.
func (p *Problem) Violations(tileFF []int) (nfoa int, violated []int) {
	for t, c := range tileFF {
		over := float64(c)*p.FFArea - p.Cap[t]
		if over > 1e-9 {
			nfoa += int(math.Ceil(over / p.FFArea))
			violated = append(violated, t)
		}
	}
	return nfoa, violated
}

// MinAreaBaseline runs plain (uniform-weight) minimum-area retiming at Tclk
// and reports its violation metrics — the comparison column of Table 1.
func (p *Problem) MinAreaBaseline() (*Result, error) {
	return p.MinAreaBaselineContext(context.Background())
}

// MinAreaBaselineContext is MinAreaBaseline under a context. The context
// is forwarded into the flow engine, which checks it between its routing
// phases: a cancelled or expired context aborts the solve with an error
// wrapping the context's (errors.Is-matchable). Unlike SolveContext there
// is no anytime answer — the baseline is a single solve. A recorder on the
// context receives the engine's "mcmf-solve" span.
//
// The problem keeps the solved network, and the next Solve takes the
// baseline as its first round instead of solving it again (see Release).
func (p *Problem) MinAreaBaselineContext(ctx context.Context) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	pool, err := p.pool(ctx)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	solver := retime.NewMinAreaSolver(pool)
	solver.SetContext(ctx)
	ma, err := solver.Resolve(nil)
	if err != nil {
		return nil, err
	}
	res := &Result{
		R:      ma.R,
		NF:     ma.Registers,
		NWR:    1,
		TileFF: p.tileFF(ma.TailRegisters),
	}
	if err := p.apply(res); err != nil {
		return nil, err
	}
	res.NFOA, res.Violated = p.Violations(res.TileFF)
	res.Iters = []IterStat{iterStat(ma, time.Since(t0))}
	res.Iters[0].NFOA, res.Iters[0].Registers = res.NFOA, res.NF
	p.keep(solver, ma)
	return res, nil
}

// keep hands a solver that just solved uniform weights, and its answer, to
// the problem for the next Solve's first round. A solver that does not run
// on the problem's pool, or whose network misses cuts the pool gained
// meanwhile, is not kept. The kept solver never solves again, so it drops
// the caller's context (and any recorder on it).
func (p *Problem) keep(solver *retime.MinAreaSolver, ma *retime.MinAreaResult) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.kept, p.keptRes = nil, nil
	if solver.Current(p.Pool) {
		solver.SetContext(context.Background())
		p.kept = solver
		p.keptRes = &retime.MinAreaResult{R: slices.Clone(ma.R), Registers: ma.Registers,
			TailRegisters: slices.Clone(ma.TailRegisters), WeightedArea: ma.WeightedArea, FlowCost: ma.FlowCost}
	}
}

// start returns the solver a Solve runs its rounds on. While the kept
// network was built on pool and holds its current system, that is a clone
// of it, and first is a copy of its answer, the first round's; otherwise
// it is a new solver, and first is nil.
func (p *Problem) start(pool *retime.CutPool) (solver *retime.MinAreaSolver, first *retime.MinAreaResult) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.kept == nil || !p.kept.Current(pool) {
		p.kept, p.keptRes = nil, nil
		return retime.NewMinAreaSolver(pool), nil
	}
	ma := *p.keptRes
	ma.R, ma.TailRegisters = slices.Clone(ma.R), slices.Clone(ma.TailRegisters)
	return p.kept.Clone(), &ma
}

// Release drops the solved network the problem keeps for the next Solve's
// first round (see MinAreaBaselineContext); that Solve then solves the
// round cold. A planner calls it once it needs no more LAC solves, so a
// finished plan holds no flow network.
func (p *Problem) Release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.kept, p.keptRes = nil, nil
}

// apply builds the retimed graph of a result that is returned to a caller.
func (p *Problem) apply(res *Result) error {
	g, err := p.Graph.Apply(res.R)
	if err != nil {
		return fmt.Errorf("core: %v", err)
	}
	res.Retimed = g
	return nil
}

// Solve runs the LAC-retiming heuristic. The weighted min-area rounds run
// on one persistent retime.MinAreaSolver over the problem's cut pool: each
// reweighting round warm-starts the min-cost flow from the previous
// round's residual state, and a round whose labeling misses Tclk adds the
// cuts it needs to the pool and rebuilds the network.
//
// Round 0 has uniform weights, so it is the min-area answer. When the
// problem keeps a solved min-area network of the pool's current system
// (from MinAreaBaseline, or from an earlier Solve's round 0), Solve takes
// its answer as round 0, which reports no flow work and Warm false, and
// round 1 warm-starts from a clone of that network. Otherwise round 0
// solves cold, and a clone of its state is kept for the next Solve. The
// answers are the same either way. Only the returned result carries a
// retimed graph; the rounds count flip-flops off their labels.
//
// Solve is safe for concurrent use on one Problem; the calls share the
// pool and clone the kept network.
func (p *Problem) Solve(opt Options) (*Result, error) {
	return p.SolveContext(context.Background(), opt)
}

// SolveContext is Solve as an anytime computation. The context is checked
// between rounds and forwarded into the flow engine (checked between its
// routing phases), so even a single pathological solve is interruptible.
// When the context fires after at least one completed round, the best
// result tracked so far is returned with Truncated set — no error; with no
// completed round, the context's error is returned.
func (p *Problem) SolveContext(ctx context.Context, opt Options) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	alpha := opt.Alpha
	if alpha == 0 && !opt.AlphaSet {
		alpha = 0.2
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("core: alpha %g outside [0,1]", alpha)
	}
	if opt.Nmax <= 0 {
		opt.Nmax = 5
	}
	if opt.MaxIters <= 0 {
		opt.MaxIters = 30
	}
	pool, err := p.pool(ctx)
	if err != nil {
		return nil, err
	}
	solver, first := p.start(pool)
	// The flow engine needs the context when it must either honor a
	// deadline between phases or hang its per-solve spans off the caller's
	// recorder.
	if ctx.Done() != nil || obs.FromContext(ctx) != nil {
		solver.SetContext(ctx)
	}

	nTiles := len(p.Cap)
	weight := make([]float64, nTiles)
	for t := range weight {
		weight[t] = 1
	}
	area := make([]float64, p.Graph.N())

	// Observability handles: nil no-ops unless the caller installed a
	// recorder on the context. Each weighted min-area round becomes one
	// "lac-round" sub-stage span carrying the paper's per-round telemetry
	// (N_FOA, registers, warm/cold engine stats, weight-rescale magnitude).
	reg := obs.FromContext(ctx).Registry()
	gNfoa := reg.Gauge("lac.nfoa")
	cRounds := reg.Counter("lac.rounds")
	hRound := reg.Histogram("lac.round_ms", obs.DurationBucketsMS)

	var best *Result
	// finish builds the retimed graph of the answer returned; the rounds
	// count registers off their labels.
	finish := func(truncated bool) (*Result, error) {
		best.Truncated = truncated
		if err := p.apply(best); err != nil {
			return nil, err
		}
		return best, nil
	}
	noImprove := 0
	for iter := 0; iter < opt.MaxIters; iter++ {
		if cerr := ctx.Err(); cerr != nil {
			if best != nil {
				return finish(true)
			}
			return nil, cerr
		}
		rctx, rsp := obs.StartSpan(ctx, "lac-round")
		cRounds.Inc()
		// Re-point the flow engine at the round's context so its per-solve
		// spans nest under this round rather than under the stage.
		if rsp != nil {
			solver.SetContext(rctx)
		}
		roundStart := time.Now()
		for v := 0; v < p.Graph.N(); v++ {
			area[v] = weight[p.TileOf[v]]
		}
		// The first round has uniform weights: it is the min-area answer,
		// taken from the kept network when there is one.
		ma := first
		if iter > 0 || first == nil {
			var err error
			if ma, err = solver.Resolve(area); err != nil {
				rsp.End()
				// A solve aborted by the context mid-flow leaves the engine's
				// residual state undefined, but the best completed round is
				// still a valid result — surface it as the anytime answer.
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					if best != nil {
						return finish(true)
					}
					return nil, ctx.Err()
				}
				return nil, err
			}
			if iter == 0 && solver.Current(pool) {
				p.keep(solver.Clone(), ma)
			}
		}
		if opt.VerifyWarm {
			if err := p.verifyWarm(pool, area, ma); err != nil {
				rsp.End()
				return nil, err
			}
		}
		tileFF := p.tileFF(ma.TailRegisters)
		nfoa, violated := p.Violations(tileFF)
		cur := &Result{
			R:        ma.R,
			NFOA:     nfoa,
			NF:       ma.Registers,
			TileFF:   tileFF,
			Violated: violated,
		}
		maxRatio := 0.0
		for t, c := range tileFF {
			ratio := utilization(float64(c)*p.FFArea, p.Cap[t], p.FFArea)
			if ratio > maxRatio {
				maxRatio = ratio
			}
		}
		stat := iterStat(ma, time.Since(roundStart))
		stat.NFOA, stat.MaxRatio = nfoa, maxRatio
		gNfoa.Set(float64(nfoa))
		hRound.Observe(float64(stat.Duration.Microseconds()) / 1000)
		rsp.SetAttr("nfoa", float64(nfoa))
		rsp.SetAttr("registers", float64(ma.Registers))
		rsp.SetAttr("max_ratio", maxRatio)
		warmF := 0.0
		if ma.Stats.Warm {
			warmF = 1
		}
		rsp.SetAttr("warm", warmF)
		rsp.SetAttr("augpaths", float64(ma.Stats.AugmentingPaths))
		rsp.SetAttr("phases", float64(ma.Stats.Phases))
		rsp.SetAttr("labelings", float64(ma.Stats.Labelings))
		rsp.SetAttr("scans", float64(ma.Stats.Scans))
		rsp.SetAttr("supply_changed", float64(ma.Stats.SupplyChanged))
		rsp.SetAttr("cuts", float64(ma.Cuts))
		rsp.SetAttr("rebuilds", float64(ma.Rebuilds))

		if best == nil || cur.NFOA < best.NFOA || (cur.NFOA == best.NFOA && cur.NF < best.NF) {
			iters := best.itersOrNil()
			best = cur
			best.Iters = iters
			noImprove = 0
		} else {
			noImprove++
		}
		best.Iters = append(best.Iters, stat)
		best.NWR = iter + 1
		if best.NFOA == 0 || noImprove >= opt.Nmax {
			rsp.End()
			break
		}

		// The span records how hard the reweighting kicked the solver: the
		// largest absolute per-tile weight change, renormalization included.
		var oldWeight []float64
		if rsp != nil {
			oldWeight = append([]float64(nil), weight...)
		}
		// Adapt tile weights (paper step 6), then renormalize to the mean
		// so the magnitudes stay bounded across rounds.
		sum := 0.0
		for t := range weight {
			ratio := utilization(float64(tileFF[t])*p.FFArea, p.Cap[t], p.FFArea)
			weight[t] *= (1 - alpha) + alpha*ratio
			sum += weight[t]
		}
		mean := sum / float64(nTiles)
		if mean > 0 {
			for t := range weight {
				weight[t] /= mean
			}
		}
		if rsp != nil {
			rescale := 0.0
			for t := range weight {
				if d := math.Abs(weight[t] - oldWeight[t]); d > rescale {
					rescale = d
				}
			}
			rsp.SetAttr("weight_rescale", rescale)
		}
		rsp.End()
	}
	return finish(false)
}

// verifyWarm is the warm/cold equivalence gate: it re-solves the round
// from scratch on a fresh solver over the pool and errors if the
// incremental engine's answer differs in labeling, register count, or
// weighted area. Labels are compared exactly — residual shortest-path
// potentials span the optimal dual face, which is the same for every
// optimal flow, so warm and cold must agree bit for bit.
func (p *Problem) verifyWarm(pool *retime.CutPool, area []float64, warm *retime.MinAreaResult) error {
	cold, err := retime.NewMinAreaSolver(pool).Resolve(area)
	if err != nil {
		return fmt.Errorf("core: warm/cold gate: cold solve failed: %v", err)
	}
	if warm.Registers != cold.Registers {
		return fmt.Errorf("core: warm/cold gate: registers %d (warm) != %d (cold)",
			warm.Registers, cold.Registers)
	}
	if math.Abs(warm.WeightedArea-cold.WeightedArea) > 1e-9 {
		return fmt.Errorf("core: warm/cold gate: weighted area %g (warm) != %g (cold)",
			warm.WeightedArea, cold.WeightedArea)
	}
	for v := range warm.R {
		if warm.R[v] != cold.R[v] {
			return fmt.Errorf("core: warm/cold gate: label r(%d) = %d (warm) != %d (cold)",
				v, warm.R[v], cold.R[v])
		}
	}
	return nil
}

// iterStat is the round telemetry of one weighted min-area solve; the
// caller fills in the violation figures.
func iterStat(ma *retime.MinAreaResult, d time.Duration) IterStat {
	return IterStat{Registers: ma.Registers, Duration: d,
		Warm: ma.Stats.Warm, AugPaths: ma.Stats.AugmentingPaths, Phases: ma.Stats.Phases,
		Labelings: ma.Stats.Labelings, Scans: ma.Stats.Scans, SupplyChanged: ma.Stats.SupplyChanged,
		Cuts: ma.Cuts, Rebuilds: ma.Rebuilds}
}

func (r *Result) itersOrNil() []IterStat {
	if r == nil {
		return nil
	}
	return r.Iters
}

// utilization returns AC/C with a guard for (near-)zero capacities: a tile
// with no capacity but content is treated as heavily over-utilized, and the
// ratio is capped so weights cannot explode in one round.
func utilization(ac, cap, ffArea float64) float64 {
	const maxRatio = 16
	if cap < ffArea {
		cap = ffArea
	}
	r := ac / cap
	if r > maxRatio {
		return maxRatio
	}
	return r
}
