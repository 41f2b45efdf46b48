package retime

import (
	"context"
	"fmt"
	"math"

	"lacret/internal/mcmf"
)

// areaScale converts real-valued area weights to integers so the min-cost
// flow runs on integral supplies (guaranteed termination, integral duals).
const areaScale = 1 << 10

// MinAreaResult reports a (weighted) minimum-area retiming.
type MinAreaResult struct {
	// R is the retiming labeling, normalized so pinned vertices are zero.
	R []int
	// Registers is the total register count after retiming.
	Registers int
	// TailRegisters holds, per vertex, the registers on its out-edges
	// after retiming (Graph.RegistersPerEdgeTail of the retimed graph).
	TailRegisters []int
	// WeightedArea is Σ_e A(tail(e))·w_r(e) under the caller's weights.
	WeightedArea float64
	// FlowCost is the raw min-cost-flow objective (scaled, relative).
	FlowCost float64
	// Stats reports how the underlying flow engine handled this solve
	// (warm vs cold, changed supplies, augmenting paths run), summed over
	// the cut loop's passes.
	Stats mcmf.SolveStats
	// Cuts counts the violated paths the cut loop's timing passes found;
	// Rebuilds counts the networks rebuilt cold after a pass added cuts.
	Cuts, Rebuilds int
}

// MinArea computes a minimum-area retiming for target period T with uniform
// area weights (the classical problem): it minimizes the total number of
// registers subject to the clock-period constraints, solved on a cut pool
// probed at T.
func (rg *Graph) MinArea(T float64) (*MinAreaResult, error) {
	pool, err := NewCutPool(context.Background(), rg, T)
	if err != nil {
		return nil, err
	}
	return NewMinAreaSolver(pool).Resolve(nil)
}

// MinAreaSolver solves the weighted minimum-area retiming problem
// repeatedly under changing per-vertex area weights, as the LAC reweighting
// loop does, against a cut pool. The flow network — one arc per pool
// constraint, cost = bound — persists across Resolve calls: each call only
// updates the node supplies induced by the new weights and warm-starts the
// flow engine from the previous residual network and potentials.
// Constraint bounds (arc costs) never change between rounds, so a round's
// work is proportional to the supply delta, not the network size.
//
// Each Resolve is a cutting-plane loop. It solves the flow on the pool,
// extracts the labeling and times it against the pool's period; when the
// timing pass finds paths that are too long, their cuts join the pool, the
// network is rebuilt from the grown pool and solved cold again. The loop
// ends with a labeling that meets the period, which is then the full
// system's answer (see CutPool).
//
// A MinAreaSolver is not safe for concurrent use; solvers sharing one pool
// may run concurrently.
type MinAreaSolver struct {
	rg   *Graph
	pool *CutPool
	ctx  context.Context
	// net is built from the pool on the first pass and rebuilt after a
	// pass adds cuts; it persists across Resolve calls otherwise. builtAt
	// is the pool's cut count (CutPool.Stats) when net was built.
	net     *mcmf.Graph
	builtAt int64
	// Scratch reused every round.
	edgeCost []float64
	aw       []float64
	supply   []float64
}

// NewMinAreaSolver returns a solver for repeated weighted min-area solves
// over the pool's graph at the pool's period. The network is built on the
// first Resolve.
func NewMinAreaSolver(pool *CutPool) *MinAreaSolver {
	rg := pool.Graph()
	return &MinAreaSolver{
		rg:       rg,
		pool:     pool,
		ctx:      context.Background(),
		edgeCost: make([]float64, rg.M()),
		aw:       make([]float64, rg.M()),
		supply:   make([]float64, rg.N()),
	}
}

// Resolve solves the weighted minimum-area retiming for the given
// per-vertex register weights A(v) (nil means uniform). The first call
// solves cold; subsequent calls warm-start from the previous solution.
// Results are identical to a from-scratch solve on the full constraint
// system with the same weights: the labels come from residual
// shortest-path potentials, which span the optimal dual face and are
// therefore the same for every optimal flow, however it was reached, and
// for every pool whose answer meets the period.
//
// The objective Σ_v r(v)·(fi(v) − fo(v)) with
// fi(v) = Σ_{u∈FI(v)} A(u), fo(v) = A(v)·|FO(v)| is minimized subject to
// the difference constraints; the LP dual is a transshipment problem solved
// by min-cost flow. Bounds are integral, so the recovered labels are
// exactly integral regardless of the (real) weights.
func (s *MinAreaSolver) Resolve(area []float64) (*MinAreaResult, error) {
	n := s.rg.N()
	if area != nil && len(area) != n {
		return nil, fmt.Errorf("retime: area weight count %d != vertex count %d", len(area), n)
	}
	// Per-edge costs derived from the tail vertex's weight (the paper's
	// model: a register on edge e occupies the tile of tail(e)).
	for i, e := range s.rg.g.Edges() {
		a := 1.0
		if area != nil {
			a = area[e.From]
		}
		if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			return nil, fmt.Errorf("retime: bad area weight %g for vertex %d", a, e.From)
		}
		s.edgeCost[i] = a
	}
	return s.resolveEdgeCosts(s.edgeCost, true)
}

// SetContext installs a cancellation context, checked between the cut
// loop's passes and by the flow engine between its routing phases. A
// Resolve interrupted this way returns an error wrapping the context's
// (errors.Is-matchable), and the solver should be discarded — the residual
// state is undefined, like after any other flow error.
func (s *MinAreaSolver) SetContext(ctx context.Context) {
	s.ctx = ctx
	if s.net != nil {
		s.net.SetContext(ctx)
	}
}

// build makes the flow network of the pool's current system.
func (s *MinAreaSolver) build() {
	cs, cuts := s.pool.system()
	net := mcmf.New(s.rg.N())
	for _, c := range cs.Cons {
		net.AddArc(c.U, c.V, mcmf.Inf, float64(c.Bound))
	}
	net.SetContext(s.ctx)
	s.net, s.builtAt = net, cuts
}

// Current reports whether the solver's network holds the current system
// of the given pool: the solver runs on that pool, its network has been
// built, and no cut joined the pool since. A cold Resolve on a new solver
// over the pool would then build the same network.
func (s *MinAreaSolver) Current(pool *CutPool) bool {
	return s.pool == pool && s.net != nil && pool.Stats().Cuts == s.builtAt
}

// Clone returns a solver over the same pool that continues from s's last
// successful Resolve: its next Resolve does exactly what s's would (same
// warm start, same labels, same work counters), and neither solver's
// rounds affect the other. The copy shares the network's topology and
// copies its flow state (see mcmf.Graph.Clone); it has no context
// installed. A solver that has not solved yet clones to a new one.
func (s *MinAreaSolver) Clone() *MinAreaSolver {
	c := NewMinAreaSolver(s.pool)
	if s.net != nil {
		c.net, c.builtAt = s.net.Clone(), s.builtAt
	}
	return c
}

// resolveEdgeCosts is the general weighted min-area solve against the
// persistent network: cost[i] is the register area charged per register on
// edge i. When clamp is true, costs are clamped to at least 1/areaScale so
// no register is ever free; the fanout-sharing transform passes clamp=false
// because its zero-cost edges are intentional (only mirror edges carry
// cost).
func (s *MinAreaSolver) resolveEdgeCosts(cost []float64, clamp bool) (*MinAreaResult, error) {
	rg, n := s.rg, s.rg.N()
	if len(cost) != rg.M() {
		return nil, fmt.Errorf("retime: edge cost count %d != edge count %d", len(cost), rg.M())
	}

	// Scaled integral costs.
	for i, c := range cost {
		sc := math.Round(c * areaScale)
		if clamp && sc < 1 {
			sc = 1
		}
		if sc < 0 {
			return nil, fmt.Errorf("retime: negative edge cost %g", c)
		}
		s.aw[i] = sc
	}

	// Node supplies: the dual transshipment needs, at every node,
	// inflow − outflow = Σ_in cost − Σ_out cost, i.e.
	// supply(v) = Σ_out cost − Σ_in cost. Only the supplies change between
	// rounds — the constraint arcs' costs are the (fixed) bounds — so the
	// engine routes just the imbalance the new weights introduce.
	for v := range s.supply {
		s.supply[v] = 0
	}
	for i, e := range rg.g.Edges() {
		s.supply[e.From] += s.aw[i]
		s.supply[e.To] -= s.aw[i]
	}

	res := &MinAreaResult{R: make([]int, n)}
	for pass := 0; ; pass++ {
		if pass > 0 {
			if err := s.ctx.Err(); err != nil {
				return nil, fmt.Errorf("retime: min-area cut loop: %w", err)
			}
		}
		if s.net == nil {
			s.build()
		}
		flowCost, err := s.solve(res.R)
		if err != nil {
			return nil, err
		}
		res.FlowCost = flowCost
		res.Stats = addStats(res.Stats, s.net.Stats(), pass == 0)
		found := s.pool.cut(res.R)
		if found == 0 {
			break
		}
		res.Cuts += found
		res.Rebuilds++
		s.net = nil
	}
	normalize(rg, res.R)

	// The retimed weights, read off the labels without building the
	// retimed graph: a caller that keeps the answer applies it.
	res.TailRegisters = make([]int, n)
	for i, e := range rg.g.Edges() {
		w := e.W + res.R[e.To] - res.R[e.From]
		if w < 0 {
			return nil, fmt.Errorf("retime: flow dual produced illegal labeling: %v", rg.negativeWeight(i, w))
		}
		res.Registers += w
		res.WeightedArea += cost[i] * float64(w)
		res.TailRegisters[e.From] += w
	}
	return res, nil
}

// solve routes the current supplies on the network and writes the labeling
// the optimal potentials give into r (not normalized).
func (s *MinAreaSolver) solve(r []int) (float64, error) {
	if err := s.net.SetSupply(s.supply); err != nil {
		return 0, fmt.Errorf("retime: %v", err)
	}
	flowCost, err := s.net.Resolve()
	if err != nil {
		if err == mcmf.ErrNegativeCycle {
			return 0, ErrInfeasible{T: s.pool.Period()}
		}
		return 0, fmt.Errorf("retime: min-cost flow failed: %w", err)
	}
	pot, err := s.net.Potentials()
	if err != nil {
		return 0, fmt.Errorf("retime: potential extraction failed: %v", err)
	}
	for v := range r {
		r[v] = -int(math.Round(pot[v]))
	}
	return flowCost, nil
}

// addStats folds one cut-loop pass's flow counters into a Resolve's: the
// work counters add up, and the first pass says how the solve started.
func addStats(acc, pass mcmf.SolveStats, first bool) mcmf.SolveStats {
	if first {
		return pass
	}
	acc.AugmentingPaths += pass.AugmentingPaths
	acc.Phases += pass.Phases
	acc.Labelings += pass.Labelings
	acc.Scans += pass.Scans
	return acc
}
