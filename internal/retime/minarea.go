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
	// Retimed is the graph with retimed edge weights.
	Retimed *Graph
	// Registers is the total register count after retiming.
	Registers int
	// WeightedArea is Σ_e A(tail(e))·w_r(e) under the caller's weights.
	WeightedArea float64
	// FlowCost is the raw min-cost-flow objective (scaled, relative).
	FlowCost float64
	// Stats reports how the underlying flow engine handled this solve
	// (warm vs cold, changed supplies, augmenting paths run).
	Stats mcmf.SolveStats
}

// MinArea computes a minimum-area retiming for target period T with uniform
// area weights (the classical problem): it minimizes the total number of
// registers subject to the clock-period constraints.
func (rg *Graph) MinArea(T float64) (*MinAreaResult, error) {
	cs, err := rg.BuildConstraints(context.Background(), T)
	if err != nil {
		return nil, err
	}
	return rg.MinAreaWithConstraints(cs, nil)
}

// MinAreaSolver solves the weighted minimum-area retiming problem
// repeatedly under changing per-vertex area weights, as the LAC reweighting
// loop does. The constraint network — one flow arc per difference
// constraint, cost = bound — is built once at construction; every Resolve
// only updates the node supplies induced by the new weights and
// warm-starts the flow engine from the previous round's residual network
// and potentials. Constraint bounds (arc costs) never change between
// rounds, so each round's work is proportional to the supply delta, not
// the network size.
//
// A MinAreaSolver is not safe for concurrent use.
type MinAreaSolver struct {
	rg *Graph
	cs *Constraints
	// net persists across Resolve calls (the tentpole state).
	net *mcmf.Graph
	// Scratch reused every round.
	edgeCost []float64
	aw       []float64
	supply   []float64
}

// NewMinAreaSolver builds the constraint flow network for repeated weighted
// min-area solves over rg. It fails fast with ErrInfeasible when the
// constraint system has no feasible retiming (checked once here, not per
// round).
func NewMinAreaSolver(rg *Graph, cs *Constraints) (*MinAreaSolver, error) {
	n := rg.N()
	if cs.N != n {
		return nil, fmt.Errorf("retime: constraint system for %d vertices, graph has %d", cs.N, n)
	}
	// Quick feasibility check; gives a crisp error instead of a flow error.
	if _, ok := cs.Feasible(rg); !ok {
		return nil, ErrInfeasible{T: math.NaN()}
	}
	net := mcmf.New(n)
	for _, c := range cs.Cons {
		net.AddArc(c.U, c.V, mcmf.Inf, float64(c.Bound))
	}
	return &MinAreaSolver{
		rg:       rg,
		cs:       cs,
		net:      net,
		edgeCost: make([]float64, rg.M()),
		aw:       make([]float64, rg.M()),
		supply:   make([]float64, n),
	}, nil
}

// Resolve solves the weighted minimum-area retiming for the given
// per-vertex register weights A(v) (nil means uniform). The first call
// solves cold; subsequent calls warm-start from the previous solution.
// Results are identical to a from-scratch MinAreaWithConstraints call with
// the same weights: the labels come from residual shortest-path potentials,
// which span the optimal dual face and are therefore the same for every
// optimal flow, however it was reached.
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

// Stats reports how the flow engine handled the most recent Resolve.
func (s *MinAreaSolver) Stats() mcmf.SolveStats { return s.net.Stats() }

// SetContext installs a cancellation context on the underlying flow engine,
// checked between its routing phases. A Resolve interrupted this way
// returns an error wrapping the context's (errors.Is-matchable), and the
// solver should be discarded — the residual state is undefined, like after
// any other flow error.
func (s *MinAreaSolver) SetContext(ctx context.Context) { s.net.SetContext(ctx) }

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

	if err := s.net.SetSupply(s.supply); err != nil {
		return nil, fmt.Errorf("retime: %v", err)
	}
	flowCost, err := s.net.Resolve()
	if err != nil {
		if err == mcmf.ErrNegativeCycle {
			return nil, ErrInfeasible{T: math.NaN()}
		}
		return nil, fmt.Errorf("retime: min-cost flow failed: %w", err)
	}
	pot, err := s.net.Potentials()
	if err != nil {
		return nil, fmt.Errorf("retime: potential extraction failed: %v", err)
	}
	r := make([]int, n)
	for v := 0; v < n; v++ {
		r[v] = -int(math.Round(pot[v]))
	}
	normalize(rg, r)

	retimed, err := rg.Apply(r)
	if err != nil {
		return nil, fmt.Errorf("retime: flow dual produced illegal labeling: %v", err)
	}
	res := &MinAreaResult{
		R:         r,
		Retimed:   retimed,
		Registers: retimed.TotalRegisters(),
		FlowCost:  flowCost,
		Stats:     s.net.Stats(),
	}
	for i, e := range retimed.g.Edges() {
		res.WeightedArea += cost[i] * float64(e.W)
	}
	return res, nil
}

// MinAreaWithConstraints solves the weighted minimum-area retiming problem
// against a prepared constraint system, one-shot. area gives the per-vertex
// register weight A(v) (the cost of a register sitting on an out-edge of v,
// i.e. in v's tile, per the paper's placement model); nil means uniform
// weights. Callers that re-solve under changing weights should hold a
// MinAreaSolver instead; this wrapper builds one, solves once, and drops
// it.
//
// The objective Σ_v r(v)·(fi(v) − fo(v)) with
// fi(v) = Σ_{u∈FI(v)} A(u), fo(v) = A(v)·|FO(v)| is minimized subject to
// the difference constraints; the LP dual is a transshipment problem solved
// by min-cost flow, and the optimal labels are recovered from residual
// shortest-path potentials. Bounds are integral, so the recovered labels
// are exactly integral regardless of the (real) weights.
func (rg *Graph) MinAreaWithConstraints(cs *Constraints, area []float64) (*MinAreaResult, error) {
	n := rg.N()
	if area != nil && len(area) != n {
		return nil, fmt.Errorf("retime: area weight count %d != vertex count %d", len(area), n)
	}
	s, err := NewMinAreaSolver(rg, cs)
	if err != nil {
		return nil, err
	}
	return s.Resolve(area)
}

// minAreaEdgeCosts is the one-shot entry for callers that weight edges
// directly rather than through tail-vertex areas (the fanout-sharing
// transform).
func (rg *Graph) minAreaEdgeCosts(cs *Constraints, cost []float64, clamp bool) (*MinAreaResult, error) {
	s, err := NewMinAreaSolver(rg, cs)
	if err != nil {
		return nil, err
	}
	return s.resolveEdgeCosts(cost, clamp)
}
