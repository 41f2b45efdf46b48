// Package plan implements the paper's interconnect-planning flow end to
// end (Figure 1) as a staged pipeline: partition the RT-level netlist into
// soft blocks, floorplan them with a sequence-pair annealer, build the
// tile graph, globally route the inter-block connections, insert repeaters
// under the Lmax constraint, construct the retiming graph with
// interconnect units, derive Tinit / Tmin / Tclk, and run both plain
// minimum-area retiming and LAC-retiming for comparison.
//
// Each step is a Stage operating on a shared PlanState, so the flow can be
// instrumented per stage (Config.Trace), verified between stages
// (internal/check.VerifyState), and re-entered midway: the floorplan
// expansion of a second planning iteration reuses the first pass's
// partition (PlanState.ReusePartition), since expansion only rescales
// block footprints.
package plan

import (
	"context"
	"fmt"
	"time"

	"lacret/internal/core"
	"lacret/internal/floorplan"
	"lacret/internal/netlist"
	"lacret/internal/retime"
	"lacret/internal/route"
	"lacret/internal/tech"
	"lacret/internal/tile"
)

// Config tunes the planning flow. The zero value selects sensible defaults
// everywhere (tech.Default, automatic block count, 20% slack, etc.).
type Config struct {
	// Tech supplies process parameters; zero value selects tech.Default.
	Tech tech.Tech
	// Blocks is the number of soft blocks to partition into (0 = auto).
	Blocks int
	// BalanceTol is the per-bisection area balance tolerance (default 0.1).
	BalanceTol float64
	// Whitespace inflates block footprints; it is the budget for
	// repeaters and relocated flip-flops inside blocks (default 0.15).
	Whitespace float64
	// BlockScale optionally scales individual block areas (floorplan
	// expansion between planning iterations); nil = all 1.0.
	BlockScale []float64
	// HardBlocks lists block indices to treat as hard macros: fixed
	// square footprint, closed to insertion except for pre-located
	// repeater/flip-flop sites of HardSiteArea per tile (paper §2, §4).
	HardBlocks []int
	// HardSiteArea is the insertion-site area per hard-block tile (um^2).
	HardSiteArea float64
	// FloorplanMoves bounds the annealing effort (default 20000).
	FloorplanMoves int
	// ChannelWidth is the routing-channel spacing between blocks (um);
	// channels carry routed wires and host repeaters and relocated
	// flip-flops (default: 0.8 * sqrt(UnitArea)).
	ChannelWidth float64
	// Tile tunes grid construction.
	Tile tile.Params
	// RouteCapacity is the per-boundary routing capacity (default 16). It
	// must be an integer (see route.Options): the route stage fails with
	// route.ErrNotIntegral otherwise.
	RouteCapacity float64
	// TclkSlack positions the target period between Tmin and Tinit:
	// Tclk = Tmin + TclkSlack*(Tinit-Tmin) (default 0.2, the paper's
	// choice).
	TclkSlack float64
	// TclkOverride, when positive, fixes Tclk directly (used by the
	// second planning iteration, which must keep the same target).
	TclkOverride float64
	// LAC tunes the adaptive loop.
	LAC core.Options
	// Budget bounds the wall-clock time of one planning pass; the zero
	// value disables budgeting entirely (bit-identical to pre-budget
	// behavior). See Budget.
	Budget Budget
	// Seed drives all randomized substeps.
	Seed int64
	// Trace, when non-nil, receives one StageEvent per pipeline stage as
	// it completes (stage name, wall time, key counters). The same events
	// accumulate on Result.Trace.
	Trace func(StageEvent)
	// Checkpoint, when non-nil, receives a serialized snapshot of the
	// pipeline state after each checkpointable stage commits (the stage
	// name plus self-contained versioned bytes; see PlanState.Checkpoint).
	// A later run of the same netlist and configuration can resume from
	// the last snapshot through Resume. Snapshot encoding failures are
	// counted on the context's obs registry (plan.checkpoint_errors), not
	// surfaced as pipeline errors — checkpointing is an overlay, never a
	// reason to fail a plan.
	Checkpoint func(stage string, data []byte)
	// Resume, when non-empty, is a snapshot produced by a previous run's
	// Checkpoint hook for the same netlist and configuration. The first
	// planning pass restores it and skips the covered stages (their trace
	// events are flagged Skipped, Result.Resumed names the restored
	// boundary). An incompatible or corrupt snapshot is ignored — the pass
	// plans from scratch and Result.ResumeRejected records why.
	Resume []byte
}

// Budget is the soft wall-clock limit of one planning pass. When Wall is
// positive, the anytime stages — the period binary search, the router's
// rip-up loop, and the LAC reweighting loop — each run under a deadline
// derived from it and return their best-so-far result when it fires, so a
// budgeted pass still produces a complete (possibly degraded) plan. The
// non-anytime stages always run to completion; a pass can therefore exceed
// Wall by the non-anytime work plus at most one in-flight probe/round per
// anytime stage.
type Budget struct {
	// Wall is the overall wall-clock budget for the pass (0 = unbounded).
	Wall time.Duration
}

// ErrTclkInfeasible is returned when the (overridden) target period cannot
// be met — the paper hits this on s1269 after floorplan expansion.
type ErrTclkInfeasible struct {
	Tclk, Tmin float64
}

func (e ErrTclkInfeasible) Error() string {
	return fmt.Sprintf("plan: target period %g infeasible (Tmin %g)", e.Tclk, e.Tmin)
}

// Result is the complete planning outcome for one circuit.
type Result struct {
	Name  string
	Stats netlist.Stats
	// Netlist is the planned netlist (with technology-assigned delays).
	Netlist *netlist.Netlist

	NumBlocks int
	// BlockOf maps non-input netlist nodes to blocks.
	BlockOf map[netlist.NodeID]int

	Placement *floorplan.Placement
	Grid      *tile.Grid

	// Routing summary.
	RouteWirelength float64
	// SteinerEstimate is the pre-routing total rectilinear Steiner length
	// of the inter-block nets (um).
	SteinerEstimate float64
	RouteOverflow   int
	RepeaterCount   int
	WireUnits       int
	InterBlockNets  int
	// Routes holds the routed trees of the inter-block nets (tile-cell
	// parent maps), for rendering and inspection.
	Routes []route.Tree

	Graph   *retime.Graph
	Problem *core.Problem

	Tinit, Tmin, Tclk float64
	// TminLo is set when the period search was truncated by the budget: the
	// largest period proven unachievable, so the true minimum lies in the
	// bracket (TminLo, Tmin] and Tmin is the achievable upper end the pass
	// planned against. Zero when the search ran to convergence.
	TminLo float64
	// Probe is the work profile of the minimum-period search's incremental
	// feasibility solver (warm probes, pairs scanned, witness rejects).
	Probe retime.ProbeStats
	// ProbeMem is the work accounting of the constraints stage's clock
	// generation (sweeps run, sources abandoned).
	ProbeMem retime.SourceMem

	MinArea *core.Result
	LAC     *core.Result
	// NFN: flip-flops inside interconnects (wire-unit tails).
	MinAreaNFN, LACNFN int

	// Trace lists the pipeline's stage events in execution order (the
	// same events Config.Trace streams), including Skipped entries for
	// stages satisfied by reused state on planning iteration ≥ 2.
	Trace []StageEvent

	// Resumed names the checkpoint boundary this pass restored through
	// Config.Resume (empty for a from-scratch pass); the covered stages
	// were skipped, not re-run.
	Resumed string
	// ResumeRejected records why a Config.Resume snapshot was refused
	// (version/netlist/seed mismatch, corrupt bytes); the pass then ran
	// from scratch.
	ResumeRejected string
}

// StageWall sums the wall time of the executed (non-skipped) events of the
// named stage — "minarea" and "lac" are the two retiming modes' Texec.
// Zero when the stage did not run or was satisfied by reused state.
func (r *Result) StageWall(stage string) time.Duration {
	var d time.Duration
	for _, ev := range r.Trace {
		if ev.Stage == stage && !ev.Skipped {
			d += ev.Wall
		}
	}
	return d
}

// TruncatedStages lists the stages whose events carry the Truncated flag —
// the anytime stages that degraded at the budget deadline — in execution
// order. Empty on an unbudgeted or within-budget pass.
func (r *Result) TruncatedStages() []string {
	var out []string
	for _, ev := range r.Trace {
		if ev.Truncated {
			out = append(out, ev.Stage)
		}
	}
	return out
}

// DecreasePct returns the percentage decrease of N_FOA from min-area to
// LAC (the last column of Table 1): 100 when min-area has violations and
// LAC removed all, 0 when neither has any. When min-area is clean but LAC
// is not (a regression the percentage cannot express), it returns the
// violation delta negated — -100 per introduced violation — so regressions
// read as negative instead of hiding behind 0.
func (r *Result) DecreasePct() float64 {
	if r.MinArea.NFOA == 0 {
		return -100 * float64(r.LAC.NFOA)
	}
	return 100 * float64(r.MinArea.NFOA-r.LAC.NFOA) / float64(r.MinArea.NFOA)
}

// CountInterconnectFFs counts registers sitting on out-edges of
// interconnect units — the paper's N_FN.
func CountInterconnectFFs(g *retime.Graph) int {
	n := 0
	tails := g.RegistersPerEdgeTail()
	for v, c := range tails {
		if g.Kind(v) == retime.KindWire {
			n += c
		}
	}
	return n
}

// Plan runs the full interconnect-planning flow on a netlist — a thin
// driver over NewState and the default stage list. The netlist must
// validate; gates with zero delay/area get the technology defaults.
func Plan(nl *netlist.Netlist, cfg Config) (*Result, error) {
	return PlanContext(context.Background(), nl, cfg)
}

// PlanContext is Plan under a context (hard stop at stage boundaries and
// stage checkpoints) and the configured soft Budget (anytime degradation);
// see PlanState.RunContext for the two limits' semantics. On a pipeline
// error the partial Result built so far is returned alongside it, so
// callers can report the best-so-far trace and artifacts.
func PlanContext(ctx context.Context, nl *netlist.Netlist, cfg Config) (*Result, error) {
	st, err := NewState(nl, &cfg)
	if err != nil {
		return nil, err
	}
	st.applyResume(&cfg)
	if err := st.RunContext(ctx, DefaultStages(), &cfg); err != nil {
		return st.Result, err
	}
	return st.Result, nil
}

// assignDefaults fills zero gate delays/areas from the technology.
func assignDefaults(nl *netlist.Netlist, tc tech.Tech) {
	for i := range nl.Nodes {
		n := &nl.Nodes[i]
		if n.Kind != netlist.KindGate {
			continue
		}
		if n.Delay == 0 {
			n.Delay = tc.UnitDelay
		}
		if n.Area == 0 {
			n.Area = tc.UnitArea
		}
	}
}
