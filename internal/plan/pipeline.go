package plan

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"lacret/internal/floorplan"
	"lacret/internal/netlist"
	"lacret/internal/obs"
	"lacret/internal/repeater"
	"lacret/internal/retime"
	"lacret/internal/route"
	"lacret/internal/tech"
	"lacret/internal/tile"
)

// Stage is one step of the planning pipeline (Figure 1). Stages read and
// write the shared PlanState; the default stage list (DefaultStages)
// reproduces the paper's flow, and callers may run a custom list — or one
// stage at a time — through PlanState.Run.
type Stage interface {
	// Name identifies the stage in trace events and budget weights.
	Name() string
	// Run executes the stage against the state. cfg carries the resolved
	// configuration (NewState fills in defaults). ctx carries cancellation
	// plus, for the anytime stages (periods, route, lac), the per-stage
	// budget deadline; stages commit their artifacts to st only as a
	// consistent whole, so an interrupted or failed run leaves a state
	// that still passes check.VerifyState for the completed prefix.
	Run(ctx context.Context, st *PlanState, cfg *Config) error
}

// StageError wraps a failure inside one pipeline stage. The pipeline's
// recover wrapper converts library-internal panics (graph/retime/mcmf/
// steiner input violations) into StageErrors carrying the stage name and
// the panicking goroutine's stack, so a malformed input can never crash a
// caller out of PlanState.Run. Regular stage errors pass through unwrapped.
type StageError struct {
	// Stage is the pipeline stage that failed.
	Stage string
	// Cause is the underlying error (the recovered panic value, wrapped).
	Cause error
	// Stack is the panicking goroutine's stack trace; nil when the error
	// did not come from a panic.
	Stack []byte
}

func (e *StageError) Error() string {
	return fmt.Sprintf("plan: stage %s: %v", e.Stage, e.Cause)
}

func (e *StageError) Unwrap() error { return e.Cause }

// Recovered reports whether this error was converted from a panic.
func (e *StageError) Recovered() bool { return e.Stack != nil }

// CounterReporter is an optional Stage extension: stages implementing it
// attach key counters (nets routed, overflow, repeaters, ...) to their
// trace events.
type CounterReporter interface {
	Counters(st *PlanState) []Counter
}

// Counter is one named trace metric.
type Counter struct {
	Name  string
	Value float64
}

// StageEvent is emitted once per pipeline stage — through Config.Trace as
// stages complete, and accumulated on Result.Trace. Skipped marks stages
// satisfied by state reused from an earlier pass (partition on planning
// iteration ≥ 2); their counters still describe the reused artifacts.
// Truncated marks an anytime stage that hit its budget deadline and
// committed a degraded-but-valid result; Recovered marks a stage whose
// failure was a panic converted to a StageError.
type StageEvent struct {
	Stage    string
	Index    int // position in the executed stage list
	Wall     time.Duration
	Skipped  bool
	Counters []Counter
	// Truncated: the stage returned its best-so-far result at the budget
	// deadline instead of running to convergence.
	Truncated bool
	// Recovered: the stage panicked and the pipeline converted the panic
	// into a StageError (the stage's artifacts were not committed).
	Recovered bool
	// Sub holds the stage's sub-stage spans (period probes, rip-up rounds,
	// LAC rounds, flow solves) when the run's context carried an obs
	// recorder; nil otherwise. The spans are shared with the recorder's
	// tree, not copied.
	Sub []*obs.Span
}

// String renders the event as one aligned trace line.
func (ev StageEvent) String() string {
	var b strings.Builder
	if ev.Skipped {
		fmt.Fprintf(&b, "%-11s %12s", ev.Stage, "reused")
	} else {
		fmt.Fprintf(&b, "%-11s %10.3fms", ev.Stage, float64(ev.Wall.Microseconds())/1000)
	}
	for _, c := range ev.Counters {
		if c.Value == float64(int64(c.Value)) {
			fmt.Fprintf(&b, "  %s=%.0f", c.Name, c.Value)
		} else {
			fmt.Fprintf(&b, "  %s=%.3f", c.Name, c.Value)
		}
	}
	if ev.Truncated {
		b.WriteString("  [truncated]")
	}
	if ev.Recovered {
		b.WriteString("  [recovered]")
	}
	return b.String()
}

// Conn is one deduplicated unit→unit (or unit→primary-output) connection
// from the collapsed netlist: the routable atom of the flow, carrying the
// register count W of the collapsed path and the sink's grid cell.
type Conn struct {
	From, To netlist.NodeID
	W        int
	SinkCell int
	// ToOutput marks To as a primary-output rather than a unit.
	ToOutput bool
}

// PlanState threads the intermediate artifacts of one planning pass
// through the pipeline stages. Fields are grouped by the stage that
// produces them; later stages only read what earlier stages wrote, so a
// later pass can adopt an earlier pass's prefix (ReusePartition) and
// re-enter the pipeline midway.
type PlanState struct {
	// Inputs, resolved by NewState.
	Netlist *netlist.Netlist
	Tech    tech.Tech
	Stats   netlist.Stats

	// Partition stage.
	Collapsed *netlist.Collapsed
	NumBlocks int
	BlockOf   map[netlist.NodeID]int

	// Floorplan stage.
	GateArea  []float64 // per-block functional-unit area (unscaled)
	HardBlock []bool
	Placement *floorplan.Placement

	// Grid stage.
	Grid *tile.Grid

	// Route stage.
	PadOfInput  map[netlist.NodeID]int
	PadOfOutput map[netlist.NodeID]int
	CellOfUnit  map[netlist.NodeID]int
	Conns       []Conn
	Nets        []route.Net // inter-block nets, in routing order
	NetOfUnit   map[netlist.NodeID]int
	Routing     *route.Result

	// Repeater stage: one plan per Conn (nil for intra-tile connections).
	RepeaterPlans []*repeater.Plan

	// Graph stage.
	TileOf   []int // capacity tile per retiming-graph vertex
	VertexOf map[netlist.NodeID]int

	// Constraints stage.
	Constraints *retime.Constraints

	// Result accumulates the reported outcome; stages fill their fields as
	// they run.
	Result *Result

	satisfied map[string]bool // stages covered by reused state
	truncated map[string]bool // stages that degraded at the budget deadline
	// restoredPeriods carries a resumed checkpoint's period-search outcome:
	// the periods stage adopts these values instead of searching again
	// (see RestoreCheckpoint).
	restoredPeriods *periodsRestore
}

// noteTruncated records that a stage hit its budget deadline and committed
// a degraded-but-valid result; the pipeline flags the stage's event and
// Result.TruncatedStages reports it.
func (st *PlanState) noteTruncated(stage string) {
	if st.truncated == nil {
		st.truncated = map[string]bool{}
	}
	st.truncated[stage] = true
}

// NewState validates the netlist and configuration, resolves the config
// defaults in place (technology, slack, whitespace, balance tolerance),
// and returns a fresh pipeline state ready for Run.
func NewState(nl *netlist.Netlist, cfg *Config) (*PlanState, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	tc := cfg.Tech
	if tc == (tech.Tech{}) {
		tc = tech.Default()
	}
	if err := tc.Validate(); err != nil {
		return nil, err
	}
	assignDefaults(nl, tc)
	stats := nl.Stats()
	if stats.Gates == 0 {
		return nil, fmt.Errorf("plan: netlist %s has no gates", nl.Name)
	}
	if cfg.TclkSlack == 0 {
		cfg.TclkSlack = 0.2
	}
	if cfg.TclkSlack < 0 || cfg.TclkSlack > 1 {
		return nil, fmt.Errorf("plan: TclkSlack %g outside [0,1]", cfg.TclkSlack)
	}
	if cfg.Whitespace == 0 {
		cfg.Whitespace = 0.15
	}
	if cfg.BalanceTol == 0 {
		cfg.BalanceTol = 0.1
	}
	return &PlanState{
		Netlist: nl, Tech: tc, Stats: stats,
		Result: &Result{Name: nl.Name, Stats: stats, Netlist: nl},
	}, nil
}

// ReusePartition seeds the state with the partition artifacts (collapsed
// netlist, block count, block assignment) of a completed earlier pass, so
// Run skips the partition stage. Valid when the netlist and the
// partition-relevant configuration (Blocks, BalanceTol, Seed) are
// unchanged — floorplan expansion between planning iterations only
// rescales block footprints (BlockScale, Whitespace, TclkOverride), which
// the partition never reads.
func (st *PlanState) ReusePartition(prev *PlanState) error {
	if prev == nil || prev.Collapsed == nil || prev.BlockOf == nil {
		return fmt.Errorf("plan: previous state has no partition to reuse")
	}
	if prev.Netlist != st.Netlist {
		return fmt.Errorf("plan: partition reuse requires the same netlist")
	}
	st.Collapsed = prev.Collapsed
	st.NumBlocks = prev.NumBlocks
	st.BlockOf = prev.BlockOf
	// The reused artifacts are as much part of this pass's outcome as
	// freshly computed ones: consumers of the Result (ExpandedConfig,
	// rendering) must see the block structure either way.
	st.Result.NumBlocks = prev.NumBlocks
	st.Result.BlockOf = prev.BlockOf
	if st.satisfied == nil {
		st.satisfied = map[string]bool{}
	}
	st.satisfied[stagePartition] = true
	return nil
}

// Run executes the stages in order against the state. Stages satisfied by
// reused state emit a Skipped trace event instead of running. Each event
// is appended to Result.Trace and, when set, delivered to cfg.Trace.
func (st *PlanState) Run(stages []Stage, cfg *Config) error {
	return st.RunContext(context.Background(), stages, cfg)
}

// RunContext is Run under a context and the configured time budget.
//
// Two time limits with different semantics flow through here:
//
//   - cfg.Budget (soft): the per-pass wall-clock budget. Anytime stages
//     (periods, route, lac) run under the pass's budget deadline; when it
//     fires they commit their best-so-far result, the stage's event is
//     flagged Truncated, and the pipeline continues — a budgeted pass
//     still completes end to end.
//   - ctx (hard): the caller's cancellation or deadline. It is checked at
//     every stage boundary; once done, no further stage starts and
//     RunContext returns the context's error. Stages already running see
//     it through their derived context and stop at their next checkpoint,
//     committing whatever consistent prefix they built.
//
// Either way the returned state passes check.VerifyState for the prefix
// that completed. Panics inside a stage are recovered into a typed
// *StageError (stage name + stack); the panicking stage's artifacts are
// not committed, so the prefix stays clean.
func (st *PlanState) RunContext(ctx context.Context, stages []Stage, cfg *Config) error {
	// The anytime stages' deadline: one per pass, zero when unbudgeted.
	var deadline time.Time
	if cfg.Budget.Wall > 0 {
		deadline = time.Now().Add(cfg.Budget.Wall)
	}
	// Observability: one "pass" span per RunContext with one child span per
	// executed stage; the stage's sub-stage spans (probes, rounds, solves)
	// land on StageEvent.Sub for the report sink, and the live status names
	// the stage currently running. All nil no-ops without a recorder.
	gStage := obs.FromContext(ctx).Registry().Status("plan.stage")
	pctx, passSpan := obs.StartSpan(ctx, "pass")
	defer passSpan.End()
	for i, s := range stages {
		ev := StageEvent{Stage: s.Name(), Index: i}
		if st.satisfied[s.Name()] {
			ev.Skipped = true
		} else {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("plan: stage %s not run: %w", s.Name(), err)
			}
			gStage.Set(s.Name())
			sctx, cancel := stageContext(pctx, deadline, s.Name())
			ssctx, ssp := obs.StartSpan(sctx, s.Name())
			t0 := time.Now()
			err := runStage(ssctx, s, st, cfg)
			ssp.End()
			cancel()
			ev.Wall = time.Since(t0)
			ev.Truncated = st.truncated[s.Name()]
			if ssp != nil {
				ev.Sub = ssp.Children
			}
			if err != nil {
				var serr *StageError
				if errors.As(err, &serr) {
					ev.Recovered = serr.Recovered()
				}
				st.emit(ev, s, cfg)
				return err
			}
			// The stage committed (commit-at-end discipline: the state now
			// holds a consistent prefix through this stage); snapshot it
			// for crash recovery when the caller asked for checkpoints.
			if cfg.Checkpoint != nil && checkpointIndex(s.Name()) >= 0 {
				if data, cerr := st.Checkpoint(s.Name(), cfg); cerr != nil {
					obs.FromContext(ctx).Registry().Counter("plan.checkpoint_errors").Inc()
				} else {
					cfg.Checkpoint(s.Name(), data)
				}
			}
		}
		st.emit(ev, s, cfg)
	}
	return nil
}

// emit fills the event's counters and delivers it to the trace sinks.
func (st *PlanState) emit(ev StageEvent, s Stage, cfg *Config) {
	if cr, ok := s.(CounterReporter); ok {
		ev.Counters = cr.Counters(st)
	}
	st.Result.Trace = append(st.Result.Trace, ev)
	if cfg.Trace != nil {
		cfg.Trace(ev)
	}
}

// runStage executes one stage under the panic-containment wrapper: a panic
// anywhere below (graph construction, retiming, flow, Steiner, ...) comes
// back as a *StageError with the stage name and stack instead of unwinding
// through the pipeline.
func runStage(ctx context.Context, s Stage, st *PlanState, cfg *Config) (err error) {
	defer func() {
		if r := recover(); r != nil {
			cause, ok := r.(error)
			if !ok {
				cause = fmt.Errorf("panic: %v", r)
			}
			err = &StageError{Stage: s.Name(), Cause: cause, Stack: debug.Stack()}
		}
	}()
	return s.Run(ctx, st, cfg)
}

// anytimeStages are the pipeline stages that honor a budget deadline by
// returning a degraded-but-valid result: the period binary search, the
// rip-up/re-route loop, and the LAC reweighting loop. All other stages
// must run to completion for the state to stay consistent, so they only
// see the caller's context.
var anytimeStages = map[string]bool{
	stagePeriods: true,
	stageRoute:   true,
	stageLAC:     true,
}

// stageContext derives the context a stage runs under: anytime stages run
// until the pass's budget deadline, then commit their best-so-far result.
// Non-anytime stages and unbudgeted runs (zero deadline) get the parent
// unchanged (and a no-op cancel).
func stageContext(ctx context.Context, deadline time.Time, stage string) (context.Context, context.CancelFunc) {
	if deadline.IsZero() || !anytimeStages[stage] {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, deadline)
}

// Canonical stage names (trace events, anytime budgeting, skip bookkeeping).
const (
	stagePartition   = "partition"
	stageFloorplan   = "floorplan"
	stageGrid        = "grid"
	stageRoute       = "route"
	stageRepeaters   = "repeaters"
	stageGraph       = "graph"
	stagePeriods     = "periods"
	stageConstraints = "constraints"
	stageMinArea     = "minarea"
	stageLAC         = "lac"
)

// DefaultStages returns the paper's flow: partition → floorplan → tile
// grid → global routing → repeater planning → retiming-graph build →
// period derivation → clock constraints (a cut pool at Tclk) → min-area retiming →
// LAC-retiming.
func DefaultStages() []Stage {
	return []Stage{
		partitionStage{}, floorplanStage{}, gridStage{}, routeStage{},
		repeaterStage{}, graphStage{}, periodsStage{}, constraintsStage{},
		minAreaStage{}, lacStage{},
	}
}
