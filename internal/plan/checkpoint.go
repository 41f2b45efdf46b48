package plan

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"lacret/internal/floorplan"
	"lacret/internal/netlist"
	"lacret/internal/repeater"
	"lacret/internal/route"
	"lacret/internal/tile"
)

// checkpointMagic versions the snapshot encoding; bump it whenever the
// payload below changes shape, so a daemon upgraded across the change can
// never misread an old checkpoint — Restore rejects the prefix and the run
// starts from scratch instead.
const checkpointMagic = "lacret-ckpt-v1\x00"

// checkpointOrder lists the stage boundaries a snapshot can be taken at,
// in pipeline order. A checkpoint at stage s captures the artifacts of
// every checkpointable stage up to and including s.
//
// The graph stage and everything after the periods stage are deliberately
// absent: their artifacts (retime.Graph, the constraint system, the live
// flow problem) hold unexported solver state that cannot round-trip through a
// snapshot. They are instead recomputed on resume — cheap, deterministic
// reconstruction from the restored prefix — while the expensive searches
// they drive (the route rip-up loop, the min-period probe sequence) are
// exactly what the route and periods checkpoints make skippable.
var checkpointOrder = []string{
	stagePartition, stageFloorplan, stageGrid, stageRoute, stageRepeaters, stagePeriods,
}

// checkpointIndex maps a checkpointable stage name to its position in
// checkpointOrder, or -1.
func checkpointIndex(stage string) int {
	for i, s := range checkpointOrder {
		if s == stage {
			return i
		}
	}
	return -1
}

// periodsRestore carries a restored periods-stage outcome: the stage
// re-runs on resume, but only to adopt these fields — the binary search
// whose result they pin is skipped.
type periodsRestore struct {
	Tinit, Tmin, TminLo, Tclk float64
	Truncated                 bool
}

// checkpointPayload is the serialized artifact set. Fields are grouped by
// producing stage; a payload carries the groups of every stage up to its
// Stage, zero values elsewhere. Only exported, solver-free artifact types
// appear here — that is what makes the snapshot stable across processes.
type checkpointPayload struct {
	// Guard: a resumed pass must plan the same input with the same
	// randomized substeps, or the restored artifacts are meaningless.
	Netlist string
	Nodes   int
	Seed    int64

	Stage string // last completed checkpointable stage

	// partition
	Collapsed *netlist.Collapsed
	NumBlocks int
	BlockOf   map[netlist.NodeID]int

	// floorplan
	GateArea  []float64
	HardBlock []bool
	Placement *floorplan.Placement

	// grid (captured as of the snapshot's stage: routing and repeater
	// reservation mutate tile usage in place, so a later snapshot carries
	// the later grid)
	Grid *tile.Grid

	// route
	PadOfInput      map[netlist.NodeID]int
	PadOfOutput     map[netlist.NodeID]int
	CellOfUnit      map[netlist.NodeID]int
	Conns           []Conn
	Nets            []route.Net
	NetOfUnit       map[netlist.NodeID]int
	Routing         *route.Result
	RouteWirelength float64
	SteinerEstimate float64
	RouteOverflow   int
	InterBlockNets  int
	Routes          []route.Tree

	// repeaters (flattened: RepeaterPlans is index-aligned with Conns and
	// nil at intra-tile hookups, and gob rejects nil slice elements)
	RepeaterConns int
	RepeaterIdx   []int
	RepeaterDense []repeater.Plan
	RepeaterCount int

	// periods
	Periods *periodsRestore
}

// Checkpoint serializes the state's artifacts as of the given completed
// stage into a versioned, self-contained snapshot. The stage must be one
// of the checkpointable boundaries (checkpointOrder); the pipeline calls
// this through Config.Checkpoint after each such stage commits, and a
// later run of the same netlist and configuration can hand the bytes back
// through Config.Resume to skip the covered stages.
func (st *PlanState) Checkpoint(stage string, cfg *Config) ([]byte, error) {
	idx := checkpointIndex(stage)
	if idx < 0 {
		return nil, fmt.Errorf("plan: stage %q is not a checkpoint boundary", stage)
	}
	p := checkpointPayload{
		Netlist: st.Netlist.Name,
		Nodes:   len(st.Netlist.Nodes),
		Seed:    cfg.Seed,
		Stage:   stage,
	}
	// Cumulative groups, gated by how far the pipeline has come.
	p.Collapsed, p.NumBlocks, p.BlockOf = st.Collapsed, st.NumBlocks, st.BlockOf
	if idx >= 1 {
		p.GateArea, p.HardBlock, p.Placement = st.GateArea, st.HardBlock, st.Placement
	}
	if idx >= 2 {
		p.Grid = st.Grid
	}
	if idx >= 3 {
		res := st.Result
		p.PadOfInput, p.PadOfOutput, p.CellOfUnit = st.PadOfInput, st.PadOfOutput, st.CellOfUnit
		p.Conns, p.Nets, p.NetOfUnit, p.Routing = st.Conns, st.Nets, st.NetOfUnit, st.Routing
		p.RouteWirelength, p.SteinerEstimate = res.RouteWirelength, res.SteinerEstimate
		p.RouteOverflow, p.InterBlockNets = res.RouteOverflow, res.InterBlockNets
		p.Routes = res.Routes
	}
	if idx >= 4 {
		p.RepeaterConns, p.RepeaterCount = len(st.RepeaterPlans), st.Result.RepeaterCount
		for i, rp := range st.RepeaterPlans {
			if rp != nil {
				p.RepeaterIdx = append(p.RepeaterIdx, i)
				p.RepeaterDense = append(p.RepeaterDense, *rp)
			}
		}
	}
	if idx >= 5 {
		res := st.Result
		p.Periods = &periodsRestore{
			Tinit: res.Tinit, Tmin: res.Tmin, TminLo: res.TminLo, Tclk: res.Tclk,
			Truncated: st.truncated[stagePeriods],
		}
	}
	var buf bytes.Buffer
	buf.WriteString(checkpointMagic)
	if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
		return nil, fmt.Errorf("plan: encode checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreCheckpoint loads a snapshot produced by Checkpoint into a fresh
// state (NewState, before any stage has run), marking the covered stages
// satisfied so RunContext skips them. It returns the restored stage name.
// A snapshot from a different encoding version, netlist, or seed is
// rejected with an error and the state is left untouched — the caller
// plans from scratch.
//
// The restored pass is bit-identical to an uninterrupted one for every
// planning output: the skipped stages' artifacts are replayed exactly and
// the re-run stages are deterministic functions of them. Only work
// accounting differs (skipped stages report zero wall time, a restored
// period search reports zero probes).
func (st *PlanState) RestoreCheckpoint(data []byte, cfg *Config) (string, error) {
	if len(data) < len(checkpointMagic) || string(data[:len(checkpointMagic)]) != checkpointMagic {
		return "", fmt.Errorf("plan: checkpoint version mismatch (want %q)", checkpointMagic[:len(checkpointMagic)-1])
	}
	var p checkpointPayload
	if err := gob.NewDecoder(bytes.NewReader(data[len(checkpointMagic):])).Decode(&p); err != nil {
		return "", fmt.Errorf("plan: decode checkpoint: %w", err)
	}
	idx := checkpointIndex(p.Stage)
	if idx < 0 {
		return "", fmt.Errorf("plan: checkpoint names unknown stage %q", p.Stage)
	}
	if p.Netlist != st.Netlist.Name || p.Nodes != len(st.Netlist.Nodes) {
		return "", fmt.Errorf("plan: checkpoint is for netlist %s/%d nodes, state has %s/%d",
			p.Netlist, p.Nodes, st.Netlist.Name, len(st.Netlist.Nodes))
	}
	if p.Seed != cfg.Seed {
		return "", fmt.Errorf("plan: checkpoint seed %d, config seed %d", p.Seed, cfg.Seed)
	}
	if st.satisfied == nil {
		st.satisfied = map[string]bool{}
	}
	res := st.Result
	st.Collapsed, st.NumBlocks, st.BlockOf = p.Collapsed, p.NumBlocks, p.BlockOf
	res.NumBlocks, res.BlockOf = p.NumBlocks, p.BlockOf
	st.satisfied[stagePartition] = true
	if idx >= 1 {
		st.GateArea, st.HardBlock, st.Placement = p.GateArea, p.HardBlock, p.Placement
		res.Placement = p.Placement
		st.satisfied[stageFloorplan] = true
	}
	if idx >= 2 {
		// gob drops unexported fields; recompute the grid's derived ones.
		p.Grid.Rehydrate()
		st.Grid, res.Grid = p.Grid, p.Grid
		st.satisfied[stageGrid] = true
	}
	if idx >= 3 {
		st.PadOfInput, st.PadOfOutput, st.CellOfUnit = p.PadOfInput, p.PadOfOutput, p.CellOfUnit
		st.Conns, st.Nets, st.NetOfUnit, st.Routing = p.Conns, p.Nets, p.NetOfUnit, p.Routing
		// gob flattens empty maps to nil; downstream stages index these
		// unconditionally, so restore the allocated-but-empty shape.
		if st.PadOfInput == nil {
			st.PadOfInput = map[netlist.NodeID]int{}
		}
		if st.PadOfOutput == nil {
			st.PadOfOutput = map[netlist.NodeID]int{}
		}
		if st.CellOfUnit == nil {
			st.CellOfUnit = map[netlist.NodeID]int{}
		}
		if st.NetOfUnit == nil {
			st.NetOfUnit = map[netlist.NodeID]int{}
		}
		res.RouteWirelength, res.SteinerEstimate = p.RouteWirelength, p.SteinerEstimate
		res.RouteOverflow, res.InterBlockNets = p.RouteOverflow, p.InterBlockNets
		res.Routes = p.Routes
		if p.Routing != nil && p.Routing.Truncated {
			st.noteTruncated(stageRoute)
		}
		st.satisfied[stageRoute] = true
	}
	if idx >= 4 {
		plans := make([]*repeater.Plan, p.RepeaterConns)
		for i, ci := range p.RepeaterIdx {
			if ci < 0 || ci >= len(plans) {
				return "", fmt.Errorf("plan: checkpoint repeater index %d out of range", ci)
			}
			plans[ci] = &p.RepeaterDense[i]
		}
		st.RepeaterPlans, res.RepeaterCount = plans, p.RepeaterCount
		st.satisfied[stageRepeaters] = true
	}
	if idx >= 5 && p.Periods != nil {
		// The periods stage still runs — it must rebuild the constraint
		// engine over the (re-run) graph stage's output — but it adopts
		// this outcome instead of searching again.
		st.restoredPeriods = p.Periods
	}
	res.Resumed = p.Stage
	return p.Stage, nil
}

// applyResume restores cfg.Resume into the fresh state when present. An
// invalid or incompatible snapshot is not an error: the pass plans from
// scratch, and the rejection is reported on Result.ResumeRejected so
// callers (and their metrics) can see the checkpoint did not take.
func (st *PlanState) applyResume(cfg *Config) {
	if len(cfg.Resume) == 0 {
		return
	}
	if _, err := st.RestoreCheckpoint(cfg.Resume, cfg); err != nil {
		st.Result.ResumeRejected = err.Error()
	}
}
