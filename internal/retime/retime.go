// Package retime implements Leiserson–Saxe retiming for the interconnect
// planner: retiming-graph construction from collapsed netlists, clock-period
// evaluation, FEAS-based feasibility and minimum-period retiming, and
// (weighted) minimum-area retiming via minimum-cost flow.
//
// Vertices are functional units (RT-level gates), interconnect units
// (repeater segments of global wires), and port pins. Edge weights are
// flip-flop counts. Port pins (primary inputs and outputs) are "pinned":
// their retiming label is fixed to zero so registers never cross the chip
// boundary and I/O latency is preserved — this replaces the classical host
// vertex and avoids zero-weight cycles through the environment.
package retime

import (
	"fmt"
	"math"

	"lacret/internal/graph"
	"lacret/internal/netlist"
)

// VertexKind classifies retiming vertices.
type VertexKind uint8

const (
	// KindUnit is an RT-level functional unit (gate).
	KindUnit VertexKind = iota
	// KindWire is an interconnect unit (one repeater segment of a routed
	// global wire).
	KindWire
	// KindPort is a primary input or output pin; ports are pinned
	// (retiming label fixed at zero).
	KindPort
)

func (k VertexKind) String() string {
	switch k {
	case KindUnit:
		return "unit"
	case KindWire:
		return "wire"
	case KindPort:
		return "port"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Graph is a retiming graph: vertices with fixed delays, directed edges
// weighted by register counts.
type Graph struct {
	g      *graph.Digraph
	delay  []float64
	kind   []VertexKind
	name   []string
	pinned []bool
	// Origin maps vertices back to netlist nodes where applicable
	// (netlist.NodeID, or -1 for synthesized vertices such as wires/ports).
	origin []netlist.NodeID
}

// NewGraph returns an empty retiming graph.
func NewGraph() *Graph {
	return &Graph{g: graph.NewDigraph(0)}
}

// AddVertex appends a vertex and returns its ID. Port vertices are pinned
// automatically.
func (rg *Graph) AddVertex(name string, kind VertexKind, delay float64) int {
	if delay < 0 {
		panic(fmt.Sprintf("retime: negative delay %g for %q", delay, name))
	}
	v := rg.g.AddVertex()
	rg.delay = append(rg.delay, delay)
	rg.kind = append(rg.kind, kind)
	rg.name = append(rg.name, name)
	rg.pinned = append(rg.pinned, kind == KindPort)
	rg.origin = append(rg.origin, -1)
	return v
}

// SetOrigin records the netlist node a vertex came from.
func (rg *Graph) SetOrigin(v int, id netlist.NodeID) { rg.origin[v] = id }

// Origin returns the netlist node a vertex came from, or -1.
func (rg *Graph) Origin(v int) netlist.NodeID { return rg.origin[v] }

// AddEdge appends an edge carrying w registers and returns its index.
func (rg *Graph) AddEdge(from, to, w int) int {
	if w < 0 {
		panic(fmt.Sprintf("retime: negative register count %d on edge (%d,%d)", w, from, to))
	}
	return rg.g.AddEdge(from, to, w, 0)
}

// N returns the vertex count; M the edge count.
func (rg *Graph) N() int { return rg.g.N() }

// M returns the edge count.
func (rg *Graph) M() int { return rg.g.M() }

// Delay returns the delay of vertex v.
func (rg *Graph) Delay(v int) float64 { return rg.delay[v] }

// MaxDelay returns the largest vertex delay (0 for an empty graph): no
// retiming achieves a period below it, so it is the period search's lower
// bracket end and the least value of PeriodFloor.
func (rg *Graph) MaxDelay() float64 {
	m := 0.0
	for _, d := range rg.delay {
		if d > m {
			m = d
		}
	}
	return m
}

// Kind returns the kind of vertex v.
func (rg *Graph) Kind(v int) VertexKind { return rg.kind[v] }

// Name returns the name of vertex v.
func (rg *Graph) Name(v int) string { return rg.name[v] }

// Pinned reports whether vertex v has its retiming label fixed at zero.
func (rg *Graph) Pinned(v int) bool { return rg.pinned[v] }

// SetPinned overrides the pinning of a vertex.
func (rg *Graph) SetPinned(v int, p bool) { rg.pinned[v] = p }

// Edge returns edge i as (from, to, w).
func (rg *Graph) Edge(i int) (from, to, w int) {
	e := rg.g.Edge(i)
	return e.From, e.To, e.W
}

// EdgeWeight returns the register count of edge i.
func (rg *Graph) EdgeWeight(i int) int { return rg.g.Edge(i).W }

// SetEdgeWeight sets the register count of edge i.
func (rg *Graph) SetEdgeWeight(i, w int) {
	if w < 0 {
		panic("retime: negative register count")
	}
	rg.g.SetEdgeW(i, w)
}

// Out returns the edge indices leaving v.
func (rg *Graph) Out(v int) []int { return rg.g.Out(v) }

// In returns the edge indices entering v.
func (rg *Graph) In(v int) []int { return rg.g.In(v) }

// TotalRegisters returns the sum of edge weights.
func (rg *Graph) TotalRegisters() int {
	t := 0
	for _, e := range rg.g.Edges() {
		t += e.W
	}
	return t
}

// Clone returns a deep copy.
func (rg *Graph) Clone() *Graph {
	return &Graph{
		g:      rg.g.Clone(),
		delay:  append([]float64(nil), rg.delay...),
		kind:   append([]VertexKind(nil), rg.kind...),
		name:   append([]string(nil), rg.name...),
		pinned: append([]bool(nil), rg.pinned...),
		origin: append([]netlist.NodeID(nil), rg.origin...),
	}
}

// Validate checks the structural invariants retiming relies on:
// nonnegative weights and delays, and no zero-weight (combinational) cycle.
func (rg *Graph) Validate() error {
	for i, e := range rg.g.Edges() {
		if e.W < 0 {
			return fmt.Errorf("retime: edge %d has negative weight %d", i, e.W)
		}
	}
	for v, d := range rg.delay {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("retime: vertex %d (%s) has bad delay %g", v, rg.name[v], d)
		}
	}
	if rg.g.HasCycle(func(e graph.Edge) bool { return e.W == 0 }) {
		return fmt.Errorf("retime: graph has a zero-weight (combinational) cycle")
	}
	return nil
}

// FromCollapsed builds a retiming graph from a DFF-collapsed netlist.
// Primary inputs become pinned port vertices with zero delay; every primary
// output gets a pinned port vertex fed by its driver with the register count
// found between driver and output pin. Gate vertices take their netlist
// delays. VertexOf maps netlist node IDs of units to graph vertices.
func FromCollapsed(nl *netlist.Netlist, c *netlist.Collapsed) (*Graph, map[netlist.NodeID]int, error) {
	rg := NewGraph()
	vertexOf := make(map[netlist.NodeID]int, len(c.Units))
	for _, id := range c.Units {
		node := nl.Node(id)
		var v int
		switch node.Kind {
		case netlist.KindInput:
			v = rg.AddVertex(node.Name, KindPort, 0)
		case netlist.KindGate:
			v = rg.AddVertex(node.Name, KindUnit, node.Delay)
		default:
			return nil, nil, fmt.Errorf("retime: collapsed unit %q has kind %v", node.Name, node.Kind)
		}
		rg.SetOrigin(v, id)
		vertexOf[id] = v
	}
	for _, e := range c.Edges {
		fu, ok := vertexOf[e.From]
		if !ok {
			return nil, nil, fmt.Errorf("retime: edge source %d not a unit", e.From)
		}
		tu, ok := vertexOf[e.To]
		if !ok {
			return nil, nil, fmt.Errorf("retime: edge target %d not a unit", e.To)
		}
		rg.AddEdge(fu, tu, e.W)
	}
	for _, o := range c.OutputUnits {
		drv, ok := vertexOf[o.Driver]
		if !ok {
			return nil, nil, fmt.Errorf("retime: output driver %d not a unit", o.Driver)
		}
		pin := rg.AddVertex("po:"+nl.Node(o.Output).Name, KindPort, 0)
		rg.SetOrigin(pin, o.Output)
		rg.AddEdge(drv, pin, o.W)
	}
	if err := rg.Validate(); err != nil {
		return nil, nil, err
	}
	return rg, vertexOf, nil
}

// Arrivals computes combinational arrival times under the current register
// assignment: for every vertex, the maximum delay of any register-free path
// ending at it (including its own delay). It returns an error if the
// zero-weight subgraph is cyclic.
func (rg *Graph) Arrivals() ([]float64, error) {
	order, ok := rg.g.TopoOrder(func(e graph.Edge) bool { return e.W == 0 })
	if !ok {
		return nil, fmt.Errorf("retime: combinational cycle; arrivals undefined")
	}
	arr := make([]float64, rg.g.N())
	for _, v := range order {
		a := 0.0
		for _, ei := range rg.g.In(v) {
			e := rg.g.Edge(ei)
			if e.W == 0 && arr[e.From] > a {
				a = arr[e.From]
			}
		}
		arr[v] = a + rg.delay[v]
	}
	return arr, nil
}

// Period returns the clock period of the graph under the current register
// assignment: the maximum combinational arrival time.
func (rg *Graph) Period() (float64, error) {
	arr, err := rg.Arrivals()
	if err != nil {
		return 0, err
	}
	p := 0.0
	for _, a := range arr {
		if a > p {
			p = a
		}
	}
	return p, nil
}

// Apply produces a copy of the graph with retimed edge weights
// w_r(e) = w(e) + r(to) − r(from). It returns an error if any weight would
// go negative or a pinned vertex has nonzero label.
func (rg *Graph) Apply(r []int) (*Graph, error) {
	if len(r) != rg.g.N() {
		return nil, fmt.Errorf("retime: label count %d != vertex count %d", len(r), rg.g.N())
	}
	for v, p := range rg.pinned {
		if p && r[v] != 0 {
			return nil, fmt.Errorf("retime: pinned vertex %d (%s) has label %d", v, rg.name[v], r[v])
		}
	}
	out := rg.Clone()
	for i, e := range rg.g.Edges() {
		w := e.W + r[e.To] - r[e.From]
		if w < 0 {
			return nil, rg.negativeWeight(i, w)
		}
		out.g.SetEdgeW(i, w)
	}
	return out, nil
}

// negativeWeight is the error for edge i retimed to weight w < 0.
func (rg *Graph) negativeWeight(i, w int) error {
	e := rg.g.Edge(i)
	return fmt.Errorf("retime: edge %d (%s→%s) weight %d negative after retiming",
		i, rg.name[e.From], rg.name[e.To], w)
}

// CheckFeasible verifies that labels r satisfy all edge-weight constraints
// and that the retimed graph meets the clock period T.
func (rg *Graph) CheckFeasible(r []int, T float64) error {
	out, err := rg.Apply(r)
	if err != nil {
		return err
	}
	p, err := out.Period()
	if err != nil {
		return err
	}
	if p > T+periodTol(T) {
		return fmt.Errorf("retime: retimed period %g exceeds target %g", p, T)
	}
	return nil
}

// RegistersPerEdgeTail returns, for every vertex, the number of registers on
// its outgoing edges under the current weights — the registers that occupy
// the tail vertex's tile in the paper's placement model.
func (rg *Graph) RegistersPerEdgeTail() []int {
	cnt := make([]int, rg.g.N())
	for _, e := range rg.g.Edges() {
		cnt[e.From] += e.W
	}
	return cnt
}
