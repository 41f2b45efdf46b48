// Package graph provides the directed-graph primitives used throughout the
// planner: adjacency-list digraphs, topological ordering, strongly connected
// components, difference-constraint solving (worklist SPFA), and the
// lexicographic W/D sweeps behind the retiming tests' full
// clock-constraint oracle.
//
// Vertices are dense integer IDs in [0, N). All algorithms are deterministic:
// ties are broken by vertex ID so repeated runs produce identical results.
package graph

import "fmt"

// Edge is a directed edge with an integer weight (for retiming graphs the
// weight is a flip-flop count) and an auxiliary float payload (typically a
// delay or a cost, depending on the algorithm).
type Edge struct {
	From, To int
	// W is the integral edge weight (e.g. register count).
	W int
	// Cost is an auxiliary real-valued weight (e.g. delay).
	Cost float64
}

// Digraph is a directed multigraph over dense vertex IDs.
type Digraph struct {
	n     int
	edges []Edge
	// out[v] and in[v] hold indices into edges.
	out [][]int
	in  [][]int
}

// NewDigraph returns an empty digraph with n vertices.
func NewDigraph(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Digraph{
		n:   n,
		out: make([][]int, n),
		in:  make([][]int, n),
	}
}

// N returns the number of vertices.
func (g *Digraph) N() int { return g.n }

// M returns the number of edges.
func (g *Digraph) M() int { return len(g.edges) }

// AddVertex appends a new vertex and returns its ID.
func (g *Digraph) AddVertex() int {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.n++
	return g.n - 1
}

// AddEdge appends a directed edge and returns its index.
func (g *Digraph) AddEdge(from, to, w int, cost float64) int {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", from, to, g.n))
	}
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{From: from, To: to, W: w, Cost: cost})
	g.out[from] = append(g.out[from], idx)
	g.in[to] = append(g.in[to], idx)
	return idx
}

// Edge returns the edge with index i.
func (g *Digraph) Edge(i int) Edge { return g.edges[i] }

// Edges returns all edges. The returned slice is owned by the graph and must
// not be modified.
func (g *Digraph) Edges() []Edge { return g.edges }

// SetEdgeW updates the integral weight of edge i.
func (g *Digraph) SetEdgeW(i, w int) { g.edges[i].W = w }

// SetEdgeCost updates the real cost of edge i.
func (g *Digraph) SetEdgeCost(i int, c float64) { g.edges[i].Cost = c }

// Out returns the indices of edges leaving v.
func (g *Digraph) Out(v int) []int { return g.out[v] }

// In returns the indices of edges entering v.
func (g *Digraph) In(v int) []int { return g.in[v] }

// OutDegree returns the number of edges leaving v.
func (g *Digraph) OutDegree(v int) int { return len(g.out[v]) }

// InDegree returns the number of edges entering v.
func (g *Digraph) InDegree(v int) int { return len(g.in[v]) }

// Clone returns a deep copy of the graph. All out-lists share one backing
// array and all in-lists another, each list capped at its length, so an
// AddEdge on the clone reallocates the list it grows instead of writing
// into its neighbor's.
func (g *Digraph) Clone() *Digraph {
	return &Digraph{
		n:     g.n,
		edges: append([]Edge(nil), g.edges...),
		out:   cloneLists(g.out, len(g.edges)),
		in:    cloneLists(g.in, len(g.edges)),
	}
}

// cloneLists copies adjacency lists holding total indices into one
// allocation.
func cloneLists(lists [][]int, total int) [][]int {
	c := make([][]int, len(lists))
	buf := make([]int, 0, total)
	for v, l := range lists {
		at := len(buf)
		buf = append(buf, l...)
		c[v] = buf[at:len(buf):len(buf)]
	}
	return c
}

// TopoOrder returns a topological order of the subgraph induced by the edges
// for which keep returns true. If that subgraph has a cycle, ok is false and
// the returned order is the partial order discovered so far.
//
// Retiming uses this with keep = "edge weight is zero" to order the
// combinational subgraph.
func (g *Digraph) TopoOrder(keep func(Edge) bool) (order []int, ok bool) {
	indeg := make([]int, g.n)
	for _, e := range g.edges {
		if keep(e) {
			indeg[e.To]++
		}
	}
	queue := make([]int, 0, g.n)
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order = make([]int, 0, g.n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, ei := range g.out[v] {
			e := g.edges[ei]
			if !keep(e) {
				continue
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	return order, len(order) == g.n
}

// SCC computes strongly connected components of the subgraph induced by edges
// for which keep returns true, using Tarjan's algorithm (iterative). It
// returns the component ID of every vertex and the number of components.
// Component IDs are in reverse topological order of the condensation.
func (g *Digraph) SCC(keep func(Edge) bool) (comp []int, ncomp int) {
	const unvisited = -1
	comp = make([]int, g.n)
	low := make([]int, g.n)
	disc := make([]int, g.n)
	onStack := make([]bool, g.n)
	for i := range comp {
		comp[i] = unvisited
		disc[i] = unvisited
	}
	var stack []int
	timer := 0

	type frame struct {
		v, ei int // vertex and position in its out list
	}
	for root := 0; root < g.n; root++ {
		if disc[root] != unvisited {
			continue
		}
		call := []frame{{root, 0}}
		disc[root] = timer
		low[root] = timer
		timer++
		stack = append(stack, root)
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if f.ei < len(g.out[v]) {
				ei := g.out[v][f.ei]
				f.ei++
				e := g.edges[ei]
				if !keep(e) {
					continue
				}
				w := e.To
				if disc[w] == unvisited {
					disc[w] = timer
					low[w] = timer
					timer++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{w, 0})
				} else if onStack[w] && disc[w] < low[v] {
					low[v] = disc[w]
				}
				continue
			}
			// Retreat.
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == disc[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp, ncomp
}

// HasCycle reports whether the subgraph induced by keep contains a cycle.
func (g *Digraph) HasCycle(keep func(Edge) bool) bool {
	_, ok := g.TopoOrder(keep)
	return !ok
}
