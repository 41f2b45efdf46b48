package route

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lacret/internal/floorplan"
	"lacret/internal/tile"
)

// openGrid returns an all-free grid of the given shape with 100um tiles.
func openGrid(t *testing.T, rows, cols int) *tile.Grid {
	t.Helper()
	pl := &floorplan.Placement{ChipW: float64(cols) * 100, ChipH: float64(rows) * 100}
	g, err := tile.Build(pl, nil, nil, tile.Params{Rows: rows, Cols: cols})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRouteSingleNetShortestPath(t *testing.T) {
	g := openGrid(t, 4, 4)
	nets := []Net{{ID: 0, Source: 0, Sinks: []int{3}}}
	res, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path, err := res.Trees[0].PathTo(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 { // 0,1,2,3 along the row
		t.Fatalf("path %v", path)
	}
	if PathLength(g, path) != 300 {
		t.Fatalf("length %g", PathLength(g, path))
	}
	if res.Overflow != 0 {
		t.Fatalf("overflow %d", res.Overflow)
	}
}

func TestRouteMultiSinkTreeShares(t *testing.T) {
	g := openGrid(t, 5, 5)
	// Source center-left, two sinks on the right column: tree should share
	// a trunk (total edges < sum of individual Manhattan paths).
	src := 2*5 + 0
	s1 := 0*5 + 4
	s2 := 4*5 + 4
	res, err := Route(g, []Net{{ID: 0, Source: src, Sinks: []int{s1, s2}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trees[0]
	for _, s := range []int{s1, s2} {
		path, err := tr.PathTo(s)
		if err != nil {
			t.Fatal(err)
		}
		if path[0] != src || path[len(path)-1] != s {
			t.Fatalf("bad path %v", path)
		}
	}
	edges := tr.Edges()
	// Individual Manhattan paths: 4+2=6 and 4+2=6 -> 12 edges unshared;
	// a shared tree needs at most 10.
	if len(edges) > 10 {
		t.Fatalf("no sharing: %d edges", len(edges))
	}
}

func TestRouteDegenerateNets(t *testing.T) {
	g := openGrid(t, 3, 3)
	nets := []Net{
		{ID: 0, Source: 4, Sinks: nil},
		{ID: 1, Source: 4, Sinks: []int{4, 4}},
	}
	res, err := Route(g, nets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Trees {
		if len(tr.Parent) != 1 {
			t.Fatalf("net %d: tree %v", i, tr.Parent)
		}
		path, err := tr.PathTo(4)
		if err != nil || len(path) != 1 {
			t.Fatalf("net %d: path %v err %v", i, path, err)
		}
	}
	if res.Wirelength != 0 {
		t.Fatalf("wirelength %g", res.Wirelength)
	}
}

func TestRouteCongestionSpreads(t *testing.T) {
	// Two nets between the same endpoints with per-edge capacity 1: one
	// must detour to a parallel row; rip-up should leave no overflow.
	g := openGrid(t, 4, 3)
	nets := []Net{
		{ID: 0, Source: 0, Sinks: []int{2}},
		{ID: 1, Source: 0, Sinks: []int{2}},
	}
	res, err := Route(g, nets, Options{Capacity: 1, MaxIters: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overflow != 0 {
		t.Fatalf("overflow %d after %d iters (max usage %g)", res.Overflow, res.Iters, res.MaxUsage)
	}
	if res.MaxUsage > 1 {
		t.Fatalf("max usage %g", res.MaxUsage)
	}
}

func TestRouteDeterministic(t *testing.T) {
	g := openGrid(t, 6, 6)
	rng := rand.New(rand.NewSource(4))
	var nets []Net
	for i := 0; i < 12; i++ {
		nets = append(nets, Net{ID: i, Source: rng.Intn(36), Sinks: []int{rng.Intn(36), rng.Intn(36)}})
	}
	a, err := Route(g, nets, Options{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Route(g, nets, Options{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Wirelength != b.Wirelength || a.Overflow != b.Overflow {
		t.Fatal("routing not deterministic")
	}
	for i := range a.Trees {
		ea, eb := a.Trees[i].Edges(), b.Trees[i].Edges()
		if len(ea) != len(eb) {
			t.Fatalf("net %d: different trees", i)
		}
		for j := range ea {
			if ea[j] != eb[j] {
				t.Fatalf("net %d: different trees", i)
			}
		}
	}
}

func TestRouteErrors(t *testing.T) {
	g := openGrid(t, 3, 3)
	if _, err := Route(g, []Net{{Source: 99}}, Options{}); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := Route(g, []Net{{Source: 0, Sinks: []int{-1}}}, Options{}); err == nil {
		t.Fatal("bad sink accepted")
	}
}

// TestRouteRejectsNonIntegralOptions: a Capacity or HistoryStep that is
// not an integer below 2^31 is an error, while integral values and the
// defaults route.
func TestRouteRejectsNonIntegralOptions(t *testing.T) {
	g := openGrid(t, 3, 3)
	nets := []Net{{Source: 0, Sinks: []int{8}}}
	for _, opt := range []Options{
		{Capacity: 2.5},
		{HistoryStep: 0.5},
		{Capacity: 4, HistoryStep: 1.25},
		{Capacity: math.NaN()},
		{HistoryStep: math.Inf(1)},
		{Capacity: 1 << 31},
	} {
		if _, err := Route(g, nets, opt); !errors.Is(err, ErrNotIntegral) {
			t.Errorf("%+v: err = %v, want ErrNotIntegral", opt, err)
		}
	}
	for _, opt := range []Options{{}, {Capacity: 3, HistoryStep: 2}, {Capacity: -1.5, HistoryStep: -0.5}} {
		if _, err := Route(g, nets, opt); err != nil {
			t.Errorf("%+v: %v", opt, err)
		}
	}
}

func TestPathToErrors(t *testing.T) {
	tr := Tree{NetID: 0, Source: 0, Parent: map[int]int{0: -1}}
	if _, err := tr.PathTo(5); err == nil {
		t.Fatal("missing sink accepted")
	}
}

func TestEdgeIndexerBijective(t *testing.T) {
	ei := edgeIndexer{rows: 5, cols: 7}
	seen := map[int]bool{}
	n := 0
	for r := 0; r < 5; r++ {
		for c := 0; c < 7; c++ {
			cell := r*7 + c
			if c+1 < 7 {
				e := ei.index(cell, cell+1)
				if seen[e] {
					t.Fatalf("dup edge %d", e)
				}
				seen[e] = true
				n++
			}
			if r+1 < 5 {
				e := ei.index(cell, cell+7)
				if seen[e] {
					t.Fatalf("dup edge %d", e)
				}
				seen[e] = true
				n++
			}
		}
	}
	if n != ei.count() {
		t.Fatalf("count %d != %d", n, ei.count())
	}
	// Symmetric.
	if ei.index(0, 1) != ei.index(1, 0) || ei.index(0, 7) != ei.index(7, 0) {
		t.Fatal("not symmetric")
	}
	// The search's adjacency lists every grid neighbor once, with the
	// edge index names.
	for c, a := range ei.adjacency() {
		var want []int
		for _, nb := range []int{c - 1, c + 1, c - 7, c + 7} {
			if nb >= 0 && nb < 35 && (nb/7 == c/7 || nb%7 == c%7) {
				want = append(want, nb)
			}
		}
		if int(a.n) != len(want) {
			t.Fatalf("cell %d: %d neighbors, want %v", c, a.n, want)
		}
		for k, nb := range want {
			if int(a.nb[k]) != nb || int(a.ne[k]) != ei.index(c, nb) {
				t.Fatalf("cell %d: neighbor %d edge %d, want %d edge %d", c, a.nb[k], a.ne[k], nb, ei.index(c, nb))
			}
		}
	}
}

func TestRouteManyRandomNetsAllConnected(t *testing.T) {
	g := openGrid(t, 8, 8)
	rng := rand.New(rand.NewSource(99))
	var nets []Net
	for i := 0; i < 40; i++ {
		n := Net{ID: i, Source: rng.Intn(64)}
		for j := 0; j < 1+rng.Intn(4); j++ {
			n.Sinks = append(n.Sinks, rng.Intn(64))
		}
		nets = append(nets, n)
	}
	res, err := Route(g, nets, Options{Capacity: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Trees {
		for _, s := range nets[i].Sinks {
			path, err := tr.PathTo(s)
			if err != nil {
				t.Fatalf("net %d sink %d: %v", i, s, err)
			}
			// Path must be contiguous on the grid.
			for k := 1; k < len(path); k++ {
				a, b := path[k-1], path[k]
				dr := a/g.Cols - b/g.Cols
				dc := a%g.Cols - b%g.Cols
				if dr*dr+dc*dc != 1 {
					t.Fatalf("net %d: non-adjacent step %d->%d", i, a, b)
				}
			}
		}
	}
}

// TestRouteWirelengthMatchesTrees: the reported wirelength must equal the
// sum over trees of their edges' geometric lengths.
func TestRouteWirelengthMatchesTrees(t *testing.T) {
	g := openGrid(t, 7, 5)
	rng := rand.New(rand.NewSource(12))
	var nets []Net
	for i := 0; i < 15; i++ {
		nets = append(nets, Net{ID: i, Source: rng.Intn(35), Sinks: []int{rng.Intn(35), rng.Intn(35)}})
	}
	res, err := Route(g, nets, Options{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, tr := range res.Trees {
		for _, e := range tr.Edges() {
			if e[0]/g.Cols == e[1]/g.Cols {
				total += g.TileW
			} else {
				total += g.TileH
			}
		}
	}
	if total != res.Wirelength {
		t.Fatalf("wirelength %g != recomputed %g", res.Wirelength, total)
	}
}

// TestRouteTreeIsAcyclic: parent maps must form a forest rooted at the
// source (PathTo already errors on cycles; verify sizes too).
func TestRouteTreeIsAcyclic(t *testing.T) {
	g := openGrid(t, 6, 6)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		n := Net{ID: trial, Source: rng.Intn(36)}
		for j := 0; j < 3; j++ {
			n.Sinks = append(n.Sinks, rng.Intn(36))
		}
		res, err := Route(g, []Net{n}, Options{Capacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Trees[0]
		// Every tree node reaches the source.
		for c := range tr.Parent {
			if _, err := tr.PathTo(c); err != nil {
				t.Fatalf("trial %d: node %d cannot reach source: %v", trial, c, err)
			}
		}
		// Edge count = node count - 1 (tree property).
		if len(tr.Edges()) != len(tr.Parent)-1 {
			t.Fatalf("trial %d: %d edges for %d nodes", trial, len(tr.Edges()), len(tr.Parent))
		}
	}
}
