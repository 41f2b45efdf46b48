package route

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"lacret/internal/floorplan"
	"lacret/internal/tile"
)

// resultHash folds every tree's sorted edge list and the scalar results
// into one FNV-1a hash.
func resultHash(res *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, tr := range res.Trees {
		put(uint64(tr.NetID))
		es := tr.Edges()
		put(uint64(len(es)))
		for _, e := range es {
			put(uint64(e[0]))
			put(uint64(e[1]))
		}
	}
	put(uint64(res.Overflow))
	put(math.Float64bits(res.MaxUsage))
	put(math.Float64bits(res.Wirelength))
	put(uint64(res.Iters))
	return h.Sum64()
}

// congestedInstance is a seeded random instance on a 12x10 grid of
// non-square tiles with low capacity, so routing needs several rip-up
// rounds. Some nets repeat sinks or name their own source as a sink.
func congestedInstance(t *testing.T) (*tile.Grid, []Net) {
	t.Helper()
	const rows, cols = 12, 10
	pl := &floorplan.Placement{ChipW: cols * 100, ChipH: rows * 70}
	g, err := tile.Build(pl, nil, nil, tile.Params{Rows: rows, Cols: cols})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	var nets []Net
	for i := 0; i < 90; i++ {
		n := Net{ID: i, Source: rng.Intn(rows * cols)}
		for j := 1 + rng.Intn(5); j > 0; j-- {
			n.Sinks = append(n.Sinks, rng.Intn(rows*cols))
		}
		if i%7 == 0 {
			n.Sinks = append(n.Sinks, n.Source, n.Sinks[0])
		}
		nets = append(nets, n)
	}
	return g, nets
}

// stopAfter is a cancellable context whose Err reports cancellation from
// its n-th call on. RouteContext calls Err once per non-final rip-up round,
// so the run is cut at round n deterministically, without timers.
type stopAfter struct {
	context.Context
	n, calls int
	done     chan struct{}
}

func (c *stopAfter) Done() <-chan struct{} { return c.done }

func (c *stopAfter) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestRouteGolden pins RouteContext's answers bit for bit on a congested
// instance: converging after several rip-up rounds, stopped by MaxIters
// with overflow left, and cut by its context at a round worse than an
// earlier one (so the best snapshot is restored). The first two run both
// on the plain path and on the cancellable-context path that snapshots
// the best round. The hashes were computed before the maze router's inner
// loop was rewritten to reuse its scratch; a rewrite that changes any
// tree or scalar result fails here.
func TestRouteGolden(t *testing.T) {
	g, nets := congestedInstance(t)
	cases := []struct {
		name      string
		capacity  float64
		stopRound int // 0: run uncut
		iters     int
		want      uint64
	}{
		{"converging", 8, 0, 6, 0xa27e95f7365365ff},
		{"max-iters", 7, 0, 12, 0xcbb65d75f2dfc10d},
		{"cut-restores-best", 6, 9, 9, 0x5fb029ee94d64e18},
	}
	for _, c := range cases {
		opt := Options{Capacity: c.capacity, MaxIters: 12}
		check := func(path string, res *Result, err error, truncated bool) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, path, err)
			}
			if res.Iters != c.iters || res.Truncated != truncated {
				t.Fatalf("%s/%s: %d rounds (truncated %v), want %d (truncated %v)",
					c.name, path, res.Iters, res.Truncated, c.iters, truncated)
			}
			if got := resultHash(res); got != c.want {
				t.Errorf("%s/%s: result hash %#x, want %#x (overflow %d)", c.name, path, got, c.want, res.Overflow)
			}
		}
		if c.stopRound > 0 {
			ctx := &stopAfter{Context: context.Background(), n: c.stopRound, done: make(chan struct{})}
			res, err := RouteContext(ctx, g, nets, opt)
			check("cut", res, err, true)
			continue
		}
		res, err := Route(g, nets, opt)
		check("plain", res, err, false)
		ctx, cancel := context.WithCancel(context.Background())
		res, err = RouteContext(ctx, g, nets, opt)
		cancel()
		check("cancellable", res, err, false)
	}
}
