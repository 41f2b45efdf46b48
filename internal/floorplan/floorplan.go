// Package floorplan implements a sequence-pair floorplanner with simulated
// annealing, supporting hard blocks (fixed footprint) and soft blocks
// (fixed area, adjustable aspect ratio). The planner floorplans the circuit
// blocks produced by partitioning; the resulting placement, chip outline,
// and dead space feed the tile graph used by LAC-retiming.
package floorplan

import (
	"fmt"
	"math"
	"math/rand"
)

// Block describes one circuit block to place.
type Block struct {
	Name string
	// Area is the block area (um^2); used for soft blocks and sanity
	// checks on hard ones.
	Area float64
	// Hard fixes the footprint at W x H; soft blocks derive their
	// footprint from Area and an aspect ratio chosen by the annealer.
	Hard bool
	// W, H: footprint of hard blocks (ignored for soft on input).
	W, H float64
	// MinAspect/MaxAspect bound H/W for soft blocks (defaults 0.5 / 2).
	MinAspect, MaxAspect float64
}

// Net is a set of block indices whose connection length (half-perimeter of
// the bounding box of block centers) enters the annealing cost.
type Net []int

// Placement is the floorplanning result.
type Placement struct {
	X, Y, W, H   []float64 // per block
	ChipW, ChipH float64
	// Cost components at the accepted solution.
	AreaCost, WireCost float64
}

// BlockArea returns the placed area of block i.
func (p *Placement) BlockArea(i int) float64 { return p.W[i] * p.H[i] }

// DeadSpace returns chip area minus total block area.
func (p *Placement) DeadSpace() float64 {
	t := 0.0
	for i := range p.W {
		t += p.W[i] * p.H[i]
	}
	return p.ChipW*p.ChipH - t
}

// Center returns the center coordinates of block i.
func (p *Placement) Center(i int) (float64, float64) {
	return p.X[i] + p.W[i]/2, p.Y[i] + p.H[i]/2
}

// Validate checks that no two blocks overlap and all fit the chip outline.
func (p *Placement) Validate() error {
	n := len(p.X)
	const eps = 1e-6
	for i := 0; i < n; i++ {
		if p.X[i] < -eps || p.Y[i] < -eps ||
			p.X[i]+p.W[i] > p.ChipW+eps || p.Y[i]+p.H[i] > p.ChipH+eps {
			return fmt.Errorf("floorplan: block %d outside chip", i)
		}
		for j := i + 1; j < n; j++ {
			if p.X[i] < p.X[j]+p.W[j]-eps && p.X[j] < p.X[i]+p.W[i]-eps &&
				p.Y[i] < p.Y[j]+p.H[j]-eps && p.Y[j] < p.Y[i]+p.H[i]-eps {
				return fmt.Errorf("floorplan: blocks %d and %d overlap", i, j)
			}
		}
	}
	return nil
}

// Options tunes the annealer.
type Options struct {
	Seed int64
	// Moves is the number of annealing moves (default 20000).
	Moves int
	// WireWeight scales the wirelength term against area (default 0.1).
	WireWeight float64
	// Whitespace inflates soft block footprints so the block can later
	// absorb repeaters and relocated flip-flops (default 0.15 = 15%).
	Whitespace float64
	// Channel is the routing-channel spacing kept around every block
	// (um). Blocks are packed on a grid inflated by Channel and then
	// centered in their slots, leaving free space for routing, repeaters,
	// and relocated flip-flops between blocks (default 0: abutted).
	Channel float64
}

type state struct {
	gp, gn []int // sequence pair: block indices in Γ+ and Γ- order
	w, h   []float64
}

// copyFrom overwrites s with src (same block count) without allocating.
func (s *state) copyFrom(src *state) {
	copy(s.gp, src.gp)
	copy(s.gn, src.gn)
	copy(s.w, src.w)
	copy(s.h, src.h)
}

// packing is evaluate's scratch: the Γ+ positions and the lower-left slot
// corners of one packing, reused by every move, plus the chip outline.
type packing struct {
	posP         []int
	x, y         []float64
	chipW, chipH float64
}

// Place floorplans the blocks. The result is deterministic for a given
// seed. An error is returned for invalid inputs only; the annealer always
// produces a legal (overlap-free) placement.
//
// The annealing loop allocates nothing per move: the current and the
// candidate state are two fixed buffers (the candidate is copied from the
// current one before each move, and the two swap on acceptance), one
// packing scratch is filled in place by every evaluation, and a Placement
// is materialized only when a candidate beats the best cost so far.
func Place(blocks []Block, nets []Net, opt Options) (*Placement, error) {
	n := len(blocks)
	if n == 0 {
		return nil, fmt.Errorf("floorplan: no blocks")
	}
	for i, b := range blocks {
		if b.Hard {
			if b.W <= 0 || b.H <= 0 {
				return nil, fmt.Errorf("floorplan: hard block %d (%s) needs positive W,H", i, b.Name)
			}
		} else if b.Area <= 0 {
			return nil, fmt.Errorf("floorplan: soft block %d (%s) needs positive area", i, b.Name)
		}
	}
	for _, net := range nets {
		for _, b := range net {
			if b < 0 || b >= n {
				return nil, fmt.Errorf("floorplan: net references block %d outside [0,%d)", b, n)
			}
		}
	}
	if opt.Moves <= 0 {
		opt.Moves = 20000
	}
	if opt.WireWeight < 0 {
		return nil, fmt.Errorf("floorplan: negative wire weight")
	}
	if opt.WireWeight == 0 {
		opt.WireWeight = 0.1
	}
	if opt.Whitespace < 0 {
		return nil, fmt.Errorf("floorplan: negative whitespace")
	}
	if opt.Whitespace == 0 {
		opt.Whitespace = 0.15
	}
	if opt.Channel < 0 {
		return nil, fmt.Errorf("floorplan: negative channel width")
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	st := &state{gp: rng.Perm(n), gn: rng.Perm(n), w: make([]float64, n), h: make([]float64, n)}
	var softs []int
	for i, b := range blocks {
		if b.Hard {
			st.w[i], st.h[i] = b.W, b.H
			continue
		}
		softs = append(softs, i)
		setSoftSize(st, i, b, 1, opt.Whitespace)
	}
	cand := &state{gp: make([]int, n), gn: make([]int, n), w: make([]float64, n), h: make([]float64, n)}
	pk := &packing{posP: make([]int, n), x: make([]float64, n), y: make([]float64, n)}

	// evalCost packs s into pk and returns the annealing cost with its area
	// and wirelength components.
	evalCost := func(s *state) (cost, area, wl float64) {
		evaluate(s, opt.Channel, pk)
		wl = wirelength(s, pk, opt.Channel, nets)
		area = pk.chipW * pk.chipH
		// Penalize non-square chips mildly so tiles stay useful.
		ar := pk.chipW / pk.chipH
		if ar < 1 {
			ar = 1 / ar
		}
		return area*(1+0.05*(ar-1)) + opt.WireWeight*wl, area, wl
	}

	cost, area, wl := evalCost(st)
	bestCost, bestPl := cost, placement(st, pk, opt.Channel, area, wl)

	temp := cost * 0.1
	cooling := math.Pow(1e-4, 1.0/float64(opt.Moves)) // temp decays to 0.01% over the run
	for move := 0; move < opt.Moves; move++ {
		cand.copyFrom(st)
		switch m := rng.Intn(3); m {
		case 0: // swap two blocks in Γ+
			i, j := rng.Intn(n), rng.Intn(n)
			cand.gp[i], cand.gp[j] = cand.gp[j], cand.gp[i]
		case 1: // swap two blocks in both sequences
			i, j := rng.Intn(n), rng.Intn(n)
			cand.gp[i], cand.gp[j] = cand.gp[j], cand.gp[i]
			k, l := posOf(cand.gn, cand.gp[i]), posOf(cand.gn, cand.gp[j])
			cand.gn[k], cand.gn[l] = cand.gn[l], cand.gn[k]
		default: // reshape a soft block
			if len(softs) == 0 {
				i, j := rng.Intn(n), rng.Intn(n)
				cand.gp[i], cand.gp[j] = cand.gp[j], cand.gp[i]
				break
			}
			i := softs[rng.Intn(len(softs))]
			b := blocks[i]
			lo, hi := b.MinAspect, b.MaxAspect
			if lo <= 0 {
				lo = 0.5
			}
			if hi <= 0 {
				hi = 2
			}
			a := lo * math.Pow(hi/lo, rng.Float64())
			setSoftSize(cand, i, b, a, opt.Whitespace)
		}
		cCost, cArea, cWl := evalCost(cand)
		if cCost < cost || rng.Float64() < math.Exp((cost-cCost)/max(temp, 1e-12)) {
			st, cand, cost = cand, st, cCost
			if cCost < bestCost {
				bestCost, bestPl = cCost, placement(st, pk, opt.Channel, cArea, cWl)
			}
		}
		temp *= cooling
	}
	if err := bestPl.Validate(); err != nil {
		return nil, fmt.Errorf("floorplan: internal error: %v", err)
	}
	return bestPl, nil
}

func setSoftSize(s *state, i int, b Block, aspect, whitespace float64) {
	area := b.Area * (1 + whitespace)
	w := math.Sqrt(area / aspect)
	s.w[i] = w
	s.h[i] = area / w
}

func posOf(seq []int, v int) int {
	for i, x := range seq {
		if x == v {
			return i
		}
	}
	panic("floorplan: value not in sequence")
}

// evaluate packs s into pk: block slot corners from the sequence pair by
// longest-path ("a before b in both sequences" means a is left of b;
// "after in Γ+, before in Γ-" means a is below b), and the chip outline.
// Each block is packed in a slot inflated by the channel spacing; blocks
// sit centered in their slots (see placement), so channels of free space
// separate them.
func evaluate(s *state, channel float64, pk *packing) {
	posP, x, y := pk.posP, pk.x, pk.y
	for i, b := range s.gp {
		posP[b] = i
	}
	clear(x)
	clear(y)
	// X: process blocks in Γ- order; a left-of b iff posP and posN both
	// smaller, so all lefts of b precede it in Γ- order. Slot widths are
	// inflated by the channel spacing.
	var chipW, chipH float64
	for _, b := range s.gn {
		for _, a := range s.gn {
			if a == b {
				break
			}
			if posP[a] < posP[b] { // and posN[a] < posN[b] by iteration order
				if xa := x[a] + s.w[a] + channel; xa > x[b] {
					x[b] = xa
				}
			}
		}
		if xb := x[b] + s.w[b] + channel; xb > chipW {
			chipW = xb
		}
	}
	// Y: a below b iff posP[a] > posP[b] and posN[a] < posN[b].
	for _, b := range s.gn {
		for _, a := range s.gn {
			if a == b {
				break
			}
			if posP[a] > posP[b] {
				if ya := y[a] + s.h[a] + channel; ya > y[b] {
					y[b] = ya
				}
			}
		}
		if yb := y[b] + s.h[b] + channel; yb > chipH {
			chipH = yb
		}
	}
	pk.chipW, pk.chipH = chipW, chipH
}

// placement materializes the packing of s as a Placement, each block
// centered in its channel-inflated slot.
func placement(s *state, pk *packing, channel, area, wl float64) *Placement {
	n := len(pk.x)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for b := 0; b < n; b++ {
		xs[b] = pk.x[b] + channel/2
		ys[b] = pk.y[b] + channel/2
	}
	return &Placement{
		X: xs, Y: ys,
		W:     append([]float64(nil), s.w...),
		H:     append([]float64(nil), s.h...),
		ChipW: pk.chipW, ChipH: pk.chipH,
		AreaCost: area, WireCost: wl,
	}
}

// wirelength sums the half-perimeters of the nets' bounding boxes over the
// block centers of the packing, computed as placement would place them.
func wirelength(s *state, pk *packing, channel float64, nets []Net) float64 {
	total := 0.0
	for _, net := range nets {
		if len(net) < 2 {
			continue
		}
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		for _, b := range net {
			cx := (pk.x[b] + channel/2) + s.w[b]/2
			cy := (pk.y[b] + channel/2) + s.h[b]/2
			minX, maxX = min(minX, cx), max(maxX, cx)
			minY, maxY = min(minY, cy), max(maxY, cy)
		}
		total += (maxX - minX) + (maxY - minY)
	}
	return total
}
