package retime

import (
	"context"
	"math"
	"sync"
)

// CutPool is the clock-period constraint system of one target period T,
// grown on demand instead of generated whole. It is the cut pool of a
// FeasSolver probed at T: the edge and pin constraints plus the path cuts
// that the probe, and every labeling timed against T since, were found to
// violate. The paper generates the clock constraints once per period
// (§4.2); the pool generates only those some labeling needs.
//
// Every cut is implied by the full system at T (which the package's tests
// build with BuildConstraints), so the pool is a relaxation of it. A minimum-area
// solve of the relaxation whose labeling meets T is optimal for the full
// system too, and its canonical labeling (mcmf.Potentials) is the full
// system's: the relaxation's optimal dual face contains the full system's,
// both are difference-constraint lattices, and the relaxation's canonical
// point lies in the smaller face. Answers therefore do not depend on which
// cuts the pool happens to hold, so it may grow across solves and callers,
// and a timing pass may cut every too-long path it exposes at once.
//
// A CutPool is safe for concurrent use.
type CutPool struct {
	rg *Graph
	t  float64
	fT float64
	// edge and pin are the T-independent constraints, computed once.
	edge, pin []Constraint

	mu sync.Mutex
	fs *FeasSolver
	// probe is the FeasSolver's counters right after the probe at T.
	probe ProbeStats
	// cs is the active system as last assembled; nil once cuts were added.
	cs *Constraints
	// cuts and rounds count the cuts added and the labelings timed after
	// the probe.
	cuts, rounds int64
}

// NewCutPool probes period T on a fresh FeasSolver and keeps its cut pool.
// It returns ErrInfeasible when no retiming achieves T, and the context's
// error when ctx is done first (checked between the probe's cut rounds).
func NewCutPool(ctx context.Context, rg *Graph, T float64) (*CutPool, error) {
	fT, err := rg.clockThreshold(T)
	if err != nil {
		return nil, err
	}
	edge, pin := rg.EdgeConstraints(), rg.PinConstraints()
	fs := newFeasSolver(rg, edge, pin)
	_, _, ok, err := fs.probe(ctx, T)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrInfeasible{T: T}
	}
	return &CutPool{rg: rg, t: T, fT: fT, edge: edge, pin: pin, fs: fs, probe: fs.Stats()}, nil
}

// Graph returns the retiming graph the pool constrains.
func (p *CutPool) Graph() *Graph { return p.rg }

// Period returns the target period the pool constrains.
func (p *CutPool) Period() float64 { return p.t }

// ProbeStats returns the counters of the probe at T that seeded the pool.
func (p *CutPool) ProbeStats() ProbeStats { return p.probe }

// PoolStats counts the pool's growth after its probe.
type PoolStats struct {
	// Cuts counts the cuts added by timing labelings against the period.
	Cuts int64
	// Rounds counts the labelings timed.
	Rounds int64
}

// Stats returns the pool's growth since its probe.
func (p *CutPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Cuts: p.cuts, Rounds: p.rounds}
}

// Constraints returns the system the pool holds at its period: the edge
// constraints, the cuts active at T (by head vertex, keys descending), and
// the pin constraints. The result is shared and must not be modified; a
// later call returns a new system once cuts were added.
func (p *CutPool) Constraints() *Constraints {
	cs, _ := p.system()
	return cs
}

// system is Constraints together with the number of cuts added after the
// probe when that system was current, read under one lock.
func (p *CutPool) system() (*Constraints, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cs == nil {
		var clock []Constraint
		for v, a := range p.fs.arcs {
			for _, c := range a[:arcPrefix(a, p.fT)] {
				if !math.IsInf(c.d, 1) {
					clock = append(clock, Constraint{U: int(c.u), V: v, Bound: int(c.bound)})
				}
			}
		}
		p.cs = assemble(p.rg.N(), p.edge, clock, p.pin)
	}
	return p.cs, p.cuts
}

// cut times the graph retimed by labeling r against the pool's period and
// adds a cut for every vertex whose arrival exceeds it — the end of a path
// the labeling leaves too long — unless the pool already holds one that
// implies it (a concurrent caller may have added it). It returns the
// number of violated paths found: 0 means r meets the period.
//
// The probe's warm labeling stays valid: it meets T, so it satisfies every
// cut keyed above T's threshold.
func (p *CutPool) cut(r []int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	fs := p.fs
	found := fs.findCuts(r, p.fT)
	p.rounds++
	for _, c := range found {
		if p.implied(c) {
			continue
		}
		fs.place(int(c.v), feasArc{u: c.u, bound: c.bound, d: c.d})
		p.cuts++
		p.cs = nil
	}
	// Invalidate the per-probe active-prefix cache the insertions skipped.
	fs.epoch++
	return len(found)
}

// implied reports whether v's pool list already holds a constraint active
// at the pool's period from the same tail that is at least as tight.
func (p *CutPool) implied(c pendingCut) bool {
	a := p.fs.arcs[c.v]
	for _, e := range a[:arcPrefix(a, p.fT)] {
		if e.u == c.u && e.bound <= c.bound {
			return true
		}
	}
	return false
}
