package retime

import (
	"context"
	"fmt"

	"lacret/internal/obs"
)

// MinPeriodPartial is the state of an interrupted minimum-period search:
// the bracket (Lo, Hi] with Lo proven infeasible (0 when no probe completed
// — no retiming achieves a non-positive period, so the invariant holds
// trivially) and Hi realized by the labeling R. Probes counts the
// feasibility probes that completed before the interruption.
type MinPeriodPartial struct {
	Lo, Hi float64
	R      []int
	Probes int
}

// ErrBudgetExceeded is returned by the context-aware searches when the
// context expires mid-search. Partial carries the best bracket found so
// far; callers running anytime pipelines degrade to Partial.Hi and its
// labeling instead of failing. Cause is the context's error (Unwrap), so
// errors.Is distinguishes deadline expiry from cancellation.
type ErrBudgetExceeded struct {
	Partial *MinPeriodPartial
	Cause   error
}

func (e *ErrBudgetExceeded) Error() string {
	return fmt.Sprintf("retime: period search stopped after %d probes with bracket (%g, %g]: %v",
		e.Partial.Probes, e.Partial.Lo, e.Partial.Hi, e.Cause)
}

func (e *ErrBudgetExceeded) Unwrap() error { return e.Cause }

// MinPeriod finds the minimum achievable clock period under retiming (with
// ports pinned), a labeling that realizes it, and the probe-work counters
// of the search (see ProbeStats). It is a binary search over period
// probes; eps bounds the absolute search error (<=0 selects 1e-4), and the
// returned period is the actual retimed period of the found labeling, a
// realizable value rather than a midpoint. Each feasible probe's period is
// read off the probe's last timing pass (see FeasSolver.Probe); the found
// labeling is checked against the returned period once, at the end, on a
// retimed copy of the graph.
//
// The bisection bracket is [maximum vertex delay, unretimed period]. The
// probes run on one FeasSolver: a probe below the graph's PeriodFloor —
// the iteration bound less a tolerance margin, under which no period is
// achievable — is infeasible in O(1) (ProbeStats.BoundRejects), and every
// other probe warm-starts from the previous feasible labeling and adds
// only the path cuts that timing the retimed graph shows it needs,
// instead of rebuilding the full constraint system over all O(V²) pairs.
// The floor only removes work: the bracket and its midpoints are those of
// a search floored at the maximum vertex delay, and verdicts and
// labelings are identical to the cold full-system path.
//
// Under a context the deadline is checked between probes; on expiry the
// search returns a typed *ErrBudgetExceeded carrying the current bracket
// (an anytime result; see MinPeriodPartial). An already-expired context
// yields a partial with zero probes whose Hi is the unretimed period.
func (rg *Graph) MinPeriod(ctx context.Context, eps float64) (T float64, r []int, stats ProbeStats, err error) {
	if err := rg.Validate(); err != nil {
		return 0, nil, stats, err
	}
	return rg.minPeriod(ctx, NewFeasSolver(rg), eps)
}

// minPeriod is MinPeriod on a validated graph, probing on fs (a fresh
// solver of rg; the tests keep it to inspect its pool).
func (rg *Graph) minPeriod(ctx context.Context, fs *FeasSolver, eps float64) (T float64, r []int, stats ProbeStats, err error) {
	if eps <= 0 {
		eps = 1e-4
	}
	hi, err := rg.Period()
	if err != nil {
		return 0, nil, stats, err
	}
	lo := rg.MaxDelay()
	if hi < lo {
		hi = lo
	}
	// The zero labeling realizes hi. A successful probe at T realizes some
	// period p <= T which becomes the new upper bound (an achievable value,
	// so the bound tightens at least as fast as the midpoint).
	bestT := hi
	bestR := make([]int, rg.N())
	// provenLo is the largest period a completed probe proved infeasible —
	// the Lo of an interrupted search's bracket. It starts at 0, not at the
	// max vertex delay: that delay is a valid lower bound for the search but
	// has not been *proven* infeasible (probing it may well succeed).
	provenLo := 0.0
	probes := 0
	partial := func(cause error) error {
		return &ErrBudgetExceeded{
			Partial: &MinPeriodPartial{Lo: provenLo, Hi: bestT, R: bestR, Probes: probes},
			Cause:   cause,
		}
	}
	// Observability handles: all nil (and therefore free) unless the caller
	// installed an obs recorder on the context. Each probe becomes one
	// sub-stage span (period probed, feasibility, relaxations, cuts, warm/cold,
	// bracket after the probe); the live gauges track the shrinking bracket
	// and the counters accumulate the incremental solver's probe work.
	reg := obs.FromContext(ctx).Registry()
	gLo, gHi := reg.Gauge("retime.bracket_lo"), reg.Gauge("retime.bracket_hi")
	cProbes := reg.Counter("retime.probes")
	cWarm := reg.Counter("retime.feas_warm")
	cPairs := reg.Counter("retime.pairs_scanned")
	cWitness := reg.Counter("retime.witness_rejects")
	cBound := reg.Counter("retime.bound_rejects")
	cCuts := reg.Counter("retime.cuts")
	hProbe := reg.Histogram("retime.probe_ms", obs.DurationBucketsMS)
	var prev ProbeStats
	probe := func(T float64) (feasible bool) {
		_, sp := obs.StartSpan(ctx, "probe")
		sp.SetAttr("t", T)
		defer func() {
			probes++
			st := fs.Stats()
			if feasible {
				sp.SetAttr("feasible", 1)
			} else {
				sp.SetAttr("feasible", 0)
			}
			sp.SetAttr("relaxations", float64(st.Relaxations-prev.Relaxations))
			sp.SetAttr("cuts", float64(st.Cuts-prev.Cuts))
			if st.Warm > prev.Warm {
				sp.SetAttr("warm", 1)
			} else {
				sp.SetAttr("warm", 0)
			}
			if st.BoundRejects > prev.BoundRejects {
				sp.SetAttr("bound_reject", 1)
			} else {
				sp.SetAttr("bound_reject", 0)
			}
			sp.SetAttr("bracket_hi", bestT)
			sp.End()
			if sp != nil {
				hProbe.Observe(float64(sp.Dur.Microseconds()) / 1000)
			}
			cProbes.Inc()
			cWarm.Add(int64(st.Warm - prev.Warm))
			cPairs.Add(st.PairsScanned - prev.PairsScanned)
			cWitness.Add(int64(st.WitnessRejects - prev.WitnessRejects))
			cBound.Add(int64(st.BoundRejects - prev.BoundRejects))
			cCuts.Add(st.Cuts - prev.Cuts)
			prev = st
			gHi.Set(bestT)
		}()
		labels, p, ok := fs.Probe(T)
		if !ok {
			return false
		}
		if p < bestT {
			bestT, bestR = p, labels
		}
		return true
	}
	if cerr := ctx.Err(); cerr != nil {
		return 0, nil, fs.Stats(), partial(cerr)
	}
	if !probe(lo) {
		provenLo = lo
		gLo.Set(provenLo)
	}
	for bestT-lo > eps {
		if cerr := ctx.Err(); cerr != nil {
			return 0, nil, fs.Stats(), partial(cerr)
		}
		mid := (lo + bestT) / 2
		if !probe(mid) {
			lo = mid
			provenLo = mid
			gLo.Set(provenLo)
		} else if bestT > mid+periodEps {
			// A feasible probe at mid must realize a period <= mid; guard
			// against numerical drift rather than looping forever.
			break
		}
	}
	if err := rg.CheckFeasible(bestR, bestT); err != nil {
		return 0, nil, fs.Stats(), fmt.Errorf("retime: MinPeriod produced invalid labeling: %v", err)
	}
	return bestT, bestR, fs.Stats(), nil
}
