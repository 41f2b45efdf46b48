package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"lacret/internal/check"
	"lacret/internal/core"
	"lacret/internal/job"
	"lacret/internal/plan"
)

var bg = context.Background()

// The workloads' inputs: the LAC-light Table 1 circuits planned by table1
// and lazy, how often each is planned per timed round, the LAC-heavy
// circuits and the examples/ablation alpha grid (paper §4.2) solved by
// lac-sweep.
var (
	table1Circuits = []string{"s386", "s400", "s526", "s820", "s953"}
	// A pass of s953 takes about as long as 15 of s386, so one pass of
	// each per round would give the small circuits' medians as few
	// samples as s953's. The small ones are planned more often to even
	// out the medians' noise; circuits not listed are planned once.
	table1Repeats = map[string]int{"s386": 3, "s400": 3, "s526": 2}
	sweepCircuits = []string{"s641", "s1196"}
	sweepAlphas   = []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}
)

// newRequest builds a catalog request exactly as lacplan, table1 and
// lacretd do: the default request configuration, normalized, so the seed
// resolves to the circuit's catalog seed. engine "" keeps the auto engine.
func newRequest(circuit, engine string) job.PlanRequest {
	req := job.PlanRequest{Source: job.Source{Circuit: circuit}, Config: job.ReqConfig{ProbeEngine: engine}}
	req.Normalize()
	return req
}

// stagesBeforeLAC is the default pipeline up to and including min-area
// retiming.
func stagesBeforeLAC() []plan.Stage {
	var out []plan.Stage
	for _, s := range plan.DefaultStages() {
		if s.Name() != "lac" {
			out = append(out, s)
		}
	}
	return out
}

func sweepKey(circuit string, alpha float64) string {
	return circuit + "@" + strconv.FormatFloat(alpha, 'g', -1, 64)
}

// runPass plans one request through the given stages the way the job
// layer's default run does (materialize the netlist, map the request to a
// plan.Config, run the pipeline) and returns the pass's wall time. With a
// tracer it runs the stages one at a time, each under its own span, so the
// per-stage busy times come from the benchmark's own calls.
func runPass(ctx context.Context, tr *tracer, parent int, req job.PlanRequest, stages []plan.Stage) (time.Duration, *plan.PlanState, plan.Config, error) {
	label := req.Source.Label()
	t0 := time.Now()
	pid := tr.begin("pass", label, parent)
	defer tr.end(pid)
	nl, err := req.Source.Netlist()
	if err != nil {
		return 0, nil, plan.Config{}, err
	}
	cfg := req.PlanConfig()
	st, err := plan.NewState(nl, &cfg)
	if err != nil {
		return 0, nil, cfg, err
	}
	if tr == nil {
		err = st.RunContext(ctx, stages, &cfg)
	} else {
		for _, s := range stages {
			sid := tr.begin(s.Name(), label, pid)
			err = st.RunContext(ctx, []plan.Stage{s}, &cfg)
			tr.end(sid)
			if err != nil {
				break
			}
		}
	}
	return time.Since(t0), st, cfg, err
}

// solveAt re-solves the planned circuit's LAC problem at one alpha and
// returns a copy of the pass's result carrying that LAC outcome.
func solveAt(st *plan.PlanState, cfg plan.Config, alpha float64) (*plan.Result, error) {
	opt := cfg.LAC
	opt.Alpha, opt.AlphaSet = alpha, true
	lac, err := st.Result.Problem.Solve(opt)
	if err != nil {
		return nil, err
	}
	res := *st.Result
	res.LAC = lac
	res.LACNFN = plan.CountInterconnectFFs(lac.Retimed)
	return &res, nil
}

// gateResult is the correctness gate of one library operation, run outside
// its timed interval: check.Verify re-derives STA, the cycle-ratio bound
// and simulation equivalence, and the result columns must equal the
// expected table's entry for the job.
func (r *run) gateResult(c *config, parent int, key string, res *plan.Result, err error) {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", key, err)
		return
	}
	vid := c.trace.begin("check.verify", key, parent)
	_, err = check.Verify(res)
	c.trace.end(vid)
	if err != nil {
		r.fail("%s: %v", key, err)
		return
	}
	want, ok := c.expected[key]
	if !ok {
		r.fail("%s: no expected columns", key)
		return
	}
	if d := diffColumns(want, resultColumns(res)); d != "" {
		r.fail("%s: %s", key, d)
	}
}

// runPasses is the table1 and lazy workload: full first planning passes of
// each circuit at the default request configuration, engine "" (auto) or
// "lazy". Set-up builds the requests and plans each circuit once, which
// also warms the process; each timed round then plans every circuit its
// table1Repeats count of times (default once), in a seeded order.
func runPasses(c *config, engine string) *run {
	r := &run{setupS: make([][]float64, 1)}
	reqs := make([]job.PlanRequest, len(c.circuits))
	pass := func(parent int, req job.PlanRequest) time.Duration {
		// Every pass starts from the same heap state, whatever ran before
		// it, so the peak RSS and the GC work inside a pass do not depend
		// on the job order.
		runtime.GC()
		d, st, _, err := runPass(bg, c.trace, parent, req, plan.DefaultStages())
		var res *plan.Result
		if st != nil {
			res = st.Result
			if err == nil {
				r.layers.addPass(st)
			}
		}
		r.gateResult(c, parent, req.Source.Circuit, res, err)
		return d
	}
	for rep := 0; rep < c.setupReps; rep++ {
		sid := c.trace.begin("setup", "", 0)
		t0 := time.Now()
		for i, name := range c.circuits {
			reqs[i] = newRequest(name, engine)
			if err := reqs[i].Validate(); err != nil {
				r.setupErr = err
				return r
			}
		}
		setup := time.Since(t0)
		for _, req := range reqs {
			setup += pass(sid, req)
		}
		c.trace.end(sid)
		r.setupS[0] = append(r.setupS[0], setup.Seconds())
	}
	var roundJobs []int // indexes into reqs, repeats included
	for i, name := range c.circuits {
		for k := 0; k < max(1, table1Repeats[name]); k++ {
			roundJobs = append(roundJobs, i)
		}
	}
	rng := c.rng()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < c.seconds; round++ {
		rid := c.trace.begin("round", "", 0)
		for _, j := range rng.Perm(len(roundJobs)) {
			i := roundJobs[j]
			d := pass(rid, reqs[i])
			r.ops = append(r.ops, sample{job: reqs[i].Source.Circuit, ms: ms(d)})
		}
		c.trace.end(rid)
		r.rounds++
	}
	r.finishLibrary()
	return r
}

// runSweep is the lac-sweep workload. Set-up plans the LAC-heavy circuits
// through min-area retiming; the timed rounds then call Problem.Solve on
// them, one alpha of the seeded grid order per round, until the deadline
// and at least once per alpha.
func runSweep(c *config) *run {
	r := &run{setupS: make([][]float64, 1)}
	states := make([]*plan.PlanState, len(c.circuits))
	cfgs := make([]plan.Config, len(c.circuits))
	for rep := 0; rep < c.setupReps; rep++ {
		var setup time.Duration
		sid := c.trace.begin("setup", "", 0)
		for i, name := range c.circuits {
			states[i] = nil // the previous set-up's state is garbage now
			runtime.GC()
			d, st, cfg, err := runPass(bg, c.trace, sid, newRequest(name, ""), stagesBeforeLAC())
			if err != nil {
				r.setupErr = fmt.Errorf("%s: %v", name, err)
				return r
			}
			setup += d
			states[i], cfgs[i] = st, cfg
			r.layers.addPass(st)
		}
		c.trace.end(sid)
		r.setupS[0] = append(r.setupS[0], setup.Seconds())
	}
	solve := func(parent, i int, alpha float64) time.Duration {
		key := sweepKey(c.circuits[i], alpha)
		runtime.GC()
		sid := c.trace.begin("core.solve", key, parent)
		t0 := time.Now()
		res, err := solveAt(states[i], cfgs[i], alpha)
		d := time.Since(t0)
		c.trace.end(sid)
		if err == nil {
			r.layers.addLAC(res.LAC, res.MinArea.NFOA)
		}
		r.gateResult(c, parent, key, res, err)
		return d
	}
	rng := c.rng()
	order := rng.Perm(len(c.alphas))
	for i := range states {
		solve(0, i, c.alphas[order[0]])
	}
	start := time.Now()
	for round := 0; round < len(order) || time.Since(start) < c.seconds; round++ {
		alpha := c.alphas[order[round%len(order)]]
		rid := c.trace.begin("round", "", 0)
		for _, i := range rng.Perm(len(states)) {
			d := solve(rid, i, alpha)
			r.ops = append(r.ops, sample{job: sweepKey(c.circuits[i], alpha), ms: ms(d)})
		}
		c.trace.end(rid)
		r.rounds++
	}
	r.finishLibrary()
	return r
}

// layerCounts accumulates the per-layer work counts the benchmark reads
// off public results: PlanState.Routing, Result.Probe, Result.ProbeMem,
// the constraint system, and the LAC rounds.
type layerCounts struct {
	passes                                        int
	ripup, repeaters, vertices                    float64
	probedPasses                                  int
	probes, witness, pairsScanned, indexPairs     float64
	constraintPasses                              int
	constraints                                   float64
	denseBytes, sweeps, hits, evictions           float64
	lacSolves                                     int
	lacRounds, improving, augpaths, phases, warms float64
}

// addPass records the counts of one (possibly partial) planning pass.
func (l *layerCounts) addPass(st *plan.PlanState) {
	res := st.Result
	l.passes++
	if st.Routing != nil {
		l.ripup += float64(st.Routing.Iters)
	}
	l.repeaters += float64(res.RepeaterCount)
	if res.Graph != nil {
		l.vertices += float64(res.Graph.N())
	}
	if res.Probe.Probes > 0 {
		l.probedPasses++
		l.probes += float64(res.Probe.Probes)
		l.witness += float64(res.Probe.WitnessRejects)
		l.pairsScanned += float64(res.Probe.PairsScanned)
		l.indexPairs += float64(res.Probe.IndexPairs)
		l.denseBytes += float64(res.ProbeMem.DenseBytes)
		l.sweeps += float64(res.ProbeMem.Sweeps)
		l.hits += float64(res.ProbeMem.Hits)
		l.evictions += float64(res.ProbeMem.Evictions)
	}
	if st.Constraints != nil {
		l.constraintPasses++
		l.constraints += float64(len(st.Constraints.Cons))
	}
	if res.LAC != nil && res.MinArea != nil {
		l.addLAC(res.LAC, res.MinArea.NFOA)
	}
}

// addLAC records one LAC solve: its weighted rounds, the rounds that
// lowered the best N_FOA seen so far (the min-area baseline included),
// and the flow engine's augmenting paths, phases and warm starts.
func (l *layerCounts) addLAC(lac *core.Result, baseline int) {
	l.lacSolves++
	best := baseline
	for _, it := range lac.Iters {
		l.lacRounds++
		if it.NFOA < best {
			best = it.NFOA
			l.improving++
		}
		l.augpaths += float64(it.AugPaths)
		l.phases += float64(it.Phases)
		if it.Warm {
			l.warms++
		}
	}
}
