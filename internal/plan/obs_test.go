package plan

import (
	"context"
	"testing"

	"lacret/internal/bench89"
	"lacret/internal/core"
	"lacret/internal/obs"
)

// countSpans counts spans named name anywhere under the given forest.
func countSpans(spans []*obs.Span, name string) int {
	n := 0
	for _, sp := range spans {
		if sp.Name == name {
			n++
		}
		n += countSpans(sp.Children, name)
	}
	return n
}

// forEachSpan calls fn on every span named name in the trees rooted at
// spans.
func forEachSpan(spans []*obs.Span, name string, fn func(*obs.Span)) {
	for _, sp := range spans {
		if sp.Name == name {
			fn(sp)
		}
		forEachSpan(sp.Children, name, fn)
	}
}

// TestPlanObserved is the instrumentation contract end to end: a recorder on
// the context yields a pass span with one child per executed stage, the
// anytime stages carry their sub-stage spans (period probes, routing rounds,
// LAC rounds with nested flow solves), the shared registry fills — and none
// of it changes the planning result.
func TestPlanObserved(t *testing.T) {
	nl := smallCircuit(t)
	cfg := Config{Seed: 1, FloorplanMoves: 2000}
	plain, err := Plan(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder()
	ctx := obs.NewContext(context.Background(), rec)
	iters, err := PlanIterationsContext(ctx, nl, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 1 || iters[0].Err != nil {
		t.Fatalf("iters = %+v", iters)
	}
	res := iters[0].Result

	// Observation must not perturb the numbers.
	if res.Tmin != plain.Tmin || res.Tclk != plain.Tclk {
		t.Errorf("periods drift under observation: Tmin %v vs %v, Tclk %v vs %v",
			res.Tmin, plain.Tmin, res.Tclk, plain.Tclk)
	}
	if res.RouteWirelength != plain.RouteWirelength {
		t.Errorf("wirelength drift: %v vs %v", res.RouteWirelength, plain.RouteWirelength)
	}
	if res.MinArea.NF != plain.MinArea.NF || res.LAC.NF != plain.LAC.NF ||
		res.LAC.NFOA != plain.LAC.NFOA || res.LAC.NWR != plain.LAC.NWR {
		t.Errorf("retiming drift: MinArea.NF %d vs %d, LAC %d/%d/%d vs %d/%d/%d",
			res.MinArea.NF, plain.MinArea.NF,
			res.LAC.NF, res.LAC.NFOA, res.LAC.NWR,
			plain.LAC.NF, plain.LAC.NFOA, plain.LAC.NWR)
	}

	// One root pass span whose children are the executed stages in order.
	roots := rec.Roots()
	if len(roots) != 1 || roots[0].Name != "pass" {
		t.Fatalf("roots = %+v", roots)
	}
	if len(roots[0].Children) != len(defaultStageNames) {
		t.Fatalf("pass has %d stage spans, want %d", len(roots[0].Children), len(defaultStageNames))
	}
	for i, sp := range roots[0].Children {
		if sp.Name != defaultStageNames[i] {
			t.Fatalf("stage span %d is %q, want %q", i, sp.Name, defaultStageNames[i])
		}
	}

	// Sub-stage spans land on the matching trace events.
	sub := map[string][]*obs.Span{}
	for _, ev := range res.Trace {
		sub[ev.Stage] = ev.Sub
	}
	for _, c := range []struct {
		stage, span string
		min         int
	}{
		{"periods", "probe", 1},
		{"route", "initial", 1},
		{"route", "round", 1},
		{"minarea", "mcmf-solve", 1},
		{"minarea", "phase", 1},
		{"lac", "lac-round", 1},
	} {
		if n := countSpans(sub[c.stage], c.span); n < c.min {
			t.Errorf("stage %s has %d %q sub-spans, want >= %d", c.stage, n, c.span, c.min)
		}
	}
	// The route stage counts its maze searches and the cells they
	// settled; the initial routing and every rip-up round carry their
	// share as span attrs.
	for _, attr := range []string{"searches", "settled"} {
		spanTotal := 0.0
		for _, name := range []string{"initial", "round"} {
			forEachSpan(sub["route"], name, func(sp *obs.Span) {
				v, ok := sp.Attr(attr)
				if !ok {
					t.Errorf("route %s span missing %s attr", name, attr)
				}
				spanTotal += v
			})
		}
		if got := stageCounter(res, "route", attr); got <= 0 || got != spanTotal {
			t.Errorf("route stage counter %s = %g, spans sum to %g", attr, got, spanTotal)
		}
	}
	if n := countSpans(sub["periods"], "probe"); n > 0 {
		// Every probe records its target period and feasibility verdict.
		for _, sp := range sub["periods"] {
			if sp.Name != "probe" {
				continue
			}
			if _, ok := sp.Attr("t"); !ok {
				t.Error("probe span missing t attr")
			}
			if _, ok := sp.Attr("feasible"); !ok {
				t.Error("probe span missing feasible attr")
			}
		}
	}
	// Probes below the period floor are flagged on their spans, counted
	// in the registry and in the periods stage counters, beside the floor.
	boundSpans := 0
	for _, sp := range sub["periods"] {
		if sp.Name != "probe" {
			continue
		}
		v, ok := sp.Attr("bound_reject")
		if !ok {
			t.Error("probe span missing bound_reject attr")
		}
		if v == 1 {
			boundSpans++
		}
	}
	if got := rec.Registry().Snapshot().Counters["retime.bound_rejects"]; got != int64(boundSpans) || boundSpans != res.Probe.BoundRejects {
		t.Errorf("bound rejects: counter %d, spans %d, ProbeStats %d", got, boundSpans, res.Probe.BoundRejects)
	}
	for _, ev := range res.Trace {
		if ev.Stage != "periods" {
			continue
		}
		cs := map[string]float64{}
		for _, c := range ev.Counters {
			cs[c.Name] = c.Value
		}
		if cs["bound_rejects"] != float64(res.Probe.BoundRejects) {
			t.Errorf("periods bound_rejects counter %g, ProbeStats %d", cs["bound_rejects"], res.Probe.BoundRejects)
		}
		if f := cs["period_floor"]; f < res.Graph.MaxDelay() || f > res.Tmin {
			t.Errorf("period_floor %g outside [MaxDelay %g, Tmin %g]", f, res.Graph.MaxDelay(), res.Tmin)
		}
		if cs["period_floor"] != res.Probe.Floor {
			t.Errorf("period_floor %g, ProbeStats floor %g", cs["period_floor"], res.Probe.Floor)
		}
		if cs["cuts"] != float64(res.Probe.Cuts) || cs["cut_rounds"] != float64(res.Probe.CutRounds) {
			t.Errorf("periods cuts/cut_rounds %g/%g, ProbeStats %d/%d",
				cs["cuts"], cs["cut_rounds"], res.Probe.Cuts, res.Probe.CutRounds)
		}
		if _, ok := cs["sweeps"]; ok {
			t.Error("periods stage reports source sweeps; the search reads no source")
		}
	}

	// The period search's cuts are counted per probe span, in the registry
	// and in ProbeStats alike.
	cutSpans := 0.0
	for _, sp := range sub["periods"] {
		if sp.Name != "probe" {
			continue
		}
		v, ok := sp.Attr("cuts")
		if !ok {
			t.Error("probe span missing cuts attr")
		}
		cutSpans += v
	}
	if got := rec.Registry().Snapshot().Counters["retime.cuts"]; got == 0 || got != int64(cutSpans) || got != res.Probe.Cuts {
		t.Errorf("cuts: counter %d, spans %g, ProbeStats %d", got, cutSpans, res.Probe.Cuts)
	}

	// The Tclk probe belongs to the constraints stage: its cut counters
	// land there, and the stage's constraint count is the pool it left
	// (edge and pin constraints plus those cuts).
	for _, ev := range res.Trace {
		if ev.Stage != "constraints" {
			continue
		}
		cs := map[string]float64{}
		for _, c := range ev.Counters {
			cs[c.Name] = c.Value
		}
		ps := res.Problem.Pool.ProbeStats()
		if cs["cuts"] == 0 || cs["cuts"] != float64(ps.Cuts) || cs["cut_rounds"] != float64(ps.CutRounds) {
			t.Errorf("constraints cuts/cut_rounds %g/%g, pool probe %d/%d", cs["cuts"], cs["cut_rounds"], ps.Cuts, ps.CutRounds)
		}
		base := len(res.Graph.EdgeConstraints()) + len(res.Graph.PinConstraints())
		if cs["constraints"] != float64(base)+cs["cuts"] {
			t.Errorf("constraints counter %g, want %d base + %g cuts", cs["constraints"], base, cs["cuts"])
		}
		for _, name := range []string{"sweeps", "sweeps_abandoned"} {
			if _, ok := cs[name]; !ok {
				t.Errorf("constraints stage missing counter %s", name)
			}
		}
	}

	// The min-area baseline is one flow solve per network its cut loop
	// built, so its stage holds one mcmf-solve span more than it counts
	// rebuilds. Every solve span carries its labeling and arc
	// scan counts, and the spans, the registry and the two retiming
	// stages' counters agree on each total.
	if n, rb := countSpans(sub["minarea"], "mcmf-solve"), stageCounter(res, "minarea", "rebuilds"); rb < 0 || n != 1+int(rb) {
		t.Errorf("minarea stage has %d mcmf-solve sub-spans after %g rebuilds, want one more", n, rb)
	}
	for _, attr := range []string{"labelings", "scans"} {
		spanTotal, stageTotal := 0.0, 0.0
		for _, stage := range []string{"minarea", "lac"} {
			forEachSpan(sub[stage], "mcmf-solve", func(sp *obs.Span) {
				v, ok := sp.Attr(attr)
				if !ok {
					t.Errorf("%s: mcmf-solve span missing %s attr", stage, attr)
				}
				spanTotal += v
			})
		}
		for _, ev := range res.Trace {
			for _, c := range ev.Counters {
				if c.Name == attr && (ev.Stage == "minarea" || ev.Stage == "lac") {
					stageTotal += c.Value
				}
			}
		}
		if got := rec.Registry().Snapshot().Counters["mcmf."+attr]; got == 0 || float64(got) != spanTotal || spanTotal != stageTotal {
			t.Errorf("%s: counter %d, spans %g, stage counters %g", attr, got, spanTotal, stageTotal)
		}
	}

	forEachSpan(sub["lac"], "lac-round", func(sp *obs.Span) {
		if _, ok := sp.Attr("scans"); !ok {
			t.Error("lac-round span missing scans attr")
		}
	})
	checkLACSpans(t, "tiny", res)

	// A circuit whose LAC loop reweights: its later rounds solve flows.
	p, _ := bench89.ByName("s953")
	big, err := bench89.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	iters, err = PlanIterationsContext(obs.NewContext(context.Background(), obs.NewRecorder()), big,
		Config{Seed: p.Seed, Whitespace: 0.13, LAC: core.Options{Alpha: 0.2, Nmax: 5, MaxIters: 20}}, 1)
	if err != nil || iters[0].Err != nil {
		t.Fatal(err, iters[0].Err)
	}
	if nwr := iters[0].Result.LAC.NWR; nwr < 2 {
		t.Fatalf("s953: LAC ran %d round(s), want a reweighted one", nwr)
	}
	checkLACSpans(t, "s953", iters[0].Result)

	// The shared registry accumulated the work counters.
	snap := rec.Registry().Snapshot()
	for _, name := range []string{"retime.probes", "route.rounds", "lac.rounds", "mcmf.phases", "mcmf.labelings", "mcmf.augpaths", "mcmf.scans"} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s is zero after an observed plan", name)
		}
	}
	if snap.Gauges["plan.pass"] != 1 {
		t.Errorf("plan.pass gauge = %g, want 1", snap.Gauges["plan.pass"])
	}
	if snap.Histograms["retime.probe_ms"].Count == 0 {
		t.Error("probe duration histogram is empty")
	}
	if got, want := snap.Counters["retime.probes"], int64(countSpans(sub["periods"], "probe")); got != want {
		t.Errorf("retime.probes counter %d != probe span count %d", got, want)
	}
}

// checkLACSpans checks where the lac stage's flow solves sit: round 0 is
// the min-area stage's answer and solves nothing, every later round solves
// at least once, and no solve runs outside a lac-round span.
func checkLACSpans(t *testing.T, circuit string, res *Result) {
	t.Helper()
	var sub []*obs.Span
	for _, ev := range res.Trace {
		if ev.Stage == "lac" {
			sub = ev.Sub
		}
	}
	round, inRounds := 0, 0
	forEachSpan(sub, "lac-round", func(sp *obs.Span) {
		n := countSpans(sp.Children, "mcmf-solve")
		if round == 0 && n != 0 || round > 0 && n == 0 {
			t.Errorf("%s: lac round %d has %d mcmf-solve sub-spans", circuit, round, n)
		}
		round++
		inRounds += n
	})
	if round != res.LAC.NWR {
		t.Errorf("%s: %d lac-round spans for %d rounds", circuit, round, res.LAC.NWR)
	}
	if n := countSpans(sub, "mcmf-solve"); n != inRounds {
		t.Errorf("%s: %d of stage lac's %d mcmf-solve sub-spans outside a lac-round", circuit, n-inRounds, n)
	}
	if n := countSpans(sub, "phase"); (n > 0) != (inRounds > 0) {
		t.Errorf("%s: stage lac has %d phase sub-spans in %d flow solves", circuit, n, inRounds)
	}
}

// TestStageReportsFromTrace covers the trace → report conversion including
// sub-stage spans and flags.
func TestStageReportsFromTrace(t *testing.T) {
	nl := smallCircuit(t)
	rec := obs.NewRecorder()
	ctx := obs.NewContext(context.Background(), rec)
	iters, err := PlanIterationsContext(ctx, nl, Config{Seed: 1, FloorplanMoves: 2000}, 1)
	if err != nil || iters[0].Err != nil {
		t.Fatal(err, iters[0].Err)
	}
	passes := PassReports(iters)
	if len(passes) != 1 || passes[0].Index != 0 || passes[0].Err != "" {
		t.Fatalf("passes = %+v", passes)
	}
	stages := passes[0].Stages
	if len(stages) != len(defaultStageNames) {
		t.Fatalf("%d stage reports, want %d", len(stages), len(defaultStageNames))
	}
	probeSeen := false
	for i, sr := range stages {
		if sr.Name != defaultStageNames[i] {
			t.Fatalf("stage report %d is %q", i, sr.Name)
		}
		if sr.WallNS <= 0 {
			t.Errorf("stage %s wall %d", sr.Name, sr.WallNS)
		}
		if sr.Name == "periods" && countSpans(sr.Spans, "probe") > 0 {
			probeSeen = true
		}
	}
	// The converted report must survive the schema round trip.
	if !probeSeen {
		t.Error("periods stage report has no probe spans")
	}
	rep := &obs.Report{Tool: "test", Circuit: nl.Name, Passes: passes,
		Metrics: rec.Registry().Snapshot()}
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.DecodeReport(data); err != nil {
		t.Fatal(err)
	}
}
