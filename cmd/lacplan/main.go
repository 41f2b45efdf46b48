// Command lacplan runs the full interconnect-planning flow on one circuit
// — a .bench netlist or a named synthetic benchmark — and reports the
// floorplan, routing, and retiming outcome, optionally with the tile map
// (the paper's Figure 2) and per-iteration LAC telemetry.
//
// Usage:
//
//	lacplan -circuit s953 [-ws 0.13] [-alpha 0.2] [-iterations 2] [-tilemap] [-trace]
//	lacplan -bench path/to/circuit.bench
//	lacplan -circuit s400 -report run.json -trace-out trace.json -debug-addr localhost:8077
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"lacret/internal/check"
	"lacret/internal/obs"
	"lacret/internal/plan"
	"lacret/internal/render"
	"lacret/internal/retime"
	"lacret/internal/runcfg"
	"lacret/internal/sta"
)

func main() {
	var (
		benchPath  = flag.String("bench", "", "path to an ISCAS89 .bench netlist")
		circuit    = flag.String("circuit", "", "synthetic catalog circuit name (e.g. s953)")
		blocks     = flag.Int("blocks", 0, "number of soft blocks (0 = auto)")
		ws         = flag.Float64("ws", 0.13, "block whitespace fraction")
		alpha      = flag.Float64("alpha", 0.2, "LAC weight-adaptation coefficient (0 freezes tile weights)")
		nmax       = flag.Int("nmax", 5, "LAC no-improvement limit")
		slack      = flag.Float64("slack", 0.2, "Tclk slack between Tmin and Tinit")
		tclk       = flag.Float64("tclk", 0, "explicit target clock period (ns); overrides slack")
		seed       = flag.Int64("seed", 1, "random seed (0 = the circuit's catalog seed)")
		iterations = flag.Int("iterations", 1, "planning iterations (floorplan expansion between)")
		tilemap    = flag.Bool("tilemap", false, "print the tile map (Figure 2)")
		verbose    = flag.Bool("v", false, "print the stage trace (wall time + counters) and per-round LAC telemetry")
		trace      = flag.Bool("trace", false, "stream one line per pipeline stage as it completes (wall time + counters)")
		sharing    = flag.Bool("sharing", false, "also run fanout-sharing-aware min-area retiming (extension)")
		checkFlag  = flag.Bool("check", false, "verify every reported number by independent recomputation")
		critical   = flag.Bool("critical", false, "print the critical path of the LAC-retimed design")
		svgPath    = flag.String("svg", "", "write an SVG rendering of the plan to this file")
		budget     = flag.Duration("budget", 0, "wall-clock budget per planning pass (e.g. 30s); anytime stages degrade to best-so-far at the deadline (0 = unbounded)")
		reportOut  = flag.String("report", "", "write a versioned JSON run report (stages, sub-stage spans, metrics) to this file")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event file (load in chrome://tracing or Perfetto) to this file")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof and live Prometheus /metrics on this address (e.g. localhost:8077)")
		checkRep   = flag.String("check-report", "", "validate a previously written run report (schema version + structure) and exit")
	)
	flag.Parse()

	if *checkRep != "" {
		data, err := os.ReadFile(*checkRep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lacplan:", err)
			os.Exit(1)
		}
		rep, err := obs.DecodeReport(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lacplan: report invalid:", err)
			os.Exit(1)
		}
		fmt.Printf("report ok: schema %d, tool %s, circuit %s, %d passes\n",
			rep.Schema, rep.Tool, rep.Circuit, len(rep.Passes))
		return
	}

	// SIGINT/SIGTERM cancel the context: running stages stop at their next
	// checkpoint and every finished iteration is still reported below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The flags resolve into the same canonical request the daemon serves,
	// so lacplan, table1, and lacretd share one flag→Config code path.
	src, err := runcfg.Source(*benchPath, *circuit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lacplan:", err)
		os.Exit(1)
	}
	req := runcfg.Params{
		Blocks: *blocks, Whitespace: *ws,
		Alpha: *alpha, AlphaSet: true, // an explicit -alpha 0 freezes the weights
		Nmax: *nmax, TclkSlack: *slack, Tclk: *tclk, Seed: *seed,
		Iterations: *iterations, Budget: *budget,
	}.Request(src)
	req.Normalize()
	if err := req.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "lacplan:", err)
		os.Exit(1)
	}
	nl, err := req.Source.Netlist()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lacplan:", err)
		os.Exit(1)
	}

	// Any observability sink engages the recorder; without one, the
	// instrumented code paths stay nil no-ops end to end.
	o, err := runcfg.StartObs(*debugAddr, *reportOut, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lacplan:", err)
		os.Exit(1)
	}
	defer o.Close()
	if o.Enabled() {
		ctx = obs.NewContext(ctx, o.Recorder)
	}
	if o.Debug != nil {
		fmt.Fprintf(os.Stderr, "debug listener on http://%s/debug/\n", o.Debug.Addr())
	}

	cfg := req.PlanConfig()
	if *trace {
		cfg.Trace = func(ev plan.StageEvent) { fmt.Printf("stage %s\n", ev) }
	}
	iters, err := plan.PlanIterationsContext(ctx, nl, cfg, req.Config.Iterations)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lacplan:", err)
		os.Exit(1)
	}
	failed := false
	for i, it := range iters {
		fmt.Printf("=== planning iteration %d ===\n", i+1)
		if it.Err != nil {
			failed = true
			fmt.Printf("failed: %v\n", it.Err)
			reportPartial(it.Result)
			continue
		}
		report(it.Result, *tilemap, *verbose)
		if *critical {
			rep, err := sta.Analyze(it.Result.LAC.Retimed, it.Result.Tclk)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lacplan: sta:", err)
				os.Exit(1)
			}
			fmt.Printf("critical path (slack %.3f ns):\n%s", rep.WNS, sta.FormatPath(it.Result.LAC.Retimed, rep))
		}
		if *checkFlag {
			out, err := check.Verify(it.Result)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lacplan: verification FAILED:", err)
				os.Exit(1)
			}
			for _, c := range out.Checks {
				fmt.Println("check:", c)
			}
		}
		if *svgPath != "" {
			svg := render.SVG(it.Result, render.DefaultOptions())
			if err := os.WriteFile(*svgPath, []byte(svg), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "lacplan: svg:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *svgPath)
		}
		if *sharing {
			shared, err := it.Result.Graph.MinAreaShared(it.Result.Tclk)
			if err != nil {
				fmt.Printf("sharing model: %v\n", err)
				continue
			}
			fmt.Printf("sharing model (extension): %d shared registers vs %d edge-model (same labeling counts %d edge registers)\n",
				shared.SharedRegisters, it.Result.MinArea.NF, shared.EdgeRegisters)
		}
	}
	if o.Enabled() {
		if err := writeSinks(o.Recorder, nl.Name, *reportOut, *traceOut, iters, req.Config.Map()); err != nil {
			fmt.Fprintln(os.Stderr, "lacplan:", err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeSinks emits the run report and/or Chrome trace after the planning
// iterations finish — failed passes included, since a report of where a run
// died is the point of having one.
func writeSinks(rec *obs.Recorder, circuit, reportOut, traceOut string, iters []plan.Iteration, cfgMap map[string]float64) error {
	if reportOut != "" {
		rep := &obs.Report{
			Tool:    "lacplan",
			Circuit: circuit,
			Config:  cfgMap,
			Passes:  plan.PassReports(iters),
			Metrics: rec.Registry().Snapshot(),
		}
		if err := runcfg.WriteReport(reportOut, rep); err != nil {
			return err
		}
		fmt.Printf("wrote report %s\n", reportOut)
	}
	if traceOut != "" {
		if err := runcfg.WriteTrace(traceOut, []obs.TraceTrack{{Name: circuit, Spans: rec.Roots()}}); err != nil {
			return err
		}
		fmt.Printf("wrote trace %s (load in chrome://tracing)\n", traceOut)
	}
	return nil
}

// reportPartial prints the best-so-far state of an aborted planning pass:
// the stage trace up to the failure and whatever headline numbers the
// completed prefix produced. res may be nil (the pass failed before any
// stage ran).
func reportPartial(res *plan.Result) {
	if res == nil {
		return
	}
	fmt.Println("best-so-far (completed stages):")
	for _, ev := range res.Trace {
		fmt.Printf("  stage %s\n", ev)
	}
	if res.RouteWirelength > 0 {
		fmt.Printf("  routing: %.0f um wirelength, %d inter-block nets, overflow %d\n",
			res.RouteWirelength, res.InterBlockNets, res.RouteOverflow)
	}
	if res.Tclk > 0 {
		fmt.Printf("  periods: Tinit=%.3f ns  Tmin=%.3f ns  Tclk=%.3f ns\n", res.Tinit, res.Tmin, res.Tclk)
	}
	if res.Probe.Probes > 0 {
		fmt.Printf("  period probes: %s\n", formatProbe(res.Probe))
	}
	if res.MinArea != nil {
		fmt.Printf("  min-area retiming: N_FOA=%d  N_F=%d\n", res.MinArea.NFOA, res.MinArea.NF)
	}
	if res.LAC != nil {
		fmt.Printf("  LAC-retiming:      N_FOA=%d  N_F=%d  N_wr=%d\n", res.LAC.NFOA, res.LAC.NF, res.LAC.NWR)
	}
}

// formatProbe renders the period search's probe counters. Pool arcs are
// scanned across all probes, so the scan count can exceed the pool size.
func formatProbe(p retime.ProbeStats) string {
	return fmt.Sprintf("%d (%d warm, %d witness-rejected, %d bound-rejected)  pairs scanned: %d  pool: %d cuts in %d rounds",
		p.Probes, p.Warm, p.WitnessRejects, p.BoundRejects, p.PairsScanned, p.Cuts, p.CutRounds)
}

// formatPool renders the cut pool at Tclk: the cuts its probe found, and
// those the min-area and LAC solves added.
func formatPool(pool *retime.CutPool) string {
	ps, gs := pool.ProbeStats(), pool.Stats()
	return fmt.Sprintf("%d cuts in %d rounds at Tclk, +%d cuts from %d timed labelings",
		ps.Cuts, ps.CutRounds, gs.Cuts, gs.Rounds)
}

func report(res *plan.Result, tilemap, verbose bool) {
	s := res.Stats
	fmt.Printf("circuit %s: %d gates, %d FFs, %d inputs, %d outputs\n",
		res.Name, s.Gates, s.DFFs, s.Inputs, s.Outputs)
	fmt.Printf("blocks: %d   chip: %.0f x %.0f um   grid: %dx%d tiles\n",
		res.NumBlocks, res.Placement.ChipW, res.Placement.ChipH, res.Grid.Rows, res.Grid.Cols)
	fmt.Printf("routing: %.0f um wirelength, %d inter-block nets, overflow %d\n",
		res.RouteWirelength, res.InterBlockNets, res.RouteOverflow)
	fmt.Printf("repeaters: %d inserted, %d interconnect units\n", res.RepeaterCount, res.WireUnits)
	fmt.Printf("periods: Tinit=%.3f ns  Tmin=%.3f ns  Tclk=%.3f ns\n", res.Tinit, res.Tmin, res.Tclk)
	if res.Probe.Probes > 0 {
		fmt.Printf("period probes: %s\n", formatProbe(res.Probe))
	}
	if res.Problem != nil && res.Problem.Pool != nil {
		fmt.Printf("constraint pool: %s\n", formatPool(res.Problem.Pool))
	}
	if res.TminLo > 0 {
		fmt.Printf("period search truncated at budget: true Tmin in (%.3f, %.3f] ns (bracket width %.3f ns)\n",
			res.TminLo, res.Tmin, res.Tmin-res.TminLo)
	}
	if ts := res.TruncatedStages(); len(ts) > 0 {
		fmt.Printf("budget-degraded stages: %s\n", strings.Join(ts, ", "))
	}
	fmt.Printf("min-area retiming: N_FOA=%d  N_F=%d  N_FN=%d  (%.2fs)\n",
		res.MinArea.NFOA, res.MinArea.NF, res.MinAreaNFN, res.StageWall("minarea").Seconds())
	fmt.Printf("LAC-retiming:      N_FOA=%d  N_F=%d  N_FN=%d  N_wr=%d  (%.2fs)\n",
		res.LAC.NFOA, res.LAC.NF, res.LACNFN, res.LAC.NWR, res.StageWall("lac").Seconds())
	if res.MinArea.NFOA > 0 {
		fmt.Printf("N_FOA decrease: %.0f%%\n", res.DecreasePct())
	}
	if verbose {
		for i, it := range res.LAC.Iters {
			fmt.Printf("  round %d: N_FOA=%d registers=%d worst AC/C=%.2f  %.3fms\n",
				i+1, it.NFOA, it.Registers, it.MaxRatio, float64(it.Duration.Microseconds())/1000)
		}
		fmt.Println("stage timings:")
		for _, ev := range res.Trace {
			fmt.Printf("  %s\n", ev)
		}
	}
	if tilemap {
		fmt.Println("tile map ('.' free, letters = soft blocks, '#' hard):")
		fmt.Print(res.Grid.Render())
	}
}
