// Command table1 regenerates Table 1 of the paper: per circuit, the target
// and initial clock periods, and the violation / flip-flop / runtime
// columns of plain minimum-area retiming versus LAC-retiming, including
// the parenthesized second-planning-iteration violation counts and the
// average N_FOA decrease.
//
// Circuits are planned in parallel (-j workers); a crash while planning one
// circuit is isolated to that circuit's row.
//
// Usage:
//
//	table1 [-circuits s386,s400,...] [-ws 0.13] [-alpha 0.2] [-nmax 5] [-slack 0.2] [-j 4] [-v]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"lacret/internal/experiments"
	"lacret/internal/obs"
	"lacret/internal/runcfg"
)

func main() {
	var (
		circuits  = flag.String("circuits", "", "comma-separated circuit subset (default: the ten Table 1 circuits; scale tiers like s100k by name only)")
		ws        = flag.Float64("ws", 0, "block whitespace fraction (default 0.13)")
		alpha     = flag.Float64("alpha", -1, "LAC weight-adaptation coefficient in [0,1] (default 0.2; 0 freezes tile weights)")
		nmax      = flag.Int("nmax", 0, "LAC no-improvement limit (default 5)")
		maxIters  = flag.Int("maxiters", 0, "LAC hard iteration cap (default 20)")
		slack     = flag.Float64("slack", 0, "Tclk slack between Tmin and Tinit (default 0.2)")
		seed      = flag.Int64("seed", 0, "base seed (default: per-circuit catalog seed)")
		md        = flag.Bool("md", false, "emit a Markdown table (for EXPERIMENTS.md)")
		jobs      = flag.Int("j", 0, "parallel planning workers (default GOMAXPROCS, 1 = sequential)")
		verbose   = flag.Bool("v", false, "print per-stage trace events per circuit and an aggregate stage summary")
		budget    = flag.Duration("budget", 0, "wall-clock budget per planning pass (e.g. 30s); anytime stages degrade to best-so-far at the deadline (0 = unbounded)")
		reportDir = flag.String("report", "", "write one versioned JSON run report per circuit into this directory")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event file of the worker-pool timeline to this file")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof and live Prometheus /metrics on this address (e.g. localhost:8077)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the context: in-flight circuits stop at their
	// next stage boundary, unstarted ones are marked, and the table of
	// everything finished so far is still printed.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// The flags resolve through the same canonical request configuration as
	// lacplan and lacretd. Table 1's own defaults beyond the shared ones:
	// the LAC solve is capped at 20 rounds, and a zero seed selects each
	// circuit's catalog seed (resolved per circuit by the driver).
	mi := *maxIters
	if mi <= 0 {
		mi = 20
	}
	reqCfg := runcfg.Params{
		Whitespace: *ws,
		Alpha:      *alpha,
		AlphaSet:   *alpha >= 0, // -alpha 0 means literal zero, not "default"
		Nmax:       *nmax,
		MaxIters:   mi,
		TclkSlack:  *slack,
		Seed:       *seed,
		Budget:     *budget,
	}.Config()
	reqCfg.Normalize()
	if err := reqCfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}
	cfg := reqCfg.PlanConfig()

	var names []string
	if *circuits != "" {
		for _, n := range strings.Split(*circuits, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	if len(names) == 0 {
		names = append(names, experiments.Table1Names()...)
	}
	o, err := runcfg.StartObs(*debugAddr, *reportDir, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}
	defer o.Close()
	if o.Debug != nil {
		fmt.Fprintf(os.Stderr, "debug listener on http://%s/debug/\n", o.Debug.Addr())
	}

	// Progress streams as rows complete (large circuits take minutes);
	// completion order depends on scheduling, the table itself does not.
	var mu sync.Mutex
	progress := func(row experiments.Row) {
		mu.Lock()
		defer mu.Unlock()
		if row.Err != "" {
			fmt.Fprintf(os.Stderr, "done %-8s FAILED: %s\n", row.Circuit, row.Err)
			if *verbose {
				for _, ev := range row.Trace {
					fmt.Fprintf(os.Stderr, "  %s\n", ev)
				}
			}
			return
		}
		flags := ""
		if n := row.TruncatedCount(); n > 0 {
			flags += fmt.Sprintf(" degraded=%d", n)
		}
		if n := row.RecoveredCount(); n > 0 {
			flags += fmt.Sprintf(" recovered=%d", n)
		}
		fmt.Fprintf(os.Stderr, "done %-8s minarea N_FOA=%-5d lac N_FOA=%-5d (N_wr=%d)%s\n",
			row.Circuit, row.MinArea.NFOA, row.LAC.NFOA, row.LAC.NWR, flags)
		if *verbose {
			for _, ev := range row.Trace {
				fmt.Fprintf(os.Stderr, "  %s\n", ev)
			}
		}
	}
	rows, _ := experiments.Table1RunContext(ctx, cfg, names, experiments.Table1Opts{
		Jobs: *jobs, Progress: progress, Obs: o.Recorder,
	})
	if *md {
		fmt.Print(experiments.FormatMarkdown(rows))
	} else {
		fmt.Print(experiments.FormatTable(rows))
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "stage summary (all passes, all workers):\n%s",
			experiments.FormatTraceSummary(rows))
	}
	if o.Enabled() {
		if err := writeSinks(o.Recorder, rows, *reportDir, *traceOut, reqCfg.Map()); err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
			os.Exit(1)
		}
	}
	for _, row := range rows {
		if row.Err != "" {
			os.Exit(1)
		}
	}
}

// writeSinks emits the per-circuit run reports and/or the worker-pool Chrome
// trace. All circuit root spans share the recorder's epoch, so the trace
// renders the pool as one timeline — each circuit a separate track.
func writeSinks(rec *obs.Recorder, rows []experiments.Row, reportDir, traceOut string, cfgMap map[string]float64) error {
	if reportDir != "" {
		metrics := rec.Registry().Snapshot()
		reps := make(map[string]*obs.Report, len(rows))
		for _, row := range rows {
			reps[row.Circuit] = &obs.Report{
				Tool:    "table1",
				Circuit: row.Circuit,
				Config:  cfgMap,
				Passes:  experiments.RowReport(row),
				Metrics: metrics,
			}
		}
		if err := runcfg.WriteReportDir(reportDir, reps); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d reports to %s\n", len(rows), reportDir)
	}
	if traceOut != "" {
		var tracks []obs.TraceTrack
		for _, root := range rec.Roots() {
			tracks = append(tracks, obs.TraceTrack{Name: root.Name, Spans: []*obs.Span{root}})
		}
		if err := runcfg.WriteTrace(traceOut, tracks); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote trace %s (load in chrome://tracing)\n", traceOut)
	}
	return nil
}
