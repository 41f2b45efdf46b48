// Package experiments regenerates the paper's evaluation: Table 1 (plain
// minimum-area retiming vs LAC-retiming across the benchmark suite, with a
// second planning iteration after floorplan expansion for violating
// circuits) and the supporting observations (fraction of flip-flops in
// interconnects, number of weighted retimings, runtimes), plus an alpha
// ablation for the weight-adaptation coefficient.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"lacret/internal/bench89"
	"lacret/internal/core"
	"lacret/internal/obs"
	"lacret/internal/plan"
)

// DefaultConfig returns the planning configuration used for Table 1: the
// paper's alpha = 0.2 and Tclk slack 0.2, with block whitespace sized so
// that register relocation creates local-area tension (blocks are sized
// from the original netlist, per the paper's §5 discussion).
func DefaultConfig() plan.Config {
	return plan.Config{
		Whitespace: 0.13,
		TclkSlack:  0.2,
		LAC:        core.Options{Alpha: 0.2, Nmax: 5, MaxIters: 20},
	}
}

// CatalogNames lists every benchmark circuit name in catalog order,
// including scale-tier stress circuits (s100k) that are not part of the
// paper's Table 1.
func CatalogNames() []string {
	var names []string
	for _, p := range bench89.Catalog() {
		names = append(names, p.Name)
	}
	return names
}

// Table1Names lists the paper's ten Table 1 circuits in catalog order.
func Table1Names() []string {
	return bench89.Table1Names()
}

// Side holds one retiming mode's Table 1 columns.
type Side struct {
	NFOA  int
	NF    int
	NFN   int
	NWR   int
	Texec time.Duration
}

// Row is one Table 1 line.
type Row struct {
	Circuit string
	TclkNS  float64
	TinitNS float64
	TminNS  float64
	MinArea Side
	LAC     Side
	// NFOA2 is the LAC violation count after the second planning
	// iteration; -1 when no second iteration was needed.
	NFOA2 int
	// SecondIterErr records a failed second iteration (the paper's s1269
	// case: the carried-over Tclk becomes infeasible after expansion).
	SecondIterErr string
	// Pass1DecreasePct is the N_FOA decrease from min-area to LAC within
	// the first planning pass, the paper's one-pass figure ("by 84% on
	// average in one planning pass"); -1 when min-area had no violations.
	Pass1DecreasePct float64
	// DecreasePct is the Table 1 "N_FOA Decr." column, computed from the
	// final LAC violation count (NFOA2 when the second planning iteration
	// ran, the first-pass count otherwise); NaN-free: -1 when min-area had
	// no violations (printed as N/A).
	DecreasePct float64
	// Trace concatenates the stage events of every planning pass this row
	// ran (the second pass's reused partition appears as a Skipped event).
	Trace []plan.StageEvent
	// Err is set by the parallel driver when planning this circuit failed
	// or panicked; Trace still describes the stages that completed before
	// the failure, but the table columns are meaningless.
	Err string
}

// blankRow is the row of a circuit with no results yet: no second
// pass, both decreases N/A.
func blankRow(name string) Row {
	return Row{Circuit: name, NFOA2: -1, Pass1DecreasePct: -1, DecreasePct: -1}
}

// SetDecreases fills Pass1DecreasePct and DecreasePct from the row's
// N_FOA columns: min-area against the first pass's LAC count, and
// against the final one (NFOA2 when the second planning iteration ran).
// Both are -1 when min-area had no violations.
func (r *Row) SetDecreases() {
	r.Pass1DecreasePct, r.DecreasePct = -1, -1
	if r.MinArea.NFOA <= 0 {
		return
	}
	finalNFOA := r.LAC.NFOA
	if r.NFOA2 >= 0 {
		finalNFOA = r.NFOA2
	}
	r.Pass1DecreasePct = 100 * float64(r.MinArea.NFOA-r.LAC.NFOA) / float64(r.MinArea.NFOA)
	r.DecreasePct = 100 * float64(r.MinArea.NFOA-finalNFOA) / float64(r.MinArea.NFOA)
}

// TruncatedCount returns the number of stage events across this row's
// planning passes that degraded at their budget deadline.
func (r *Row) TruncatedCount() int {
	n := 0
	for _, ev := range r.Trace {
		if ev.Truncated {
			n++
		}
	}
	return n
}

// RecoveredCount returns the number of stage events across this row's
// planning passes whose failure was a panic converted to a StageError.
func (r *Row) RecoveredCount() int {
	n := 0
	for _, ev := range r.Trace {
		if ev.Recovered {
			n++
		}
	}
	return n
}

// Passes splits the row's concatenated trace back into per-pass event
// slices: a new pass starts at every event with stage index 0 (each pass's
// events carry their position in that pass's stage list).
func (r *Row) Passes() [][]plan.StageEvent {
	var passes [][]plan.StageEvent
	for _, ev := range r.Trace {
		if ev.Index == 0 || len(passes) == 0 {
			passes = append(passes, nil)
		}
		passes[len(passes)-1] = append(passes[len(passes)-1], ev)
	}
	return passes
}

// RowReport converts one row into the run report's pass records, attaching
// the row's error to its failing pass (the first for a driver-level error,
// the second for a failed expansion iteration).
func RowReport(r Row) []obs.PassReport {
	var out []obs.PassReport
	for i, tr := range r.Passes() {
		out = append(out, obs.PassReport{Index: i, Stages: plan.StageReports(tr)})
	}
	if r.Err != "" {
		if len(out) == 0 {
			out = append(out, obs.PassReport{Index: 0})
		}
		out[len(out)-1].Err = r.Err
	}
	if r.SecondIterErr != "" {
		if len(out) < 2 {
			out = append(out, obs.PassReport{Index: len(out)})
		}
		out[len(out)-1].Err = r.SecondIterErr
	}
	return out
}

// Table1Row plans one circuit (by catalog name) and fills its row,
// running the second planning iteration when violations remain. The second
// pass goes through plan.PlanIterations, so it reuses the first pass's
// partition and re-enters the pipeline at the floorplan stage.
func Table1Row(name string, cfg plan.Config) (*Row, error) {
	return Table1RowContext(context.Background(), name, cfg)
}

// Table1RowContext is Table1Row under a context: cancellation stops the
// planning passes at their next stage boundary (cfg.Budget still governs
// the soft per-pass degradation). A budget-truncated pass completes and
// fills the row normally; its degraded stages are visible on Row.Trace.
func Table1RowContext(ctx context.Context, name string, cfg plan.Config) (*Row, error) {
	p, ok := bench89.ByName(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown circuit %q", name)
	}
	nl, err := bench89.Generate(p)
	if err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = p.Seed
	}
	iters, err := plan.PlanIterationsContext(ctx, nl, cfg, 2)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %v", name, err)
	}
	if iters[0].Err != nil {
		// A failed first pass still returns its partial row: the trace of
		// the stages that did complete is what a summary needs to show where
		// the pass died.
		row := blankRow(name)
		if res := iters[0].Result; res != nil {
			row.Trace = append([]plan.StageEvent(nil), res.Trace...)
		}
		return &row, fmt.Errorf("experiments: %s: %v", name, iters[0].Err)
	}
	res := iters[0].Result
	row := &Row{
		Circuit: name,
		TclkNS:  res.Tclk, TinitNS: res.Tinit, TminNS: res.Tmin,
		MinArea: Side{
			NFOA: res.MinArea.NFOA, NF: res.MinArea.NF,
			NFN: res.MinAreaNFN, NWR: res.MinArea.NWR, Texec: res.StageWall("minarea"),
		},
		LAC: Side{
			NFOA: res.LAC.NFOA, NF: res.LAC.NF,
			NFN: res.LACNFN, NWR: res.LAC.NWR, Texec: res.StageWall("lac"),
		},
		NFOA2: -1,
		Trace: append([]plan.StageEvent(nil), res.Trace...),
	}
	if len(iters) > 1 {
		// Second planning iteration after floorplan expansion, keeping
		// the same target period.
		if second := iters[1]; second.Err != nil {
			row.SecondIterErr = second.Err.Error()
			if second.Result != nil {
				row.Trace = append(row.Trace, second.Result.Trace...)
			}
		} else {
			row.NFOA2 = second.Result.LAC.NFOA
			row.Trace = append(row.Trace, second.Result.Trace...)
		}
	}
	row.SetDecreases()
	return row, nil
}

// Table1Opts tunes the Table 1 driver.
type Table1Opts struct {
	// Jobs is the number of circuits planned concurrently: 0 selects
	// GOMAXPROCS, 1 forces the sequential driver. Workers never exceed
	// the circuit count.
	Jobs int
	// Progress, when non-nil, is called once per circuit as its row
	// completes — possibly concurrently and out of catalog order, so the
	// callback must be safe for concurrent use.
	Progress func(Row)
	// Obs, when non-nil, collects the run's observability data: each
	// circuit becomes one root span (named after it) under which the
	// planning passes hang, and metrics from all workers land in the
	// recorder's shared registry. The single shared epoch is what lets a
	// Chrome trace render the worker pool as one timeline.
	Obs *obs.Recorder
}

// Table1Run plans the given circuits (default: the ten Table 1 circuits;
// scale-tier entries like s100k must be requested by name) on a
// worker pool and returns the rows in input order plus the average
// pass-1 N_FOA decrease over rows where min-area retiming had violations
// (the paper's 84% headline; see Averages). Each circuit's seed derives
// only from the catalog and the caller's config — never from worker
// scheduling — so the rows are identical to a sequential run. A panic
// while planning one circuit is recovered by its worker and reported in
// that circuit's Row.Err instead of killing the run; errored rows are
// excluded from the average.
func Table1Run(cfg plan.Config, circuits []string, opts Table1Opts) ([]Row, float64) {
	return Table1RunContext(context.Background(), cfg, circuits, opts)
}

// Table1RunContext is Table1Run under a context: circuits not yet handed to
// a worker when it fires are marked with the context's error instead of
// being planned, and in-flight circuits stop at their next stage boundary.
// Completed rows are always kept, so an interrupted run still reports
// everything it finished.
func Table1RunContext(ctx context.Context, cfg plan.Config, circuits []string, opts Table1Opts) ([]Row, float64) {
	if len(circuits) == 0 {
		circuits = Table1Names()
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(circuits) {
		jobs = len(circuits)
	}
	rows := make([]Row, len(circuits))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				rows[i] = planRow(ctx, circuits[i], cfg, opts.Obs)
				if opts.Progress != nil {
					opts.Progress(rows[i])
				}
			}
		}()
	}
	fed := len(circuits)
	for i := range circuits {
		// ctx.Done() is nil on an uncancelable context, so this select
		// degenerates to the plain send and the run stays deterministic.
		select {
		case idx <- i:
		case <-ctx.Done():
			fed = i
		}
		if fed < len(circuits) {
			break
		}
	}
	close(idx)
	wg.Wait()
	for i := fed; i < len(circuits); i++ {
		if rows[i].Circuit == "" {
			rows[i] = blankRow(circuits[i])
			rows[i].Err = "not planned: " + ctx.Err().Error()
		}
	}
	pass1, _ := Averages(rows)
	return rows, pass1
}

// table1Row is an indirection over Table1RowContext so tests can exercise
// the driver's panic isolation without a crashing circuit in the catalog.
var table1Row = Table1RowContext

// planRow runs Table1RowContext with panic isolation: a crash while planning
// one circuit becomes that circuit's row error. With a recorder, the whole
// circuit runs under one root span named after it.
func planRow(ctx context.Context, name string, cfg plan.Config, rec *obs.Recorder) (row Row) {
	defer func() {
		if r := recover(); r != nil {
			row = blankRow(name)
			row.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	if rec != nil {
		cctx, sp := obs.StartSpan(obs.NewContext(ctx, rec), name)
		defer sp.End()
		ctx = cctx
	}
	p, err := table1Row(ctx, name, cfg)
	if err != nil {
		row := blankRow(name)
		row.Err = err.Error()
		if p != nil {
			row.Trace = p.Trace
		}
		return row
	}
	return *p
}

// Averages returns the mean Pass1DecreasePct and the mean DecreasePct
// over rows where min-area retiming had violations; errored and N/A rows
// are skipped. The pass-1 mean is Table 1's headline, the paper's
// one-pass figure; the other is the decrease after floorplan expansion.
func Averages(rows []Row) (pass1, final float64) {
	var n int
	for _, r := range rows {
		if r.Err == "" && r.DecreasePct >= 0 {
			pass1 += r.Pass1DecreasePct
			final += r.DecreasePct
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return pass1 / float64(n), final / float64(n)
}

// Table1 is the sequential driver: it runs the full benchmark suite (or the
// given subset) one circuit at a time and fails on the first planning
// error. Use Table1Run for concurrency and per-row error isolation.
func Table1(cfg plan.Config, circuits []string) ([]Row, float64, error) {
	rows, avg := Table1Run(cfg, circuits, Table1Opts{Jobs: 1})
	for _, r := range rows {
		if r.Err != "" {
			return nil, 0, fmt.Errorf("experiments: %s: %s", r.Circuit, r.Err)
		}
	}
	return rows, avg, nil
}

// FormatTable renders rows in the paper's Table 1 layout, closing with
// the average pass-1 decrease and, beside it, the after-expansion one
// (Averages).
func FormatTable(rows []Row) string {
	pass1, final := Averages(rows)
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %7s %7s | %6s %5s %5s %8s | %12s %5s %5s %4s %8s | %7s\n",
		"circuit", "Tclk", "Tinit",
		"N_FOA", "N_F", "N_FN", "Texec",
		"N_FOA(2nd)", "N_F", "N_FN", "N_wr", "Texec", "Decr.")
	fmt.Fprintf(&b, "%-8s %7s %7s | %28s | %39s |\n",
		"", "(ns)", "(ns)", "-------- Min-Area Retiming --", "------------- LAC-Retiming ----------")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-8s ERROR: %s\n", r.Circuit, r.Err)
			continue
		}
		nfoa2 := ""
		switch {
		case r.SecondIterErr != "":
			nfoa2 = fmt.Sprintf("%d (inf.)", r.LAC.NFOA)
		case r.NFOA2 >= 0:
			nfoa2 = fmt.Sprintf("%d (%d)", r.LAC.NFOA, r.NFOA2)
		default:
			nfoa2 = fmt.Sprintf("%d", r.LAC.NFOA)
		}
		decr := "N/A"
		if r.DecreasePct >= 0 {
			decr = fmt.Sprintf("%.0f%%", r.DecreasePct)
		}
		fmt.Fprintf(&b, "%-8s %7.2f %7.2f | %6d %5d %5d %8s | %12s %5d %5d %4d %8s | %7s\n",
			r.Circuit, r.TclkNS, r.TinitNS,
			r.MinArea.NFOA, r.MinArea.NF, r.MinArea.NFN, fmtDur(r.MinArea.Texec),
			nfoa2, r.LAC.NF, r.LAC.NFN, r.LAC.NWR, fmtDur(r.LAC.Texec), decr)
	}
	fmt.Fprintf(&b, "%-8s %*s Average %.0f%% in one pass (%.0f%% after expansion)\n", "", 75, "", pass1, final)
	return b.String()
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// FormatMarkdown renders rows as a Markdown table (for EXPERIMENTS.md),
// closing with the averages as FormatTable does.
func FormatMarkdown(rows []Row) string {
	pass1, final := Averages(rows)
	var b strings.Builder
	b.WriteString("| circuit | Tclk (ns) | Tinit (ns) | MA N_FOA | MA N_F | MA N_FN | MA Texec | LAC N_FOA (2nd) | LAC N_F | LAC N_FN | N_wr | LAC Texec | Decr. |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "| %s | error: %s | | | | | | | | | | | |\n", r.Circuit, r.Err)
			continue
		}
		nfoa2 := fmt.Sprintf("%d", r.LAC.NFOA)
		switch {
		case r.SecondIterErr != "":
			nfoa2 = fmt.Sprintf("%d (infeasible)", r.LAC.NFOA)
		case r.NFOA2 >= 0:
			nfoa2 = fmt.Sprintf("%d (%d)", r.LAC.NFOA, r.NFOA2)
		}
		decr := "N/A"
		if r.DecreasePct >= 0 {
			decr = fmt.Sprintf("%.0f%%", r.DecreasePct)
		}
		fmt.Fprintf(&b, "| %s | %.2f | %.2f | %d | %d | %d | %s | %s | %d | %d | %d | %s | %s |\n",
			r.Circuit, r.TclkNS, r.TinitNS,
			r.MinArea.NFOA, r.MinArea.NF, r.MinArea.NFN, fmtDur(r.MinArea.Texec),
			nfoa2, r.LAC.NF, r.LAC.NFN, r.LAC.NWR, fmtDur(r.LAC.Texec), decr)
	}
	fmt.Fprintf(&b, "\n**Average N_FOA decrease: %.0f%% in one planning pass** (%.0f%% after floorplan expansion; over circuits where min-area retiming violates)\n", pass1, final)
	return b.String()
}

// FormatTraceSummary aggregates the stage events of all rows — across every
// planning pass of every circuit the worker pool ran — into one per-stage
// table: runs, reuse skips, budget truncations, panic recoveries, total and
// worst wall time. Stages appear in first-execution order. Errored rows
// contribute the stages that completed before their failure — exactly the
// rows whose trace matters most. When the events carry sub-stage spans (a
// recorder was installed), a second table rolls them up by path
// ("periods/probe", "lac/lac-round/mcmf-solve", ...).
func FormatTraceSummary(rows []Row) string {
	type agg struct {
		runs, skipped, truncated, recovered int
		total, max                          time.Duration
	}
	var order []string
	stages := map[string]*agg{}
	var subOrder []string
	type sagg struct {
		count      int
		total, max time.Duration
	}
	subs := map[string]*sagg{}
	var walk func(prefix string, spans []*obs.Span)
	walk = func(prefix string, spans []*obs.Span) {
		for _, sp := range spans {
			key := prefix + "/" + sp.Name
			a, ok := subs[key]
			if !ok {
				a = &sagg{}
				subs[key] = a
				subOrder = append(subOrder, key)
			}
			a.count++
			a.total += sp.Dur
			if sp.Dur > a.max {
				a.max = sp.Dur
			}
			walk(key, sp.Children)
		}
	}
	for _, r := range rows {
		for _, ev := range r.Trace {
			a, ok := stages[ev.Stage]
			if !ok {
				a = &agg{}
				stages[ev.Stage] = a
				order = append(order, ev.Stage)
			}
			if ev.Truncated {
				a.truncated++
			}
			if ev.Recovered {
				a.recovered++
			}
			walk(ev.Stage, ev.Sub)
			if ev.Skipped {
				a.skipped++
				continue
			}
			a.runs++
			a.total += ev.Wall
			if ev.Wall > a.max {
				a.max = ev.Wall
			}
		}
	}
	if len(order) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %6s %7s %6s %6s %12s %12s\n",
		"stage", "runs", "reused", "trunc", "recov", "total", "worst")
	for _, name := range order {
		a := stages[name]
		fmt.Fprintf(&b, "%-11s %6d %7d %6d %6d %10.3fms %10.3fms\n",
			name, a.runs, a.skipped, a.truncated, a.recovered,
			float64(a.total.Microseconds())/1000, float64(a.max.Microseconds())/1000)
	}
	if len(subOrder) > 0 {
		fmt.Fprintf(&b, "\n%-35s %8s %12s %12s\n", "sub-stage", "count", "total", "worst")
		for _, key := range subOrder {
			a := subs[key]
			fmt.Fprintf(&b, "%-35s %8d %10.3fms %10.3fms\n",
				key, a.count,
				float64(a.total.Microseconds())/1000, float64(a.max.Microseconds())/1000)
		}
	}
	return b.String()
}

// AlphaPoint is one ablation sample.
type AlphaPoint struct {
	Alpha float64
	NFOA  int
	NWR   int
}

// AlphaSweep reruns LAC-retiming on one planned circuit across alpha
// values, reusing the planning result (weights reset each run). It
// reproduces the paper's observation that alpha around 0.2 works best.
func AlphaSweep(name string, cfg plan.Config, alphas []float64) ([]AlphaPoint, error) {
	p, ok := bench89.ByName(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown circuit %q", name)
	}
	nl, err := bench89.Generate(p)
	if err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = p.Seed
	}
	res, err := plan.Plan(nl, cfg)
	if err != nil {
		return nil, err
	}
	var pts []AlphaPoint
	for _, a := range alphas {
		opt := cfg.LAC
		opt.Alpha = a
		opt.AlphaSet = true // a == 0 is a legitimate sweep point, not "default"
		lac, err := res.Problem.Solve(opt)
		if err != nil {
			return nil, err
		}
		pts = append(pts, AlphaPoint{Alpha: a, NFOA: lac.NFOA, NWR: lac.NWR})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Alpha < pts[j].Alpha })
	return pts, nil
}
