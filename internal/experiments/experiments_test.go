package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lacret/internal/obs"
	"lacret/internal/plan"
)

func TestCatalogNames(t *testing.T) {
	names := CatalogNames()
	if len(names) != 11 || names[0] != "s386" || names[10] != "s100k" {
		t.Fatalf("names = %v", names)
	}
}

func TestTable1NamesExcludeScaleTier(t *testing.T) {
	names := Table1Names()
	if len(names) != 10 || names[0] != "s386" || names[9] != "s5378" {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		if n == "s100k" {
			t.Fatal("scale tier in Table 1 defaults")
		}
	}
}

func TestTable1RowUnknownCircuit(t *testing.T) {
	if _, err := Table1Row("nosuch", DefaultConfig()); err == nil {
		t.Fatal("unknown circuit accepted")
	}
}

func TestTable1RowSmallCircuit(t *testing.T) {
	if testing.Short() {
		t.Skip("planning run in short mode")
	}
	row, err := Table1Row("s386", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if row.Circuit != "s386" {
		t.Fatalf("row = %+v", row)
	}
	if row.TclkNS <= 0 || row.TinitNS < row.TclkNS {
		t.Fatalf("periods: Tclk=%g Tinit=%g", row.TclkNS, row.TinitNS)
	}
	if row.MinArea.NF <= 0 || row.LAC.NF <= 0 {
		t.Fatalf("flip-flop counts: %+v", row)
	}
	if row.LAC.NFOA > row.MinArea.NFOA {
		t.Fatal("LAC worse than min-area")
	}
	if row.MinArea.NFOA == 0 && row.DecreasePct != -1 {
		t.Fatal("expected N/A decrease when min-area is clean")
	}
}

func TestFormatTable(t *testing.T) {
	rows := []Row{
		{
			Circuit: "sX", TclkNS: 2.5, TinitNS: 5.0,
			MinArea: Side{NFOA: 10, NF: 100, NFN: 20, Texec: time.Second},
			LAC:     Side{NFOA: 2, NF: 102, NFN: 25, NWR: 4, Texec: 2 * time.Second},
			NFOA2:   0, Pass1DecreasePct: 80, DecreasePct: 80,
		},
		{
			Circuit: "sY", TclkNS: 1, TinitNS: 2,
			MinArea:          Side{NFOA: 0, NF: 50, NFN: 5, Texec: time.Second},
			LAC:              Side{NFOA: 0, NF: 50, NFN: 5, NWR: 1, Texec: time.Second},
			NFOA2:            -1,
			Pass1DecreasePct: -1,
			DecreasePct:      -1,
		},
		{
			Circuit: "sZ", TclkNS: 1, TinitNS: 2,
			MinArea:          Side{NFOA: 5, NF: 50, NFN: 5, Texec: time.Second},
			LAC:              Side{NFOA: 3, NF: 50, NFN: 5, NWR: 2, Texec: time.Second},
			NFOA2:            -1,
			SecondIterErr:    "plan: target period 1 infeasible",
			Pass1DecreasePct: 40,
			DecreasePct:      40,
		},
	}
	out := FormatTable(rows)
	for _, want := range []string{"sX", "2 (0)", "N/A", "80%", "(inf.)", "Average 60%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestDecreaseHeadlineIsPassOne: SetDecreases computes the pass-1 and
// after-expansion decreases from a row's N_FOA columns, and both tables
// print the pass-1 average as the headline with the after-expansion
// average beside it.
func TestDecreaseHeadlineIsPassOne(t *testing.T) {
	rows := []Row{
		{Circuit: "sA", MinArea: Side{NFOA: 100}, LAC: Side{NFOA: 50}, NFOA2: 10},                   // 50%, then 90%
		{Circuit: "sB", MinArea: Side{NFOA: 40}, LAC: Side{NFOA: 0}, NFOA2: -1},                     // 100% in one pass
		{Circuit: "sC", MinArea: Side{NFOA: 20}, LAC: Side{NFOA: 8}, NFOA2: -1, SecondIterErr: "x"}, // 60% in one pass
		{Circuit: "sD", MinArea: Side{NFOA: 0}, LAC: Side{NFOA: 0}, NFOA2: -1},                      // N/A
	}
	want := [][2]float64{{50, 90}, {100, 100}, {60, 60}, {-1, -1}}
	for i := range rows {
		rows[i].SetDecreases()
		if got := [2]float64{rows[i].Pass1DecreasePct, rows[i].DecreasePct}; got != want[i] {
			t.Errorf("%s: decreases %v, want %v", rows[i].Circuit, got, want[i])
		}
	}
	pass1, final := Averages(rows)
	if pass1 != 70 || final != 250.0/3 {
		t.Fatalf("averages %g / %g, want 70 / %g", pass1, final, 250.0/3)
	}
	if out := FormatTable(rows); !strings.Contains(out, "Average 70% in one pass (83% after expansion)") {
		t.Errorf("table headline:\n%s", out)
	}
	if out := FormatMarkdown(rows); !strings.Contains(out, "**Average N_FOA decrease: 70% in one planning pass** (83% after floorplan expansion") {
		t.Errorf("markdown headline:\n%s", out)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.LAC.Alpha != 0.2 || cfg.TclkSlack != 0.2 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Whitespace <= 0 || cfg.Whitespace >= 1 {
		t.Fatalf("whitespace %g", cfg.Whitespace)
	}
}

func TestAlphaSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("planning run in short mode")
	}
	pts, err := AlphaSweep("s386", DefaultConfig(), []float64{0.4, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Alpha != 0.1 || pts[1].Alpha != 0.4 {
		t.Fatalf("pts = %+v", pts)
	}
}

func TestAlphaSweepUnknown(t *testing.T) {
	if _, err := AlphaSweep("nosuch", DefaultConfig(), []float64{0.2}); err == nil {
		t.Fatal("unknown circuit accepted")
	}
}

func TestFormatMarkdown(t *testing.T) {
	rows := []Row{{
		Circuit: "sM", TclkNS: 2, TinitNS: 4,
		MinArea:          Side{NFOA: 10, NF: 100, NFN: 20, Texec: time.Second},
		LAC:              Side{NFOA: 0, NF: 100, NFN: 25, NWR: 3, Texec: time.Second},
		NFOA2:            -1,
		Pass1DecreasePct: 100,
		DecreasePct:      100,
	}}
	out := FormatMarkdown(rows)
	for _, want := range []string{"| sM |", "100%", "Average N_FOA decrease: 100%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

// TestSecondIterationDrivesDecrease is the regression test for the
// DecreasePct column: when the second planning iteration runs, the column
// must be computed from the final (post-expansion) violation count NFOA2,
// not from the first-pass LAC count.
func TestSecondIterationDrivesDecrease(t *testing.T) {
	if testing.Short() {
		t.Skip("planning run in short mode")
	}
	cfg := DefaultConfig()
	cfg.Whitespace = 0.06 // starved blocks: forces first-pass violations
	row, err := Table1Row("s386", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.LAC.NFOA == 0 || row.NFOA2 < 0 {
		t.Fatalf("config no longer triggers the second iteration: %+v", row)
	}
	want := 100 * float64(row.MinArea.NFOA-row.NFOA2) / float64(row.MinArea.NFOA)
	if row.DecreasePct != want {
		t.Fatalf("DecreasePct=%g, want %g (MinArea=%d, final NFOA2=%d)",
			row.DecreasePct, want, row.MinArea.NFOA, row.NFOA2)
	}
	stale := 100 * float64(row.MinArea.NFOA-row.LAC.NFOA) / float64(row.MinArea.NFOA)
	if row.LAC.NFOA != row.NFOA2 && row.DecreasePct == stale {
		t.Fatal("DecreasePct still computed from the first-pass violation count")
	}
}

// canonicalRow serializes every deterministic field of a row; the wall-time
// fields (Texec, the trace walls) are inherently run-dependent and excluded.
func canonicalRow(r Row) string {
	return fmt.Sprintf("%s|%v|%v|%v|%d %d %d %d|%d %d %d %d|%d|%s|%v %v|%s",
		r.Circuit, r.TclkNS, r.TinitNS, r.TminNS,
		r.MinArea.NFOA, r.MinArea.NF, r.MinArea.NFN, r.MinArea.NWR,
		r.LAC.NFOA, r.LAC.NF, r.LAC.NFN, r.LAC.NWR,
		r.NFOA2, r.SecondIterErr, r.Pass1DecreasePct, r.DecreasePct, r.Err)
}

// TestTable1ParallelMatchesSequential is the determinism contract of the
// worker pool: the parallel driver must produce rows byte-identical to the
// sequential driver on the same seeds, in stable input order.
func TestTable1ParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("planning runs in short mode")
	}
	circuits := []string{"s386", "s400", "s526"}
	cfg := DefaultConfig()
	seq, seqAvg := Table1Run(cfg, circuits, Table1Opts{Jobs: 1})
	par, parAvg := Table1Run(cfg, circuits, Table1Opts{Jobs: 4})
	if seqAvg != parAvg {
		t.Fatalf("averages differ: sequential %g, parallel %g", seqAvg, parAvg)
	}
	for i := range seq {
		a, b := canonicalRow(seq[i]), canonicalRow(par[i])
		if a != b {
			t.Fatalf("row %d differs:\nseq: %s\npar: %s", i, a, b)
		}
	}
}

func TestTable1RunErrorIsolation(t *testing.T) {
	rows, avg := Table1Run(DefaultConfig(), []string{"nosuch1", "nosuch2"}, Table1Opts{Jobs: 2})
	if len(rows) != 2 || avg != 0 {
		t.Fatalf("rows=%d avg=%g", len(rows), avg)
	}
	for i, name := range []string{"nosuch1", "nosuch2"} {
		if rows[i].Circuit != name || rows[i].Err == "" {
			t.Fatalf("row %d = %+v", i, rows[i])
		}
	}
	out := FormatTable(rows)
	if !strings.Contains(out, "ERROR") {
		t.Fatalf("table does not surface row errors:\n%s", out)
	}
}

func TestTable1RunPanicIsolation(t *testing.T) {
	defer func() { table1Row = Table1RowContext }()
	var calls sync.Map
	table1Row = func(ctx context.Context, name string, cfg plan.Config) (*Row, error) {
		calls.Store(name, true)
		if name == "boom" {
			panic("synthetic crash")
		}
		return &Row{Circuit: name, NFOA2: -1, DecreasePct: -1}, nil
	}
	var mu sync.Mutex
	var seen []string
	rows, _ := Table1Run(plan.Config{}, []string{"ok1", "boom", "ok2"}, Table1Opts{
		Jobs: 3,
		Progress: func(r Row) {
			mu.Lock()
			seen = append(seen, r.Circuit)
			mu.Unlock()
		},
	})
	if rows[0].Circuit != "ok1" || rows[1].Circuit != "boom" || rows[2].Circuit != "ok2" {
		t.Fatalf("row order perturbed: %+v", rows)
	}
	if rows[0].Err != "" || rows[2].Err != "" {
		t.Fatalf("healthy rows carry errors: %+v", rows)
	}
	if !strings.Contains(rows[1].Err, "synthetic crash") {
		t.Fatalf("panic not converted to row error: %+v", rows[1])
	}
	if len(seen) != 3 {
		t.Fatalf("progress callback ran %d times, want 3 (%v)", len(seen), seen)
	}
	for _, name := range []string{"ok1", "boom", "ok2"} {
		if _, ok := calls.Load(name); !ok {
			t.Fatalf("circuit %s never planned", name)
		}
	}
}

func TestTable1SingleCircuit(t *testing.T) {
	if testing.Short() {
		t.Skip("planning run in short mode")
	}
	rows, avg, err := Table1(DefaultConfig(), []string{"s386"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Circuit != "s386" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].DecreasePct < 0 && avg != 0 {
		t.Fatalf("avg %g with no violating rows", avg)
	}
	out := FormatTable(rows)
	if !strings.Contains(out, "s386") {
		t.Fatal("table missing circuit")
	}
}

// TestWarmColdEquivalenceSeedCircuits arms the per-round warm/cold gate
// (core.Options.VerifyWarm) on full planning runs of seed circuits: every
// weighted min-area round of the LAC loop must match a from-scratch solve
// in labeling, register count, and weighted area, or planning fails.
func TestWarmColdEquivalenceSeedCircuits(t *testing.T) {
	if testing.Short() {
		t.Skip("planning run in short mode")
	}
	for _, name := range []string{"s386", "s400"} {
		cfg := DefaultConfig()
		cfg.LAC.VerifyWarm = true
		row, err := Table1Row(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if row.Err != "" {
			t.Fatalf("%s: %s", name, row.Err)
		}
	}
}

func TestFormatTraceSummaryAggregation(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	probe := func(d time.Duration) *obs.Span { return &obs.Span{Name: "probe", Dur: d} }
	rows := []Row{
		{
			Circuit: "a",
			Trace: []plan.StageEvent{
				{Stage: "route", Wall: ms(4)},
				{Stage: "periods", Wall: ms(10), Truncated: true,
					Sub: []*obs.Span{probe(ms(2)), probe(ms(6))}},
				{Stage: "lac", Wall: ms(3), Recovered: true,
					Sub: []*obs.Span{{Name: "lac-round", Dur: ms(3),
						Children: []*obs.Span{{Name: "mcmf-solve", Dur: ms(1)}}}}},
			},
		},
		{
			Circuit: "b",
			Trace: []plan.StageEvent{
				{Stage: "route", Wall: ms(7)},
				{Stage: "periods", Skipped: true},
			},
		},
		{
			// Errored rows still contribute their partial trace.
			Circuit: "c", Err: "stage route: boom",
			Trace: []plan.StageEvent{
				{Stage: "route", Wall: ms(1), Recovered: true},
			},
		},
	}
	out := FormatTraceSummary(rows)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	find := func(prefix string) string {
		t.Helper()
		for _, ln := range lines {
			if strings.HasPrefix(ln, prefix+" ") {
				return ln
			}
		}
		t.Fatalf("no %q line in summary:\n%s", prefix, out)
		return ""
	}
	check := func(line string, fields ...string) {
		t.Helper()
		for _, f := range fields {
			if !strings.Contains(line, f) {
				t.Errorf("line %q missing %q", line, f)
			}
		}
	}
	// route: 3 runs across all rows (the errored one included), worst 7ms.
	check(find("route"), " 3 ", "7.000ms")
	// periods: 1 run + 1 reused (skipped), 1 truncated, total = worst = 10ms.
	check(find("periods"), " 1 ", "10.000ms")
	if !strings.Contains(find("periods"), " 1       1      1      0") {
		t.Errorf("periods flags wrong: %q", find("periods"))
	}
	// lac recovered once, route recovered once (errored row).
	check(find("lac"), " 1 ")
	// Sub-stage rollups: path keys, counts, totals, nesting.
	check(find("periods/probe"), " 2 ", "8.000ms", "6.000ms")
	check(find("lac/lac-round"), " 1 ", "3.000ms")
	check(find("lac/lac-round/mcmf-solve"), " 1 ", "1.000ms")
	if !strings.Contains(lines[0], "trunc") || !strings.Contains(lines[0], "recov") {
		t.Fatalf("header missing flag columns: %q", lines[0])
	}
}

func TestFormatTraceSummaryEmpty(t *testing.T) {
	if out := FormatTraceSummary(nil); out != "" {
		t.Fatalf("summary of no rows = %q", out)
	}
	if out := FormatTraceSummary([]Row{{Circuit: "x"}}); out != "" {
		t.Fatalf("summary of traceless rows = %q", out)
	}
}
