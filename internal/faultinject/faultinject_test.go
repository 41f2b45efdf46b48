package faultinject

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"lacret/internal/bench89"
	"lacret/internal/check"
	"lacret/internal/core"
	"lacret/internal/netlist"
	"lacret/internal/plan"
	"lacret/internal/retime"
)

func tinyNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl, err := bench89.Generate(bench89.Params{
		Name: "fi", Gates: 60, DFFs: 8, Inputs: 4, Outputs: 4,
		Depth: 6, MaxFanin: 3, Seed: 7, FeedbackDepth: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func tinyConfig() plan.Config {
	return plan.Config{Seed: 7, FloorplanMoves: 1000, Whitespace: 0.15}
}

// runWithCtx runs one full pipeline pass under ctx and returns the state
// and the pipeline error; any panic escaping PlanState.RunContext fails
// the test immediately.
func runWithCtx(t *testing.T, ctx context.Context, nl *netlist.Netlist, label string) (*plan.PlanState, error) {
	t.Helper()
	cfg := tinyConfig()
	st, err := plan.NewState(nl, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panic escaped RunContext: %v", label, r)
		}
	}()
	return st, st.RunContext(ctx, plan.DefaultStages(), &cfg)
}

// TestCancelAtEveryCheckpoint counts the pipeline's checkpoints with a
// never-firing probe context, then cancels at every index (stride-sampled
// when the count is large): no cancellation point may panic out of the
// pipeline or leave a state the prefix verifier rejects.
func TestCancelAtEveryCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive checkpoint sweep in short mode")
	}
	nl := tinyNetlist(t)
	probe := CancelAtNth(1 << 30)
	defer probe.Cancel()
	if _, err := runWithCtx(t, probe, nl, "probe"); err != nil {
		t.Fatalf("probe run failed: %v", err)
	}
	total := probe.Hits()
	if total < 10 {
		t.Fatalf("suspiciously few checkpoints: %d", total)
	}
	stride := 1
	if total > 64 {
		stride = total/64 + 1
	}
	t.Logf("%d checkpoints, sampling every %d", total, stride)
	for k := 1; k <= total; k += stride {
		ctx := CancelAtNth(k)
		st, err := runWithCtx(t, ctx, nl, fmt.Sprintf("cancel@%d", k))
		ctx.Cancel()
		// Anytime stages absorb the cancellation (a truncated-but-complete
		// run), otherwise the boundary checkpoint reports it.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel@%d: unexpected error: %v", k, err)
		}
		if _, verr := check.VerifyState(st); verr != nil {
			t.Fatalf("cancel@%d: completed prefix fails verification: %v", k, verr)
		}
	}
}

// TestPanicContainment injects a panic into representative stages and
// checks the pipeline converts it into a typed *plan.StageError (stage
// name, stack, Recovered event flag) while the completed prefix stays
// verifiable.
func TestPanicContainment(t *testing.T) {
	nl := tinyNetlist(t)
	for _, stageName := range []string{"partition", "route", "periods", "lac"} {
		cfg := tinyConfig()
		st, err := plan.NewState(nl, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		stages := WithPanicAt(plan.DefaultStages(), stageName, fmt.Errorf("injected fault"))
		err = func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("stage %s: panic escaped RunContext: %v", stageName, r)
				}
			}()
			return st.RunContext(context.Background(), stages, &cfg)
		}()
		var serr *plan.StageError
		if !errors.As(err, &serr) {
			t.Fatalf("stage %s: error %v is not a StageError", stageName, err)
		}
		if serr.Stage != stageName || !serr.Recovered() || len(serr.Stack) == 0 {
			t.Fatalf("stage %s: StageError = {Stage:%s Recovered:%v stack:%d bytes}",
				stageName, serr.Stage, serr.Recovered(), len(serr.Stack))
		}
		trace := st.Result.Trace
		if len(trace) == 0 || trace[len(trace)-1].Stage != stageName || !trace[len(trace)-1].Recovered {
			t.Fatalf("stage %s: failing stage's event missing or unflagged: %+v", stageName, trace)
		}
		if _, verr := check.VerifyState(st); verr != nil {
			t.Fatalf("stage %s: prefix fails verification after panic: %v", stageName, verr)
		}
	}
}

// TestMinPeriodBracketInvariant interrupts the period search at every probe
// index and checks the anytime bracket: the upper end must be feasible (and
// realized by the returned labeling), the lower end proven infeasible.
func TestMinPeriodBracketInvariant(t *testing.T) {
	nl := tinyNetlist(t)
	cfg := tinyConfig()
	res, err := plan.PlanContext(context.Background(), nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rg := res.Graph
	feasible := func(T float64) bool {
		_, err := retime.NewCutPool(context.Background(), rg, T)
		return err == nil
	}
	for k := 1; ; k++ {
		ctx := CancelAtNth(k)
		_, _, _, err := rg.MinPeriod(ctx, 1e-3)
		ctx.Cancel()
		if err == nil {
			break // the search finished before the kth checkpoint
		}
		var beb *retime.ErrBudgetExceeded
		if !errors.As(err, &beb) {
			t.Fatalf("cancel@%d: unexpected error: %v", k, err)
		}
		p := beb.Partial
		if p.Hi <= p.Lo {
			t.Fatalf("cancel@%d: degenerate bracket (%g, %g]", k, p.Lo, p.Hi)
		}
		if !feasible(p.Hi) {
			t.Fatalf("cancel@%d: bracket Hi %g not feasible", k, p.Hi)
		}
		if feasible(p.Lo) {
			t.Fatalf("cancel@%d: bracket Lo %g unexpectedly feasible", k, p.Lo)
		}
		if cerr := rg.CheckFeasible(p.R, p.Hi); cerr != nil {
			t.Fatalf("cancel@%d: partial labeling does not realize Hi: %v", k, cerr)
		}
		if k > 200 {
			t.Fatalf("period search did not terminate within 200 checkpoints")
		}
	}
}

// TestGenerousBudgetBitIdentical pins the budget machinery's zero-cost
// property on the golden circuit: a pass under a budget it never hits must
// produce exactly the result of an unbudgeted pass — same floats, same
// labelings, no truncation flags.
func TestGenerousBudgetBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog circuit in short mode")
	}
	p, ok := bench89.ByName("s400")
	if !ok {
		t.Fatal("no s400 in catalog")
	}
	run := func(budget plan.Budget) *plan.Result {
		nl, err := bench89.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Plan(nl, plan.Config{
			Seed: p.Seed, Whitespace: 0.13, TclkSlack: 0.2,
			LAC:    core.Options{Alpha: 0.2, Nmax: 5, MaxIters: 20},
			Budget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(plan.Budget{})
	generous := run(plan.Budget{Wall: time.Hour})
	exact := func(name string, got, want float64) {
		if got != want {
			t.Errorf("%s = %.17g, want %.17g (unbudgeted)", name, got, want)
		}
	}
	exact("Tinit", generous.Tinit, base.Tinit)
	exact("Tmin", generous.Tmin, base.Tmin)
	exact("TminLo", generous.TminLo, 0)
	exact("Tclk", generous.Tclk, base.Tclk)
	exact("RouteWirelength", generous.RouteWirelength, base.RouteWirelength)
	exact("SteinerEstimate", generous.SteinerEstimate, base.SteinerEstimate)
	ints := map[string][2]int{
		"MinArea.NF":     {generous.MinArea.NF, base.MinArea.NF},
		"MinArea.NFOA":   {generous.MinArea.NFOA, base.MinArea.NFOA},
		"LAC.NF":         {generous.LAC.NF, base.LAC.NF},
		"LAC.NFOA":       {generous.LAC.NFOA, base.LAC.NFOA},
		"LAC.NWR":        {generous.LAC.NWR, base.LAC.NWR},
		"RepeaterCount":  {generous.RepeaterCount, base.RepeaterCount},
		"WireUnits":      {generous.WireUnits, base.WireUnits},
		"InterBlockNets": {generous.InterBlockNets, base.InterBlockNets},
		"RouteOverflow":  {generous.RouteOverflow, base.RouteOverflow},
	}
	for name, v := range ints {
		if v[0] != v[1] {
			t.Errorf("%s = %d, want %d (unbudgeted)", name, v[0], v[1])
		}
	}
	for v := range base.LAC.R {
		if generous.LAC.R[v] != base.LAC.R[v] || generous.MinArea.R[v] != base.MinArea.R[v] {
			t.Fatalf("labelings diverge at vertex %d", v)
		}
	}
	if ts := generous.TruncatedStages(); len(ts) != 0 {
		t.Fatalf("generous budget truncated stages: %v", ts)
	}
}

// TestHardCancelBeforeStart: an already-canceled context never starts a
// stage and reports which stage was cut off.
func TestHardCancelBeforeStart(t *testing.T) {
	nl := tinyNetlist(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := runWithCtx(t, ctx, nl, "precanceled")
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(st.Result.Trace) != 0 {
		t.Fatalf("stages ran under a canceled context: %+v", st.Result.Trace)
	}
}
