package obs

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	rec := NewRecorder()
	ctx := NewContext(context.Background(), rec)
	if FromContext(ctx) != rec {
		t.Fatal("recorder not in context")
	}

	pctx, pass := StartSpan(ctx, "pass")
	if CurrentSpan(pctx) != pass {
		t.Fatal("current span not the started one")
	}
	sctx, stage := StartSpan(pctx, "periods")
	_, probe := StartSpan(sctx, "probe")
	probe.SetAttr("t", 3.5)
	probe.End()
	stage.End()
	pass.End()

	roots := rec.Roots()
	if len(roots) != 1 || roots[0] != pass {
		t.Fatalf("roots = %v", roots)
	}
	if len(pass.Children) != 1 || pass.Children[0] != stage {
		t.Fatalf("pass children = %v", pass.Children)
	}
	if len(stage.Children) != 1 || stage.Children[0].Name != "probe" {
		t.Fatalf("stage children = %v", stage.Children)
	}
	if v, ok := probe.Attr("t"); !ok || v != 3.5 {
		t.Fatalf("probe attr = %g, %v", v, ok)
	}
	if _, ok := probe.Attr("missing"); ok {
		t.Fatal("missing attr found")
	}
	if probe.Start < stage.Start || probe.Dur < 0 {
		t.Fatalf("probe timing start=%v dur=%v (stage start %v)", probe.Start, probe.Dur, stage.Start)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	rec := NewRecorder()
	ctx := NewContext(context.Background(), rec)
	_, sp := StartSpan(ctx, "x")
	sp.End()
	d := sp.Dur
	time.Sleep(time.Millisecond)
	sp.End()
	if sp.Dur != d {
		t.Fatal("second End changed the duration")
	}
}

func TestSiblingSpans(t *testing.T) {
	rec := NewRecorder()
	ctx := NewContext(context.Background(), rec)
	pctx, pass := StartSpan(ctx, "pass")
	// Two sub-spans started from the same parent context are siblings,
	// not nested — the shape of a loop instrumenting each round.
	for i := 0; i < 3; i++ {
		_, sp := StartSpan(pctx, "round")
		sp.End()
	}
	pass.End()
	if len(pass.Children) != 3 {
		t.Fatalf("want 3 sibling rounds, got %d", len(pass.Children))
	}
}

func TestChromeTraceExport(t *testing.T) {
	rec := NewRecorder()
	ctx := NewContext(context.Background(), rec)
	pctx, pass := StartSpan(ctx, "pass")
	_, sp := StartSpan(pctx, "route")
	sp.SetAttr("overflow", 2)
	sp.End()
	pass.End()

	var b strings.Builder
	err := WriteChromeTrace(&b, []TraceTrack{{Name: "s400", Spans: rec.Roots()}})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`"traceEvents"`, `"thread_name"`, `"s400"`,
		`"pass"`, `"route"`, `"overflow"`, `"ph": "X"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s in:\n%s", want, out)
		}
	}
}

func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("retime.probes").Add(7)
	reg.Status("plan.stage").Set("lac")
	ds, err := StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + ds.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	metrics := get("/metrics")
	for _, want := range []string{"retime_probes 7", `plan_stage{value="lac"} 1`} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("pprof index unexpected:\n%s", idx)
	}
}
