package runcfg

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestLoadCircuitScaleTier(t *testing.T) {
	nl, err := LoadCircuit("", "s100k")
	if err != nil {
		t.Fatal(err)
	}
	if nl.Stats().Gates != 6000 {
		t.Fatalf("stats %+v", nl.Stats())
	}
}

func TestLoadCircuitCatalog(t *testing.T) {
	nl, err := LoadCircuit("", "s386")
	if err != nil {
		t.Fatal(err)
	}
	if nl.Stats().Gates != 159 {
		t.Fatalf("stats %+v", nl.Stats())
	}
}

func TestLoadCircuitBenchFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.bench")
	content := "INPUT(a)\nOUTPUT(g)\ng = NOT(a)\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	nl, err := LoadCircuit(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if nl.Stats().Gates != 1 {
		t.Fatalf("stats %+v", nl.Stats())
	}
}

func TestLoadCircuitErrors(t *testing.T) {
	if _, err := LoadCircuit("", ""); err == nil {
		t.Fatal("empty args accepted")
	}
	if _, err := LoadCircuit("x.bench", "s386"); err == nil {
		t.Fatal("both args accepted")
	}
	if _, err := LoadCircuit("", "nosuch"); err == nil {
		t.Fatal("unknown circuit accepted")
	}
	if _, err := LoadCircuit("/nonexistent/file.bench", ""); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestParamsConfig pins the flag→request mapping the CLIs rely on: -budget
// becomes milliseconds, and the alpha tri-state (unset / explicit zero /
// explicit value) survives as the pointer sentinel.
func TestParamsConfig(t *testing.T) {
	p := Params{
		Blocks: 3, Whitespace: 0.2, Nmax: 7, MaxIters: 11,
		TclkSlack: 0.3, Tclk: 1.5, Seed: 42, Iterations: 2,
		Budget: 1500 * time.Millisecond,
	}
	c := p.Config()
	if c.BudgetMS != 1500 {
		t.Fatalf("BudgetMS = %d, want 1500", c.BudgetMS)
	}
	if c.Alpha != nil {
		t.Fatalf("alpha set without AlphaSet: %v", *c.Alpha)
	}
	if c.Blocks != 3 || c.Nmax != 7 || c.MaxIters != 11 || c.Seed != 42 ||
		c.Iterations != 2 {
		t.Fatalf("config %+v", c)
	}

	p.AlphaSet = true // explicit -alpha 0 freezes the tile weights
	c = p.Config()
	if c.Alpha == nil || *c.Alpha != 0 {
		t.Fatalf("explicit zero alpha lost: %+v", c.Alpha)
	}
	pc := c.PlanConfig()
	if !pc.LAC.AlphaSet || pc.LAC.Alpha != 0 {
		t.Fatalf("plan config alpha %+v", pc.LAC)
	}

	p.Alpha = 0.35
	c = p.Config()
	if c.Alpha == nil || *c.Alpha != 0.35 {
		t.Fatalf("alpha = %v, want 0.35", c.Alpha)
	}
}

// TestParamsRequest checks the assembled request normalizes with the CLI
// defaults (whitespace 0.13, slack 0.2, nmax 5).
func TestParamsRequest(t *testing.T) {
	src, err := Source("", "s386")
	if err != nil {
		t.Fatal(err)
	}
	req := Params{Seed: 1}.Request(src)
	req.Normalize()
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := req.PlanConfig()
	if cfg.Whitespace != 0.13 || cfg.TclkSlack != 0.2 || cfg.LAC.Nmax != 5 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestSourceInlinesBenchFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.bench")
	content := "INPUT(a)\nOUTPUT(g)\ng = NOT(a)\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := Source(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if src.Bench != content {
		t.Fatalf("bench not inlined: %q", src.Bench)
	}
	if src.Name != path {
		t.Fatalf("name %q", src.Name)
	}
}
