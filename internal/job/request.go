// Package job turns the planning pipeline into a reusable, servable unit
// of work: a canonical PlanRequest (netlist source + configuration) with a
// deterministic content digest, and a Manager that runs requests on a
// bounded worker pool with per-job cancellation, queue backpressure, live
// progress events, and a content-addressed result cache keyed by the
// digest.
//
// The package sits between the planning library (internal/plan) and the
// entry points: cmd/lacplan and cmd/table1 build requests through
// internal/runcfg, and cmd/lacretd serves them over HTTP via
// internal/service. Identical requests hash to identical digests, so a
// repeated submission is served from the cache byte-for-byte without
// re-planning.
package job

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"lacret/internal/bench89"
	"lacret/internal/core"
	"lacret/internal/netlist"
	"lacret/internal/plan"
)

// Source names the netlist a request plans: either a catalog circuit by
// name or an inline ISCAS89 .bench netlist. Exactly one of Circuit and
// Bench must be set.
type Source struct {
	// Circuit is a synthetic catalog circuit name (e.g. "s953").
	Circuit string `json:"circuit,omitempty"`
	// Bench is the text of an ISCAS89 .bench netlist, inlined so the
	// request is self-contained (and the digest covers the netlist bytes).
	Bench string `json:"bench,omitempty"`
	// Name labels an inline Bench netlist (default "bench"); ignored for
	// catalog circuits, which are labeled by Circuit.
	Name string `json:"name,omitempty"`
}

// Label returns the circuit label the source plans under.
func (s Source) Label() string {
	if s.Circuit != "" {
		return s.Circuit
	}
	if s.Name != "" {
		return s.Name
	}
	return "bench"
}

// Netlist materializes the source. Each call builds a fresh netlist:
// planning mutates it (technology-default assignment), so instances are
// never shared between jobs.
func (s Source) Netlist() (*netlist.Netlist, error) {
	switch {
	case s.Circuit != "" && s.Bench != "":
		return nil, fmt.Errorf("job: source has both circuit and bench")
	case s.Circuit != "":
		p, ok := bench89.ByName(s.Circuit)
		if !ok {
			return nil, fmt.Errorf("job: unknown catalog circuit %q", s.Circuit)
		}
		return bench89.Generate(p)
	case s.Bench != "":
		return netlist.ParseBench(s.Label(), strings.NewReader(s.Bench))
	default:
		return nil, fmt.Errorf("job: source names no netlist (need circuit or bench)")
	}
}

func (s Source) validate() error {
	switch {
	case s.Circuit != "" && s.Bench != "":
		return fmt.Errorf("job: source has both circuit and bench")
	case s.Circuit == "" && s.Bench == "":
		return fmt.Errorf("job: source names no netlist (need circuit or bench)")
	case s.Circuit != "":
		if _, ok := bench89.ByName(s.Circuit); !ok {
			return fmt.Errorf("job: unknown catalog circuit %q", s.Circuit)
		}
	}
	return nil
}

// ReqConfig is the canonical planning configuration of a request — the
// subset of plan.Config every entry point exposes, in a JSON- and
// digest-friendly shape. The zero value selects the Table 1 regime
// (whitespace 0.13, slack 0.2, nmax 5, default alpha) after Normalize.
type ReqConfig struct {
	// Blocks is the soft-block count (0 = auto).
	Blocks int `json:"blocks,omitempty"`
	// Whitespace is the block whitespace fraction (0 = 0.13, the Table 1
	// regime).
	Whitespace float64 `json:"whitespace,omitempty"`
	// Alpha is the LAC weight-adaptation coefficient. nil selects the
	// default (0.2); an explicit 0 freezes the tile weights — the pointer
	// keeps the two distinguishable (plan.Config's AlphaSet).
	Alpha *float64 `json:"alpha,omitempty"`
	// Nmax is the LAC no-improvement limit (0 = 5).
	Nmax int `json:"nmax,omitempty"`
	// MaxIters hard-caps the LAC solve rounds (0 = the core default).
	MaxIters int `json:"max_iters,omitempty"`
	// TclkSlack positions Tclk between Tmin and Tinit (0 = 0.2).
	TclkSlack float64 `json:"tclk_slack,omitempty"`
	// Tclk, when positive, fixes the target period directly.
	Tclk float64 `json:"tclk,omitempty"`
	// Seed drives the randomized substeps; 0 selects the catalog seed for
	// catalog circuits (resolved by PlanRequest.Normalize).
	Seed int64 `json:"seed,omitempty"`
	// Iterations is the planning-pass count with floorplan expansion
	// between passes (0 = 1).
	Iterations int `json:"iterations,omitempty"`
	// BudgetMS is the soft wall-clock budget per planning pass in
	// milliseconds (0 = unbounded); anytime stages degrade to best-so-far
	// at the deadline.
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// ProbeEngine is accepted and ignored. It once chose between two
	// constraint engines; the planner now has one. Requests from older
	// clients that still send "auto", "dense" or "lazy" keep decoding
	// (the service rejects unknown JSON fields): Normalize clears those
	// values, so all of them share one digest, and Validate rejects any
	// other value, as it always did.
	ProbeEngine string `json:"probe_engine,omitempty"`
}

// legacyProbeEngine reports whether s is a value ProbeEngine ever
// accepted.
func legacyProbeEngine(s string) bool {
	switch s {
	case "", "auto", "dense", "lazy":
		return true
	}
	return false
}

// Normalize fills the defaulted fields in place so that equivalent
// requests share one canonical form (and therefore one digest).
func (c *ReqConfig) Normalize() {
	if c.Whitespace == 0 {
		c.Whitespace = 0.13
	}
	if c.TclkSlack == 0 {
		c.TclkSlack = 0.2
	}
	if c.Nmax == 0 {
		c.Nmax = 5
	}
	if c.Iterations == 0 {
		c.Iterations = 1
	}
	if legacyProbeEngine(c.ProbeEngine) {
		c.ProbeEngine = ""
	}
}

// Validate rejects configurations the planner would refuse (or silently
// misread) once the job is already running, so bad requests fail at
// submission.
func (c ReqConfig) Validate() error {
	if c.Blocks < 0 {
		return fmt.Errorf("job: negative block count %d", c.Blocks)
	}
	if c.Whitespace < 0 || c.Whitespace >= 1 {
		return fmt.Errorf("job: whitespace %g outside [0,1)", c.Whitespace)
	}
	if c.Alpha != nil && (*c.Alpha < 0 || *c.Alpha > 1) {
		return fmt.Errorf("job: alpha %g outside [0,1]", *c.Alpha)
	}
	if c.Nmax < 0 {
		return fmt.Errorf("job: negative nmax %d", c.Nmax)
	}
	if c.MaxIters < 0 {
		return fmt.Errorf("job: negative max_iters %d", c.MaxIters)
	}
	if c.TclkSlack < 0 || c.TclkSlack > 1 {
		return fmt.Errorf("job: tclk_slack %g outside [0,1]", c.TclkSlack)
	}
	if c.Tclk < 0 {
		return fmt.Errorf("job: negative tclk %g", c.Tclk)
	}
	if c.Iterations < 1 {
		return fmt.Errorf("job: iterations %d < 1", c.Iterations)
	}
	if c.BudgetMS < 0 {
		return fmt.Errorf("job: negative budget_ms %d", c.BudgetMS)
	}
	if !legacyProbeEngine(c.ProbeEngine) {
		return fmt.Errorf("job: unknown probe engine %q (want auto, dense or lazy; all three are ignored)",
			c.ProbeEngine)
	}
	return nil
}

// PlanConfig maps the request configuration onto the planner's Config.
// This is the single flag→Config code path shared by lacplan, table1, and
// the daemon: every knob a request carries lands here exactly once.
func (c ReqConfig) PlanConfig() plan.Config {
	cfg := plan.Config{
		Blocks:       c.Blocks,
		Whitespace:   c.Whitespace,
		TclkSlack:    c.TclkSlack,
		TclkOverride: c.Tclk,
		Seed:         c.Seed,
		LAC:          core.Options{Alpha: 0.2, Nmax: c.Nmax, MaxIters: c.MaxIters},
		Budget:       plan.Budget{Wall: time.Duration(c.BudgetMS) * time.Millisecond},
	}
	if c.Alpha != nil {
		// An explicit alpha — including 0, which freezes the tile weights —
		// must survive the zero-value sentinel.
		cfg.LAC.Alpha = *c.Alpha
		cfg.LAC.AlphaSet = true
	}
	return cfg
}

// Map renders the configuration as the run report's numeric config map.
func (c ReqConfig) Map() map[string]float64 {
	m := map[string]float64{
		"blocks":     float64(c.Blocks),
		"ws":         c.Whitespace,
		"nmax":       float64(c.Nmax),
		"maxiters":   float64(c.MaxIters),
		"slack":      c.TclkSlack,
		"tclk":       c.Tclk,
		"seed":       float64(c.Seed),
		"iterations": float64(c.Iterations),
		"budget_ms":  float64(c.BudgetMS),
	}
	if c.Alpha != nil {
		m["alpha"] = *c.Alpha
	} else {
		m["alpha"] = 0.2
	}
	return m
}

// PlanRequest is one canonical planning request: what to plan (Source) and
// how (Config). Two requests that normalize to the same fields digest
// identically, which is the key of the Manager's result cache.
type PlanRequest struct {
	Source Source    `json:"source"`
	Config ReqConfig `json:"config"`
}

// Normalize canonicalizes the request in place: config defaults are made
// explicit, inline netlists get their default label, and a zero seed on a
// catalog circuit resolves to the circuit's catalog seed (the experiments
// driver's convention), so the defaulted and the explicit form share one
// digest.
func (r *PlanRequest) Normalize() {
	r.Config.Normalize()
	if r.Source.Bench != "" && r.Source.Name == "" {
		r.Source.Name = "bench"
	}
	if r.Config.Seed == 0 && r.Source.Circuit != "" {
		if p, ok := bench89.ByName(r.Source.Circuit); ok {
			r.Config.Seed = p.Seed
		}
	}
}

// Validate checks the whole request; call after Normalize.
func (r *PlanRequest) Validate() error {
	if err := r.Source.validate(); err != nil {
		return err
	}
	return r.Config.Validate()
}

// PlanConfig maps the request onto the planner's Config.
func (r *PlanRequest) PlanConfig() plan.Config {
	return r.Config.PlanConfig()
}

// digestVersion prefixes every digest; bump it when the encoding below
// changes shape so stale caches can never alias new requests.
const digestVersion = "lacret-req-v2"

// Digest returns the request's content address: a SHA-256 over a stable
// field-by-field encoding (fixed order, NUL-separated tags, exact
// hexadecimal floats). Digest the normalized request — the Manager
// normalizes on submit — so equivalent requests collide on purpose.
func (r *PlanRequest) Digest() string {
	h := sha256.New()
	io.WriteString(h, digestVersion)
	ws := func(tag, val string) {
		h.Write([]byte{0})
		io.WriteString(h, tag)
		h.Write([]byte{0})
		io.WriteString(h, val)
	}
	wi := func(tag string, v int64) { ws(tag, strconv.FormatInt(v, 10)) }
	wf := func(tag string, v float64) { ws(tag, strconv.FormatFloat(v, 'x', -1, 64)) }
	ws("circuit", r.Source.Circuit)
	ws("name", r.Source.Name)
	ws("bench", r.Source.Bench)
	wi("blocks", int64(r.Config.Blocks))
	wf("ws", r.Config.Whitespace)
	if r.Config.Alpha != nil {
		wf("alpha", *r.Config.Alpha)
	} else {
		ws("alpha", "default")
	}
	wi("nmax", int64(r.Config.Nmax))
	wi("maxiters", int64(r.Config.MaxIters))
	wf("slack", r.Config.TclkSlack)
	wf("tclk", r.Config.Tclk)
	wi("seed", r.Config.Seed)
	wi("iterations", int64(r.Config.Iterations))
	wi("budget_ms", r.Config.BudgetMS)
	return hex.EncodeToString(h.Sum(nil))
}
