package job_test

import (
	"strings"
	"testing"

	"lacret/internal/bench89"
	"lacret/internal/job"
)

// TestDigestDeterministic pins that the digest is a pure function of the
// normalized request.
func TestDigestDeterministic(t *testing.T) {
	a := job.PlanRequest{Source: job.Source{Circuit: "s386"}, Config: job.ReqConfig{Seed: 7}}
	b := job.PlanRequest{Source: job.Source{Circuit: "s386"}, Config: job.ReqConfig{Seed: 7}}
	a.Normalize()
	b.Normalize()
	if a.Digest() != b.Digest() {
		t.Fatalf("identical requests digest differently:\n%s\n%s", a.Digest(), b.Digest())
	}
	c := b
	c.Config.Seed = 8
	if c.Digest() == b.Digest() {
		t.Fatal("different seeds collide")
	}
}

// TestDigestNormalizedEquivalence pins the point of normalization: the
// defaulted form and the spelled-out form of the same request are one cache
// entry.
func TestDigestNormalizedEquivalence(t *testing.T) {
	ws, slack := 0.13, 0.2
	defaulted := job.PlanRequest{Source: job.Source{Circuit: "s386"}, Config: job.ReqConfig{Seed: 1}}
	explicit := job.PlanRequest{
		Source: job.Source{Circuit: "s386"},
		Config: job.ReqConfig{
			Whitespace: ws, TclkSlack: slack, Nmax: 5, Iterations: 1,
			Seed: 1, ProbeEngine: "auto",
		},
	}
	defaulted.Normalize()
	explicit.Normalize()
	if defaulted.Digest() != explicit.Digest() {
		t.Fatal("defaulted and explicit forms of the same request digest differently")
	}
}

// TestProbeEngineIgnored pins the wire compatibility of the retired engine
// choice: every value older clients could send normalizes away, so all
// four requests share one digest, and the field never reaches the planner.
func TestProbeEngineIgnored(t *testing.T) {
	var digests []string
	for _, engine := range []string{"", "auto", "dense", "lazy"} {
		req := job.PlanRequest{Source: job.Source{Circuit: "s386"}, Config: job.ReqConfig{ProbeEngine: engine}}
		req.Normalize()
		if err := req.Validate(); err != nil {
			t.Fatalf("probe_engine %q rejected: %v", engine, err)
		}
		if req.Config.ProbeEngine != "" {
			t.Fatalf("probe_engine %q survived Normalize as %q", engine, req.Config.ProbeEngine)
		}
		digests = append(digests, req.Digest())
	}
	for i, d := range digests[1:] {
		if d != digests[0] {
			t.Fatalf("request %d digests differently from the default: %s vs %s", i+1, d, digests[0])
		}
	}
}

// TestDigestCatalogSeed pins the experiments convention: seed 0 on a
// catalog circuit is that circuit's catalog seed, so both spellings share a
// digest (and therefore a cache entry).
func TestDigestCatalogSeed(t *testing.T) {
	p, ok := bench89.ByName("s386")
	if !ok {
		t.Fatal("s386 missing from catalog")
	}
	zero := job.PlanRequest{Source: job.Source{Circuit: "s386"}}
	explicit := job.PlanRequest{Source: job.Source{Circuit: "s386"}, Config: job.ReqConfig{Seed: p.Seed}}
	zero.Normalize()
	explicit.Normalize()
	if zero.Config.Seed != p.Seed {
		t.Fatalf("seed 0 resolved to %d, want catalog seed %d", zero.Config.Seed, p.Seed)
	}
	if zero.Digest() != explicit.Digest() {
		t.Fatal("catalog-seed and explicit-seed forms digest differently")
	}
}

// TestAlphaSentinelDigests pins that "default alpha" and "explicit alpha 0"
// (freeze the tile weights) are different requests.
func TestAlphaSentinelDigests(t *testing.T) {
	zero := 0.0
	def := job.PlanRequest{Source: job.Source{Circuit: "s386"}}
	frozen := job.PlanRequest{Source: job.Source{Circuit: "s386"}, Config: job.ReqConfig{Alpha: &zero}}
	def.Normalize()
	frozen.Normalize()
	if def.Digest() == frozen.Digest() {
		t.Fatal("default alpha and explicit alpha=0 collide")
	}
	cfg := frozen.PlanConfig()
	if !cfg.LAC.AlphaSet || cfg.LAC.Alpha != 0 {
		t.Fatalf("explicit zero alpha lost: %+v", cfg.LAC)
	}
	if def.PlanConfig().LAC.AlphaSet {
		t.Fatal("default request set AlphaSet")
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []struct {
		name string
		req  job.PlanRequest
	}{
		{"no source", job.PlanRequest{}},
		{"both sources", job.PlanRequest{Source: job.Source{Circuit: "s386", Bench: "INPUT(a)\n"}}},
		{"unknown circuit", job.PlanRequest{Source: job.Source{Circuit: "nosuch"}}},
		{"bad engine", job.PlanRequest{
			Source: job.Source{Circuit: "s386"},
			Config: job.ReqConfig{ProbeEngine: "eager"},
		}},
		{"negative budget", job.PlanRequest{
			Source: job.Source{Circuit: "s386"},
			Config: job.ReqConfig{BudgetMS: -1},
		}},
		{"whitespace out of range", job.PlanRequest{
			Source: job.Source{Circuit: "s386"},
			Config: job.ReqConfig{Whitespace: 1.5},
		}},
	}
	for _, tc := range bad {
		req := tc.req
		req.Normalize()
		if err := req.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	alpha := 1.5
	req := job.PlanRequest{Source: job.Source{Circuit: "s386"}, Config: job.ReqConfig{Alpha: &alpha}}
	req.Normalize()
	if err := req.Validate(); err == nil || !strings.Contains(err.Error(), "alpha") {
		t.Errorf("alpha 1.5 accepted (err: %v)", err)
	}
}

// TestSourceNetlist pins that inline bench sources parse and catalog
// sources generate, each with the right label.
func TestSourceNetlist(t *testing.T) {
	s := job.Source{Bench: "INPUT(a)\nOUTPUT(g)\ng = NOT(a)\n"}
	if s.Label() != "bench" {
		t.Fatalf("label %q", s.Label())
	}
	nl, err := s.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	if nl.Stats().Gates != 1 {
		t.Fatalf("stats %+v", nl.Stats())
	}
	c := job.Source{Circuit: "s386"}
	nl, err = c.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	if nl.Stats().Gates != 159 {
		t.Fatalf("stats %+v", nl.Stats())
	}
}
