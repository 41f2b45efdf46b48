// Package runcfg is the shared entry-point wiring: the flag→request
// mapping, circuit loading, and observability-sink plumbing that
// cmd/lacplan, cmd/table1, and cmd/lacretd previously each carried their
// own copy of. Every CLI builds a job.PlanRequest (or its ReqConfig)
// through here, so the daemon and the CLIs resolve configuration through
// one code path.
package runcfg

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lacret/internal/job"
	"lacret/internal/netlist"
	"lacret/internal/obs"
)

// Source builds a job.Source from the -bench/-circuit flag pair: exactly
// one must be set. A .bench file is inlined into the source, so the
// resulting request is self-contained (and digestable) wherever it runs.
func Source(benchPath, circuit string) (job.Source, error) {
	switch {
	case benchPath != "" && circuit != "":
		return job.Source{}, fmt.Errorf("use either -bench or -circuit, not both")
	case benchPath != "":
		data, err := os.ReadFile(benchPath)
		if err != nil {
			return job.Source{}, err
		}
		return job.Source{Bench: string(data), Name: benchPath}, nil
	case circuit != "":
		return job.Source{Circuit: circuit}, nil
	default:
		return job.Source{}, fmt.Errorf("need -bench FILE or -circuit NAME")
	}
}

// LoadCircuit resolves the -bench/-circuit flag pair to a netlist — the
// catalog circuit by name, or the parsed .bench file.
func LoadCircuit(benchPath, circuit string) (*netlist.Netlist, error) {
	src, err := Source(benchPath, circuit)
	if err != nil {
		return nil, err
	}
	nl, err := src.Netlist()
	if err != nil {
		return nil, err
	}
	return nl, nil
}

// Params mirrors the planning flags the entry points share. Zero values
// mean "defaulted" with the same semantics the CLIs always had: the
// request normalization fills whitespace 0.13, slack 0.2, nmax 5,
// and iterations 1.
type Params struct {
	Blocks     int
	Whitespace float64
	// Alpha is meaningful only when AlphaSet; an explicit 0 freezes the
	// tile weights (the -alpha 0 semantics the flag tests pin).
	Alpha      float64
	AlphaSet   bool
	Nmax       int
	MaxIters   int
	TclkSlack  float64
	Tclk       float64
	Seed       int64
	Iterations int
	Budget     time.Duration
}

// Config maps the flag values onto the canonical request configuration.
func (p Params) Config() job.ReqConfig {
	c := job.ReqConfig{
		Blocks:     p.Blocks,
		Whitespace: p.Whitespace,
		Nmax:       p.Nmax,
		MaxIters:   p.MaxIters,
		TclkSlack:  p.TclkSlack,
		Tclk:       p.Tclk,
		Seed:       p.Seed,
		Iterations: p.Iterations,
		BudgetMS:   p.Budget.Milliseconds(),
	}
	if p.AlphaSet {
		a := p.Alpha
		c.Alpha = &a
	}
	return c
}

// Request assembles the canonical plan request for a source.
func (p Params) Request(src job.Source) job.PlanRequest {
	return job.PlanRequest{Source: src, Config: p.Config()}
}

// Obs bundles a CLI run's observability wiring: the recorder feeding the
// report/trace sinks and the optional live debug listener.
type Obs struct {
	// Recorder is non-nil when any sink was requested; install it with
	// obs.NewContext before planning.
	Recorder *obs.Recorder
	// Debug is the -debug-addr listener, nil when none was requested.
	Debug *obs.DebugServer
}

// StartObs engages the recorder when any sink is requested (a report or
// trace output path, or the debug address) and starts the debug listener
// when debugAddr is non-empty. Without any sink the returned Obs is fully
// disabled: a nil recorder keeps every instrumented path a zero-alloc
// no-op.
func StartObs(debugAddr string, sinks ...string) (*Obs, error) {
	want := debugAddr != ""
	for _, s := range sinks {
		if s != "" {
			want = true
		}
	}
	if !want {
		return &Obs{}, nil
	}
	o := &Obs{Recorder: obs.NewRecorder()}
	if debugAddr != "" {
		ds, err := obs.StartDebugServer(debugAddr, o.Recorder.Registry())
		if err != nil {
			return nil, err
		}
		o.Debug = ds
	}
	return o, nil
}

// Enabled reports whether a recorder is engaged.
func (o *Obs) Enabled() bool { return o != nil && o.Recorder != nil }

// Close shuts the debug listener down (no-op without one).
func (o *Obs) Close() {
	if o != nil && o.Debug != nil {
		_ = o.Debug.Close()
	}
}

// WriteReport encodes the run report and writes it to path.
func WriteReport(path string, rep *obs.Report) error {
	data, err := rep.Encode()
	if err != nil {
		return fmt.Errorf("report: %v", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// WriteReportDir writes one report per circuit into dir (table1's layout),
// creating the directory as needed.
func WriteReportDir(dir string, reps map[string]*obs.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for circuit, rep := range reps {
		if err := WriteReport(filepath.Join(dir, circuit+".json"), rep); err != nil {
			return fmt.Errorf("%s: %v", circuit, err)
		}
	}
	return nil
}

// WriteTrace writes a Chrome trace-event file of the given tracks to path.
func WriteTrace(path string, tracks []obs.TraceTrack) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := obs.WriteChromeTrace(f, tracks); err != nil {
		return fmt.Errorf("trace: %v", err)
	}
	return nil
}
