package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"lacret/internal/obs"
	"lacret/internal/plan"
)

// columns are the Table 1 result columns of one planning pass (or of one
// LAC solve on a planned circuit): the target period, and N_FOA, N_F and
// N_FN for min-area and LAC-retiming, plus the weighted-round count N_wr.
type columns struct {
	Tclk        float64 `json:"tclk"`
	MinAreaNFOA int     `json:"minarea_nfoa"`
	MinAreaNF   int     `json:"minarea_nf"`
	MinAreaNFN  int     `json:"minarea_nfn"`
	LACNFOA     int     `json:"lac_nfoa"`
	LACNF       int     `json:"lac_nf"`
	LACNFN      int     `json:"lac_nfn"`
	NWR         int     `json:"nwr"`
}

// resultColumns reads the columns off a completed planning result.
func resultColumns(res *plan.Result) columns {
	return columns{
		Tclk:        res.Tclk,
		MinAreaNFOA: res.MinArea.NFOA, MinAreaNF: res.MinArea.NF, MinAreaNFN: res.MinAreaNFN,
		LACNFOA: res.LAC.NFOA, LACNF: res.LAC.NF, LACNFN: res.LACNFN,
		NWR: res.LAC.NWR,
	}
}

// withoutNFN drops the in-wire flip-flop counts, which run reports do not
// carry, so report columns compare against library columns.
func (c columns) withoutNFN() columns {
	c.MinAreaNFN, c.LACNFN = 0, 0
	return c
}

// reportColumns decodes a run report and reads the columns from its first
// pass's stage counters (periods: tclk; minarea and lac: nfoa, nf; lac:
// rounds). N_FN is not reported and stays 0.
func reportColumns(data []byte) (columns, error) {
	rep, err := obs.DecodeReport(data)
	if err != nil {
		return columns{}, err
	}
	if len(rep.Passes) == 0 {
		return columns{}, fmt.Errorf("report has no passes")
	}
	if e := rep.Passes[0].Err; e != "" {
		return columns{}, fmt.Errorf("report pass failed: %s", e)
	}
	get := map[string]float64{}
	for _, st := range rep.Passes[0].Stages {
		for _, a := range st.Counters {
			get[st.Name+"."+a.Key] = a.Value
		}
	}
	var c columns
	for _, f := range []struct {
		key string
		dst *int
	}{
		{"minarea.nfoa", &c.MinAreaNFOA}, {"minarea.nf", &c.MinAreaNF},
		{"lac.nfoa", &c.LACNFOA}, {"lac.nf", &c.LACNF}, {"lac.rounds", &c.NWR},
	} {
		v, ok := get[f.key]
		if !ok {
			return columns{}, fmt.Errorf("report lacks counter %s", f.key)
		}
		*f.dst = int(v)
	}
	tclk, ok := get["periods.tclk"]
	if !ok {
		return columns{}, fmt.Errorf("report lacks counter periods.tclk")
	}
	c.Tclk = tclk
	return c, nil
}

// diffColumns describes how got differs from want, or returns "" when they
// agree: integers exactly, Tclk to a relative 1e-9 (it is the same float
// computation on both sides; the slack only absorbs printing and platform
// rounding).
func diffColumns(want, got columns) string {
	if math.Abs(want.Tclk-got.Tclk) > 1e-9*math.Max(1, math.Abs(want.Tclk)) {
		return fmt.Sprintf("tclk %v, want %v", got.Tclk, want.Tclk)
	}
	w, g := want, got
	w.Tclk, g.Tclk = 0, 0
	if w != g {
		return fmt.Sprintf("columns %+v, want %+v", g, w)
	}
	return ""
}

//go:embed expected.json
var expectedJSON []byte

// loadExpected parses an expected-columns table: job key ("s953", or
// "s641@0.2" for one alpha of the LAC sweep) → columns at the catalog
// planning seed.
func loadExpected(data []byte) (map[string]columns, error) {
	var m map[string]columns
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("expected columns: %v", err)
	}
	return m, nil
}

// writeExpected regenerates the expected-columns table from library runs
// at the default request configuration and writes it to path.
func writeExpected(path string) error {
	m := map[string]columns{}
	for _, name := range table1Circuits {
		_, st, _, err := runPass(bg, nil, 0, newRequest(name, ""), plan.DefaultStages())
		if err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		m[name] = resultColumns(st.Result)
	}
	for _, name := range sweepCircuits {
		_, st, cfg, err := runPass(bg, nil, 0, newRequest(name, ""), stagesBeforeLAC())
		if err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		for _, a := range sweepAlphas {
			res, err := solveAt(st, cfg, a)
			if err != nil {
				return fmt.Errorf("%s: %v", sweepKey(name, a), err)
			}
			m[sweepKey(name, a)] = resultColumns(res)
		}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
