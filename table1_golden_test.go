package lacret

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"lacret/internal/bench89"
	"lacret/internal/experiments"
	"lacret/internal/plan"
)

// updateTable1 rewrites testdata/table1_golden.json from the current
// engine: go test -run TestTable1Golden -update-table1 . (with
// LACRET_SMOKE=1 to include s5378).
var updateTable1 = flag.Bool("update-table1", false, "rewrite testdata/table1_golden.json")

const table1GoldenPath = "testdata/table1_golden.json"

// table1Side is one retiming mode's Table 1 result columns.
type table1Side struct {
	NFOA int `json:"nfoa"`
	NF   int `json:"nf"`
	NFN  int `json:"nfn"`
	NWR  int `json:"nwr"`
}

// table1Pass is one planning pass's Table 1 columns (Texec left out): the
// target period, the min-area and LAC sides, or the error that ended the
// pass.
type table1Pass struct {
	Tclk    float64     `json:"tclk,omitempty"`
	MinArea *table1Side `json:"minarea,omitempty"`
	LAC     *table1Side `json:"lac,omitempty"`
	Err     string      `json:"err,omitempty"`
}

// table1Passes plans one catalog circuit as the Table 1 driver does
// (experiments.DefaultConfig at the catalog seed, up to two passes) and
// returns each pass's columns.
func table1Passes(t *testing.T, name string) []table1Pass {
	p, ok := bench89.ByName(name)
	if !ok {
		t.Fatalf("no %s in catalog", name)
	}
	nl, err := bench89.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.DefaultConfig()
	cfg.Seed = p.Seed
	iters, err := plan.PlanIterations(nl, cfg, 2)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out []table1Pass
	for _, it := range iters {
		if it.Err != nil {
			out = append(out, table1Pass{Err: it.Err.Error()})
			continue
		}
		res := it.Result
		out = append(out, table1Pass{
			Tclk:    res.Tclk,
			MinArea: &table1Side{NFOA: res.MinArea.NFOA, NF: res.MinArea.NF, NFN: res.MinAreaNFN, NWR: res.MinArea.NWR},
			LAC:     &table1Side{NFOA: res.LAC.NFOA, NF: res.LAC.NF, NFN: res.LACNFN, NWR: res.LAC.NWR},
		})
	}
	return out
}

// TestTable1Golden pins the Table 1 result columns of every Table 1
// circuit, pass 1 and pass 2: Tclk, min-area and LAC N_FOA, N_F, N_FN and
// N_wr. The nine circuits below s5378 plan in about a second together;
// s5378's two passes take several more (all ten ran in 7-8 s on 2 vCPUs)
// and run only with LACRET_SMOKE set.
func TestTable1Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog circuits in short mode")
	}
	smoke := os.Getenv("LACRET_SMOKE") != ""
	var names []string
	for _, name := range experiments.Table1Names() {
		if name != "s5378" || smoke {
			names = append(names, name)
		}
	}
	got := make([][]table1Pass, len(names))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			got[i] = table1Passes(t, name)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	want := map[string][]table1Pass{}
	if b, err := os.ReadFile(table1GoldenPath); err == nil {
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("%s: %v", table1GoldenPath, err)
		}
	} else if !*updateTable1 {
		t.Fatal(err)
	}
	if *updateTable1 {
		for i, name := range names {
			want[name] = got[i]
		}
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(table1GoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for i, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not in %s", name, table1GoldenPath)
			continue
		}
		if !reflect.DeepEqual(got[i], w) {
			gb, _ := json.Marshal(got[i])
			wb, _ := json.Marshal(w)
			t.Errorf("%s:\n got %s\nwant %s", name, gb, wb)
		}
	}
}

// TestTable1GoldenAverages rebuilds the Table 1 rows from the pinned
// columns of testdata/table1_golden.json and checks the headline as the
// table prints it: the nine circuits below s5378 average a 91% N_FOA
// decrease in one planning pass and 93% after floorplan expansion; with
// s5378 (under LACRET_SMOKE, as in TestTable1Golden) 84%, the paper's
// one-pass figure, and 94%.
func TestTable1GoldenAverages(t *testing.T) {
	b, err := os.ReadFile(table1GoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var pinned map[string][]table1Pass
	if err := json.Unmarshal(b, &pinned); err != nil {
		t.Fatalf("%s: %v", table1GoldenPath, err)
	}
	smoke := os.Getenv("LACRET_SMOKE") != ""
	var rows []experiments.Row
	for _, name := range experiments.Table1Names() {
		if name == "s5378" && !smoke {
			continue
		}
		passes := pinned[name]
		if len(passes) == 0 || passes[0].MinArea == nil || passes[0].LAC == nil {
			t.Fatalf("%s: no pass-1 columns in %s", name, table1GoldenPath)
		}
		row := experiments.Row{
			Circuit: name,
			MinArea: experiments.Side{NFOA: passes[0].MinArea.NFOA},
			LAC:     experiments.Side{NFOA: passes[0].LAC.NFOA},
			NFOA2:   -1,
		}
		if len(passes) > 1 {
			if p2 := passes[1]; p2.Err != "" {
				row.SecondIterErr = p2.Err
			} else {
				row.NFOA2 = p2.LAC.NFOA
			}
		}
		row.SetDecreases()
		rows = append(rows, row)
	}
	want := "91% / 93%"
	if smoke {
		want = "84% / 94%"
	}
	pass1, final := experiments.Averages(rows)
	if got := fmt.Sprintf("%.0f%% / %.0f%%", pass1, final); got != want {
		t.Errorf("%d circuits average %s (pass 1 / after expansion), want %s", len(rows), got, want)
	}
}
