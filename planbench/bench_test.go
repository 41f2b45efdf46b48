package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	size := serviceSize{block: 10, window: 4, warmup: 10, round: 20}
	keys := func(seed int64) []string {
		s := newSvcSeq(seed, size)
		var out []string
		for i := 0; i < 200; i++ {
			out = append(out, s.at(i).key)
		}
		return out
	}
	if a, b := keys(7), keys(7); !reflect.DeepEqual(a, b) {
		t.Fatalf("service sequence differs for the same seed:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(keys(7), keys(8)) {
		t.Fatal("service sequence identical for different seeds")
	}
	order := func(workload string, seed int64) [][]int {
		rng := defaultConfig(workload, seed, 0).rng()
		var out [][]int
		for i := 0; i < 5; i++ {
			out = append(out, rng.Perm(7))
		}
		return out
	}
	for _, w := range []string{"table1", "lac-sweep"} {
		if a, b := order(w, 3), order(w, 3); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: job order differs for the same seed", w)
		}
		if reflect.DeepEqual(order(w, 3), order(w, 4)) {
			t.Errorf("%s: job order identical for different seeds", w)
		}
	}
}

func TestServiceSequenceShape(t *testing.T) {
	size := serviceSize{block: 10, window: 4, warmup: 10, round: 20}
	s := newSvcSeq(5, size)
	base := map[*svcEntry]bool{}
	for _, e := range s.base {
		base[e] = true
	}
	fresh := map[*svcEntry]int{} // fresh request → its block
	for i := 0; i < 300; i++ {
		e, b := s.at(i), i/size.block
		if base[e] {
			continue // primed during set-up
		}
		fb, seen := fresh[e]
		if !seen {
			if e != s.fresh[b] {
				t.Fatalf("position %d submits %s before its first submission", i, e.key)
			}
			fresh[e] = b
			continue
		}
		if b-fb < 1 || b-fb > size.window {
			t.Fatalf("position %d (block %d) re-submits the fresh request of block %d", i, b, fb)
		}
	}
	if len(fresh) != 300/size.block {
		t.Fatalf("%d fresh requests in %d blocks", len(fresh), 300/size.block)
	}
}

func TestStatistics(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if g := gmean([]float64{1, 100}); g < 9.999999 || g > 10.000001 {
		t.Errorf("gmean(1,100) = %v", g)
	}
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n            int
		level, value float64
	}{
		{1000, 99, 990}, // rank 990, ten beyond
		{999, 90, 900},  // p99 would leave nine beyond
		{100, 90, 90},
		{99, 50, 50},
		{20, 50, 10.5}, // no level has ten beyond: the median
		{15, 50, 8},
	} {
		level, value := tail(seq(tc.n))
		if level != tc.level || value != tc.value {
			t.Errorf("tail(1..%d) = p%v %v, want p%v %v", tc.n, level, value, tc.level, tc.value)
		}
	}
}

// The service's hits and misses are separate jobs, so job_ms_gmean does
// not move with the share of misses.
func TestGmeanIgnoresServiceMix(t *testing.T) {
	ops := func(misses int) []sample {
		var out []sample
		for i := 0; i < 100; i++ {
			o := sample{job: "hit/s386", ms: 1}
			if i < misses {
				o = sample{job: "miss/s386", ms: 100}
			}
			out = append(out, o)
		}
		return out
	}
	for _, misses := range []int{1, 2, 20} {
		if g := summarizeRounds(ops(misses)).jobGmean; g < 9.999999 || g > 10.000001 {
			t.Errorf("%d misses in 100: job_ms_gmean %v, want 10", misses, g)
		}
	}
}

func TestLayerSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "route", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "periods", Start: 40 * ms, End: 90 * ms},
		{ID: 4, Name: "pass", Start: 100 * ms, End: 150 * ms},
		{ID: 5, Parent: 4, Name: "route", Start: 100 * ms, End: 120 * ms},
	}
	lt := layerTimes(spans)
	want := map[string]layerTime{
		"pass":    {Calls: 2, BusyMS: 150, SelfMS: 50},
		"route":   {Calls: 2, BusyMS: 50, SelfMS: 50},
		"periods": {Calls: 1, BusyMS: 50, SelfMS: 50},
	}
	for name, w := range want {
		if got := lt[name]; got == nil || *got != w {
			t.Errorf("%s: %+v, want %+v", name, got, w)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the metric names come from.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// smokeConfig is the minimum-size run of a workload.
func smokeConfig(t *testing.T, workload string, expected map[string]columns) *config {
	c := defaultConfig(workload, 1, 0)
	c.setupReps, c.dataDir = 1, t.TempDir()
	c.expected = expected
	switch workload {
	case "table1", "lazy":
		c.circuits = []string{"s386"}
	case "lac-sweep":
		c.circuits, c.alphas = []string{"s641"}, []float64{0.4}
	case "service":
		c.svc = serviceSize{block: 10, window: 4, warmup: 10, round: 20}
	}
	return c
}

func embeddedExpected(t *testing.T) map[string]columns {
	t.Helper()
	m, err := loadExpected(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	var names []string
	for n, m := range got {
		names = append(names, n)
		if u, ok := want[n]; !ok {
			t.Errorf("metric %s is not declared in BENCHMARK.json", n)
		} else if u != m.Unit {
			t.Errorf("metric %s unit %q, declared %q", n, m.Unit, u)
		}
	}
	sort.Strings(names)
	if len(got) != len(want) {
		t.Errorf("reported %d metrics %v, BENCHMARK.json declares %d", len(got), names, len(want))
	}
}

func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("plans real circuits")
	}
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			c := smokeConfig(t, w, embeddedExpected(t))
			want := endToEnd
			if traced {
				c.trace, want = newTracer(), perLayer
			}
			res, err := execute(io.Discard, c)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res.Metrics, want)
			for n, m := range res.Metrics {
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, n, m.Value)
				}
			}
		}
	}
}

func TestGateRejectsCorruptedExpected(t *testing.T) {
	if testing.Short() {
		t.Skip("plans real circuits")
	}
	for _, w := range []string{"table1", "lazy", "lac-sweep"} {
		exp := embeddedExpected(t)
		for _, key := range []string{"s386", "s641@0.4"} {
			cols := exp[key]
			cols.LACNF++
			exp[key] = cols
		}
		res, err := execute(io.Discard, smokeConfig(t, w, exp))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s with a corrupted expected column: correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
	}
}

func TestServiceGateRejectsColumnMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("plans real circuits")
	}
	// A report whose columns differ from the library pass of the same
	// request counts as a failed operation.
	e := &svcEntry{req: newRequest("s386", ""), key: "s386"}
	cols, _, err := libraryColumns(nil, e.req)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		corrupt bool
		failed  int
	}{{false, 0}, {true, 1}} {
		r := &run{}
		k := &svcChecker{r: r, reported: map[*svcEntry]columns{e: cols}, served: map[*svcEntry]int{e: 1}}
		ref := cols
		if tc.corrupt {
			ref.LACNF++
		}
		k.compareWithLibrary(smokeConfig(t, "service", nil), map[*svcEntry]columns{e: ref})
		if r.failed != tc.failed {
			t.Errorf("corrupt=%v: %d failed, want %d (%v)", tc.corrupt, r.failed, tc.failed, r.failures)
		}
	}
}
