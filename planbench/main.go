// Command planbench is the planner's benchmark. It runs one seeded
// workload against the planner's public entry points, checks every result,
// and prints each metric by name with its unit; the last line of standard
// output is one JSON object with the fields correct, attempted, failed and
// metrics. See README.md for the workloads and metrics.
//
//	bash planbench/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads names every workload in the order they are documented.
var workloads = []string{"table1", "lazy", "lac-sweep", "service"}

// config is one invocation of a workload.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    *tracer // nil for the untraced runs
	expected map[string]columns
	// setupReps is how often set-up runs; setup_s is the median.
	setupReps int
	// Workload sizes; the smoke tests shrink them.
	circuits []string
	alphas   []float64
	svc      serviceSize
	// dataDir holds the service workload's durable job store.
	dataDir string
}

// defaultConfig sizes a workload as the benchmark runs it.
func defaultConfig(workload string, seed int64, seconds time.Duration) *config {
	c := &config{workload: workload, seed: seed, seconds: seconds, setupReps: 3}
	switch workload {
	case "table1", "lazy":
		c.circuits = table1Circuits
	case "lac-sweep":
		c.circuits, c.alphas = sweepCircuits, sweepAlphas
	case "service":
		c.svc, c.setupReps = defaultServiceSize, 7
	}
	return c
}

// rng derives the workload's random stream from the seed and the workload
// name, so the workloads of one seed draw independent streams.
func (c *config) rng() *rand.Rand {
	h := fnv.New64a()
	io.WriteString(h, c.workload)
	return rand.New(rand.NewSource(c.seed ^ int64(h.Sum64())))
}

// sample is one timed operation of a job.
type sample struct {
	job   string
	ms    float64
	round int
}

// run collects what one workload invocation measured.
type run struct {
	setupErr  error
	attempted int
	failed    int
	failures  []string
	// setupS holds each set-up's time per part: one part for the
	// library workloads, store open and cache priming for service.
	setupS  [][]float64
	rounds  int
	ops     []sample // timed operations
	byRound bool     // lat summarizes each round, median over rounds
	wallS   float64
	lat     latency
	rssMB   float64
	layers  layerCounts
	// service-only per-layer values
	svcLayers map[string]float64
}

// fail counts a failed operation; the first few reasons are kept for the
// report.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// finishLibrary derives wall_s for the library workloads: the time of one
// round of the job list at each job's median speed (the sum of the per-job
// median times), which stays steady when a run fits only a few rounds.
func (r *run) finishLibrary() {
	r.rssMB = peakRSSMB()
	for _, m := range jobMedians(r.ops) {
		r.wallS += m / 1000
	}
	r.lat = summarize(r.ops)
}

// latency summarizes timed operations: the geometric mean of the per-job
// medians, and the tail of all operations at the level tail chose.
type latency struct {
	jobGmean, tailLevel, tail float64
}

func summarize(ops []sample) latency {
	times := make([]float64, len(ops))
	for i, o := range ops {
		times[i] = o.ms
	}
	var meds []float64
	for _, m := range jobMedians(ops) {
		meds = append(meds, m)
	}
	level, v := tail(times)
	return latency{jobGmean: gmean(meds), tailLevel: level, tail: v}
}

// summarizeRounds summarizes each round on its own and takes the median of
// each statistic over the rounds, so a burst of interference that slows
// one round moves none of them.
func summarizeRounds(ops []sample) latency {
	by := map[int][]sample{}
	for _, o := range ops {
		by[o.round] = append(by[o.round], o)
	}
	var g, t, lv []float64
	for _, rops := range by {
		l := summarize(rops)
		g, t, lv = append(g, l.jobGmean), append(t, l.tail), append(lv, l.tailLevel)
	}
	return latency{jobGmean: median(g), tailLevel: median(lv), tail: median(t)}
}

// jobMedians maps each job to the median of its timed operations.
func jobMedians(ops []sample) map[string]float64 {
	by := map[string][]float64{}
	for _, o := range ops {
		by[o.job] = append(by[o.job], o.ms)
	}
	out := make(map[string]float64, len(by))
	for j, xs := range by {
		out[j] = median(xs)
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics and prints one line per metric
// and per job.
func endToEnd(w io.Writer, r *run) map[string]metric {
	meds := jobMedians(r.ops)
	count := map[string]int{}
	for _, o := range r.ops {
		count[o.job]++
	}
	var jobs []string
	for j := range meds {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return meds[jobs[a]] < meds[jobs[b]] })
	for _, j := range jobs {
		fmt.Fprintf(w, "job %-12s median %10.3f ms  n=%d\n", j, meds[j], count[j])
	}
	setupS := 0.0
	for _, part := range r.setupS {
		setupS += median(part)
	}
	perRound := ""
	if r.byRound {
		perRound = ", per round, median over rounds"
	}
	m := map[string]metric{
		"wall_s":       {r.wallS, "s"},
		"setup_s":      {setupS, "s"},
		"peak_rss_mb":  {r.rssMB, "MB"},
		"job_ms_gmean": {r.lat.jobGmean, "ms"},
	}
	notes := map[string]string{
		"wall_s":       fmt.Sprintf("%d rounds", r.rounds),
		"setup_s":      fmt.Sprintf("%d set-ups, sum over %d part(s) of each part's median", len(r.setupS[0]), len(r.setupS)),
		"peak_rss_mb":  "VmHWM",
		"job_ms_gmean": fmt.Sprintf("%d jobs%s", len(meds), perRound),
	}
	printMetrics(w, m, notes)
	return m
}

func printMetrics(w io.Writer, m map[string]metric, notes map[string]string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-34s %14.4f %-6s %s\n", n, m[n].Value, m[n].Unit, notes[n])
	}
}

// perLayer computes the per-layer metrics of a traced run from its spans
// and work counts, and prints every layer's busy and self time. Busy times
// and counts are means per call of the layer; ratios are ratios of totals.
func perLayer(w io.Writer, r *run, spans []span) map[string]metric {
	lt := layerTimes(spans)
	for _, n := range sortedNames(lt) {
		l := lt[n]
		fmt.Fprintf(w, "layer %-16s calls %6d  busy %12.3f ms  self %12.3f ms\n", n, l.Calls, l.BusyMS, l.SelfMS)
	}
	busy := func(names ...string) float64 {
		total, calls := 0.0, 0
		for _, n := range names {
			if l := lt[n]; l != nil {
				total += l.BusyMS
				calls += l.Calls
			}
		}
		return ratio(total, float64(calls))
	}
	lc := &r.layers
	passes := float64(lc.passes)
	probed := float64(lc.probedPasses)
	solves := float64(lc.lacSolves)
	m := map[string]metric{
		"partition.busy_ms":            {busy("partition"), "ms"},
		"floorplan.busy_ms":            {busy("floorplan"), "ms"},
		"route.busy_ms":                {busy("route"), "ms"},
		"route.ripup_rounds":           {ratio(lc.ripup, passes), "count"},
		"repeater.busy_ms":             {busy("repeaters"), "ms"},
		"repeater.count":               {ratio(lc.repeaters, passes), "count"},
		"retime.graph.busy_ms":         {busy("graph"), "ms"},
		"retime.graph.vertices":        {ratio(lc.vertices, passes), "count"},
		"retime.periods.busy_ms":       {busy("periods"), "ms"},
		"retime.periods.probes":        {ratio(lc.probes, probed), "count"},
		"retime.periods.witness_ratio": {ratio(lc.witness, lc.probes), "ratio"},
		"retime.periods.pairs_scanned": {ratio(lc.pairsScanned, probed), "count"},
		"retime.periods.index_pairs":   {ratio(lc.indexPairs, probed), "count"},
		"retime.constraints.busy_ms":   {busy("constraints"), "ms"},
		"retime.constraints.count":     {ratio(lc.constraints, float64(lc.constraintPasses)), "count"},
		"retime.source.dense_mb":       {ratio(lc.denseBytes, probed) / 1e6, "MB"},
		"retime.source.sweeps":         {ratio(lc.sweeps, probed), "count"},
		"retime.source.hit_ratio":      {ratio(lc.hits, lc.hits+lc.sweeps), "ratio"},
		"retime.source.evictions":      {ratio(lc.evictions, probed), "count"},
		"retime.minarea.busy_ms":       {busy("minarea"), "ms"},
		"core.lac.busy_ms":             {busy("lac", "core.solve"), "ms"},
		"core.lac.rounds":              {ratio(lc.lacRounds, solves), "count"},
		"core.lac.improving_ratio":     {ratio(lc.improving, lc.lacRounds), "ratio"},
		"mcmf.augpaths":                {ratio(lc.augpaths, solves), "count"},
		"mcmf.phases":                  {ratio(lc.phases, solves), "count"},
		"mcmf.warm_ratio":              {ratio(lc.warms, lc.lacRounds), "ratio"},
		"job.cache_hit_ratio":          {0, "ratio"},
		"job.queue_wait_ms_p50":        {0, "ms"},
		"job.rejected":                 {0, "count"},
		"job.plan_ms_p50":              {0, "ms"},
		"service.submit_ms_p50":        {0, "ms"},
		"service.report_ms_p50":        {0, "ms"},
		"service.hit_ms_p50":           {0, "ms"},
		"service.miss_ms_p50":          {0, "ms"},
		"service.req_ms_p99":           {0, "ms"},
		"trace.wall_s":                 {r.wallS, "s"},
	}
	for k, v := range r.svcLayers {
		m[k] = metric{v, m[k].Unit}
	}
	var notes map[string]string
	if r.svcLayers != nil {
		notes = map[string]string{"service.req_ms_p99": fmt.Sprintf("reported at p%g per round, median over rounds", r.lat.tailLevel)}
	}
	printMetrics(w, m, notes)
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs the configured workload and returns its result.
func execute(w io.Writer, c *config) (*result, error) {
	var r *run
	switch c.workload {
	case "table1":
		r = runPasses(c, "")
	case "lazy":
		r = runPasses(c, "lazy")
	case "lac-sweep":
		r = runSweep(c)
	case "service":
		r = runService(c)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", c.workload, strings.Join(workloads, ", "))
	}
	if r.setupErr != nil {
		return nil, fmt.Errorf("%s set-up: %v", c.workload, r.setupErr)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	res := &result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed}
	if c.trace == nil {
		res.Metrics = endToEnd(w, r)
	} else {
		res.Metrics = perLayer(w, r, c.trace.spans)
	}
	return res, nil
}

func main() {
	var (
		workload = flag.String("workload", "table1", "workload: "+strings.Join(workloads, ", "))
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 15, "length of the timed phase in seconds")
		traced   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		outDir   = flag.String("out-dir", ".bench_build", "directory for the span file and the service's job store")
		writeExp = flag.String("write-expected", "", "regenerate the expected-columns table into this file and exit")
	)
	flag.Parse()
	// At most two threads: the benchmark's load must fit the machine's two
	// CPUs and must not change with the host's core count.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	if *writeExp != "" {
		if err := writeExpected(*writeExp); err != nil {
			fmt.Fprintln(os.Stderr, "planbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := mainRun(*workload, *seed, *seconds, *traced == 1, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "planbench:", err)
		os.Exit(1)
	}
}

func mainRun(workload string, seed int64, seconds float64, traced bool, outDir string) error {
	expected, err := loadExpected(expectedJSON)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	c := defaultConfig(workload, seed, time.Duration(seconds*float64(time.Second)))
	c.expected = expected
	c.dataDir = outDir
	if traced {
		c.trace = newTracer()
	}
	res, err := execute(os.Stdout, c)
	if err != nil {
		return err
	}
	if traced {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
		if err := c.trace.writeSpans(path, workload, seed); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
