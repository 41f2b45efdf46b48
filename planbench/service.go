package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lacret/internal/check"
	"lacret/internal/job"
	"lacret/internal/plan"
	"lacret/internal/service"
)

// serviceCircuits are the circuits the service workload requests.
var serviceCircuits = []string{"s386", "s400", "s526"}

// serviceSize shapes the service workload's request sequence.
type serviceSize struct {
	block  int // each block of this many requests holds one fresh request
	window int // re-submits pick among the fresh requests of this many earlier blocks
	warmup int // untimed requests before the first timed round
	round  int // requests per timed round
}

var defaultServiceSize = serviceSize{block: 50, window: 16, warmup: 100, round: 1000}

// svcEntry is one distinct request of the sequence.
type svcEntry struct {
	req job.PlanRequest
	key string // circuit@planning-seed
}

// svcSeq is the seeded request sequence. Block b holds one fresh request
// (a new planning seed, so a cache miss: journal append, plan, report
// write) at a seeded position; every other position re-submits a request
// drawn from the base requests and the fresh requests of the window
// blocks before b (a cache hit: those are finished and still in the
// manager's 64-entry cache). Blocks are generated on demand from the seed
// and the block index.
type svcSeq struct {
	seed    int64
	size    serviceSize
	base    []*svcEntry
	fresh   []*svcEntry // fresh[b] is block b's fresh request
	entries []*svcEntry
	used    map[string]bool
}

func newSvcSeq(seed int64, size serviceSize) *svcSeq {
	s := &svcSeq{seed: seed, size: size, used: map[string]bool{}}
	for _, name := range serviceCircuits {
		e := &svcEntry{req: newRequest(name, "")}
		e.key = fmt.Sprintf("%s@%d", name, e.req.Config.Seed)
		s.used[e.key] = true
		s.base = append(s.base, e)
	}
	return s
}

// at returns the request at sequence position i.
func (s *svcSeq) at(i int) *svcEntry {
	for len(s.entries) <= i {
		s.addBlock()
	}
	return s.entries[i]
}

func (s *svcSeq) addBlock() {
	b := len(s.fresh)
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(b)))
	// The fresh circuits rotate, so every run plans the same mix.
	name := serviceCircuits[b%len(serviceCircuits)]
	var f *svcEntry
	for f == nil || s.used[f.key] {
		req := job.PlanRequest{Source: job.Source{Circuit: name}, Config: job.ReqConfig{Seed: 1 + rng.Int63n(1<<31)}}
		req.Normalize()
		f = &svcEntry{req: req, key: fmt.Sprintf("%s@%d", name, req.Config.Seed)}
	}
	s.used[f.key] = true
	s.fresh = append(s.fresh, f)
	pool := append([]*svcEntry(nil), s.base...)
	for k := max(0, b-s.size.window); k < b; k++ {
		pool = append(pool, s.fresh[k])
	}
	miss := rng.Intn(s.size.block)
	for p := 0; p < s.size.block; p++ {
		if p == miss {
			s.entries = append(s.entries, f)
		} else {
			s.entries = append(s.entries, pool[rng.Intn(len(pool))])
		}
	}
}

// svcEndpoint is one set-up of the service: a durable job manager behind
// the HTTP API on a loopback listener, as lacretd -data-dir runs it.
type svcEndpoint struct {
	dir    string
	mgr    *job.Manager
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

func startEndpoint(parentDir string) (*svcEndpoint, error) {
	dir, err := os.MkdirTemp(parentDir, "jobs-")
	if err != nil {
		return nil, err
	}
	mgr, err := job.Open(job.Options{DataDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Shutdown(bg)
		os.RemoveAll(dir)
		return nil, err
	}
	ep := &svcEndpoint{
		dir: dir, mgr: mgr,
		srv:    service.HTTPServer(ln.Addr().String(), service.New(mgr)),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: 2 * time.Minute},
	}
	go func() { ep.served <- ep.srv.Serve(ln) }()
	return ep, nil
}

// stop shuts the server and the manager down, waits for the serve loop,
// and removes the job store.
func (ep *svcEndpoint) stop() {
	ctx, cancel := context.WithTimeout(bg, time.Minute)
	defer cancel()
	ep.srv.Shutdown(ctx)
	<-ep.served
	ep.client.CloseIdleConnections()
	ep.mgr.Shutdown(ctx)
	os.RemoveAll(ep.dir)
}

// svcResult is what one request observed.
type svcResult struct {
	circuit string
	latency time.Duration // submit sent → report bytes held
	submit  time.Duration
	plan    time.Duration // 202 accept → terminal (misses only)
	report  time.Duration
	status  int // submit status code
	round   int // timed round, -1 outside the timed phase
	digest  string
	sum     [32]byte // SHA-256 of the report bytes
	bodyErr error
	data    []byte // the report bytes
}

// do sends one request and fetches its report: POST /v1/jobs; on 202 it
// follows the job's event stream to its terminal state; then it GETs the
// report bytes.
func (ep *svcEndpoint) do(tr *tracer, e *svcEntry) svcResult {
	res := svcResult{circuit: e.req.Source.Circuit}
	rid := tr.begin("request", e.key, 0)
	defer tr.end(rid)
	body, err := json.Marshal(&e.req)
	if err != nil {
		res.bodyErr = err
		return res
	}
	t0 := time.Now()
	sid := tr.begin("http.submit", e.key, rid)
	resp, err := ep.client.Post(ep.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	var sub struct {
		ID     string `json:"id"`
		Digest string `json:"digest"`
		State  string `json:"state"`
	}
	if err == nil {
		res.status = resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&sub)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	tr.end(sid)
	res.submit = time.Since(t0)
	if err != nil {
		res.bodyErr = fmt.Errorf("submit: %v", err)
		return res
	}
	if res.status != http.StatusOK && res.status != http.StatusAccepted {
		res.bodyErr = fmt.Errorf("submit: HTTP %d", res.status)
		return res
	}
	res.digest = sub.Digest
	if res.status == http.StatusAccepted {
		t1 := time.Now()
		eid := tr.begin("http.events", e.key, rid)
		state, err := ep.waitTerminal(sub.ID)
		tr.end(eid)
		res.plan = time.Since(t1)
		if err == nil && state != string(job.StateDone) {
			err = fmt.Errorf("job ended %s", state)
		}
		if err != nil {
			res.bodyErr = fmt.Errorf("events: %v", err)
			return res
		}
	} else if sub.State != string(job.StateDone) {
		res.bodyErr = fmt.Errorf("cache hit in state %s", sub.State)
		return res
	}
	t2 := time.Now()
	pid := tr.begin("http.report", e.key, rid)
	data, err := ep.get("/v1/jobs/" + sub.ID + "/report")
	tr.end(pid)
	res.report = time.Since(t2)
	res.latency = time.Since(t0)
	if err != nil {
		res.bodyErr = fmt.Errorf("report: %v", err)
		return res
	}
	res.sum = sha256.Sum256(data)
	res.data = data
	return res
}

// waitTerminal reads the job's server-sent event stream until the server
// closes it at the terminal state, and returns the last state seen.
func (ep *svcEndpoint) waitTerminal(id string) (string, error) {
	resp, err := ep.client.Get(ep.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	state := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev job.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", err
		}
		if ev.Type == "state" {
			state = string(ev.State)
		}
	}
	return state, sc.Err()
}

func (ep *svcEndpoint) get(path string) ([]byte, error) {
	resp, err := ep.client.Get(ep.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return data, err
}

func (ep *svcEndpoint) stats() (job.Stats, error) {
	var st job.Stats
	data, err := ep.get("/v1/stats")
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	return st, err
}

// svcChecker is the service workload's correctness gate. A digest's first
// report is decoded into its result columns; every later report of the
// digest must be the same bytes. After the timed phase each request's
// columns are compared with a library pass of the same request, and a
// mismatch fails every request that was served that report.
type svcChecker struct {
	r        *run
	sums     map[string][32]byte // digest → first report's SHA-256
	reported map[*svcEntry]columns
	served   map[*svcEntry]int // requests answered with the reported columns
	rejected int
	results  []svcResult
}

func (k *svcChecker) record(e *svcEntry, res svcResult) {
	var cols columns
	var colErr error
	if _, seen := k.sums[res.digest]; res.bodyErr == nil && !seen {
		cols, colErr = reportColumns(res.data)
	}
	res.data = nil
	k.r.attempted++
	if res.round >= 0 {
		k.results = append(k.results, res)
	}
	switch {
	case res.bodyErr != nil:
		if res.status == http.StatusTooManyRequests || res.status == http.StatusServiceUnavailable {
			k.rejected++
		}
		k.r.fail("%s: %v", e.key, res.bodyErr)
		return
	case colErr != nil:
		k.r.fail("%s: %v", e.key, colErr)
		return
	}
	if sum, seen := k.sums[res.digest]; seen {
		if sum != res.sum {
			k.r.fail("%s: report bytes differ from the digest's first report", e.key)
			return
		}
	} else {
		k.sums[res.digest] = res.sum
		k.reported[e] = cols
	}
	k.served[e]++
}

// libraryColumns plans the request through the library, verifies the pass
// with check.Verify, and returns its columns in report form with the
// pass's state.
func libraryColumns(tr *tracer, req job.PlanRequest) (columns, *plan.PlanState, error) {
	_, st, _, err := runPass(bg, tr, 0, req, plan.DefaultStages())
	if err != nil {
		return columns{}, nil, err
	}
	if _, err := check.Verify(st.Result); err != nil {
		return columns{}, nil, err
	}
	return resultColumns(st.Result).withoutNFN(), st, nil
}

// compareWithLibrary checks every reported request against a library pass
// of the same request, on two goroutines (the machine's two CPUs).
func (k *svcChecker) compareWithLibrary(c *config, ref map[*svcEntry]columns) {
	var todo []*svcEntry
	for e := range k.reported {
		if _, ok := ref[e]; !ok {
			todo = append(todo, e)
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(todo) {
					return
				}
				cols, st, err := libraryColumns(c.trace, todo[i].req)
				mu.Lock()
				if err != nil {
					k.r.fail("%s: library pass: %v", todo[i].key, err)
				} else {
					ref[todo[i]] = cols
					k.r.layers.addPass(st)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for e, got := range k.reported {
		want, ok := ref[e]
		if !ok {
			continue // the library pass failed and was counted above
		}
		if d := diffColumns(want, got); d != "" {
			for i := 0; i < k.served[e]; i++ {
				k.r.fail("%s: report vs library: %s", e.key, d)
			}
		}
	}
}

// runService is the service workload: one closed-loop client replaying
// the seeded request sequence against an in-process lacretd (durable job
// manager + HTTP API on loopback). Set-up starts a fresh endpoint on an
// empty store and primes its cache with the base requests; the timed phase
// runs rounds of c.svc.round requests. The hit/miss mix is an assumption
// (see README.md); the per-job medians keep hits and misses apart.
func runService(c *config) *run {
	r := &run{}
	seq := newSvcSeq(c.seed, c.svc)
	ref := map[*svcEntry]columns{}
	for _, e := range seq.base {
		cols, st, err := libraryColumns(c.trace, e.req)
		if err != nil {
			r.setupErr = fmt.Errorf("%s: %v", e.key, err)
			return r
		}
		ref[e] = cols
		r.layers.addPass(st)
	}
	k := &svcChecker{r: r, reported: map[*svcEntry]columns{}, served: map[*svcEntry]int{}}
	// Set-up is timed in two parts, each reported by its median: opening
	// the store and starting the server, then priming the cache.
	r.setupS = make([][]float64, 2)
	var ep *svcEndpoint
	for rep := 0; rep < c.setupReps; rep++ {
		if ep != nil {
			ep.stop()
		}
		runtime.GC()
		t0 := time.Now()
		sid := c.trace.begin("setup", "", 0)
		var err error
		ep, err = startEndpoint(c.dataDir)
		if err != nil {
			r.setupErr = err
			return r
		}
		t1 := time.Now()
		primed := make([]svcResult, len(seq.base))
		for i, e := range seq.base {
			primed[i] = ep.do(c.trace, e)
			if err := primed[i].bodyErr; err != nil {
				ep.stop()
				r.setupErr = fmt.Errorf("prime %s: %v", e.key, err)
				return r
			}
		}
		c.trace.end(sid)
		r.setupS[0] = append(r.setupS[0], t1.Sub(t0).Seconds())
		r.setupS[1] = append(r.setupS[1], time.Since(t1).Seconds())
		k.sums = map[string][32]byte{}
		for i, e := range seq.base {
			primed[i].round = -1
			k.record(e, primed[i])
		}
	}
	defer ep.stop()

	// replay sends the requests at sequence positions [from, to).
	replay := func(from, to, round int) {
		for i := from; i < to; i++ {
			e := seq.at(i)
			res := ep.do(c.trace, e)
			res.round = round
			k.record(e, res)
		}
	}
	replay(0, c.svc.warmup, -1)
	before, err := ep.stats()
	if err != nil {
		r.setupErr = fmt.Errorf("stats: %v", err)
		return r
	}
	var roundS []float64
	start := time.Now()
	pos := c.svc.warmup
	for round := 0; round == 0 || time.Since(start) < c.seconds; round++ {
		runtime.GC()
		t0 := time.Now()
		replay(pos, pos+c.svc.round, round)
		roundS = append(roundS, time.Since(t0).Seconds())
		pos += c.svc.round
		r.rounds++
	}
	r.rssMB = peakRSSMB()
	r.wallS = median(roundS)
	after, err := ep.stats()
	if err != nil {
		r.fail("stats: %v", err)
	}
	k.compareWithLibrary(c, ref)

	// A job is a circuit's cache hits or its cache misses, so hits and
	// misses weigh the same in job_ms_gmean whatever the mix.
	var submit, planMS, report, hitMS, missMS []float64
	for _, res := range k.results {
		if res.bodyErr != nil {
			continue
		}
		kind := "hit/"
		if res.status == http.StatusAccepted {
			kind = "miss/"
			planMS = append(planMS, ms(res.plan))
			missMS = append(missMS, ms(res.latency))
		} else {
			hitMS = append(hitMS, ms(res.latency))
		}
		r.ops = append(r.ops, sample{job: kind + res.circuit, ms: ms(res.latency), round: res.round})
		submit = append(submit, ms(res.submit))
		report = append(report, ms(res.report))
	}
	r.lat, r.byRound = summarizeRounds(r.ops), true
	hits := float64(after.CacheHits - before.CacheHits)
	misses := float64(after.CacheMisses - before.CacheMisses)
	r.svcLayers = map[string]float64{
		"job.cache_hit_ratio":   ratio(hits, hits+misses),
		"job.queue_wait_ms_p50": after.Metrics.Histograms["job.queue_wait_ms"].P50,
		"job.rejected":          float64(k.rejected),
		"job.plan_ms_p50":       median(planMS),
		"service.submit_ms_p50": median(submit),
		"service.report_ms_p50": median(report),
		"service.hit_ms_p50":    median(hitMS),
		"service.miss_ms_p50":   median(missMS),
		"service.req_ms_p99":    r.lat.tail,
	}
	return r
}
