package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"magis/internal/cost"
	"magis/internal/graph"
	"magis/internal/graphio"
	"magis/internal/ingest"
	"magis/internal/models"
	"magis/internal/opt"
	"magis/internal/plancache"
	"magis/internal/serve"
	"magis/internal/tensor"
)

// Every serve request asks for the same small fixed-work search, so a hit
// names exactly the cache key its pre-warm filled.
const (
	hotIterations = 10
	hotBudget     = "30s"
	// zipfS skews hot-set popularity: the first entry draws about 40% of
	// the hits, the last about 4%.
	zipfS = 1.1
	// serve-hot: an open loop at hotRate for hotOpenShare of the window,
	// then a closed loop on one connection per CPU for the rest.
	hotRate      = 100.0
	hotOpenShare = 0.6
	// serve-churn: readers send hits in an open loop at churnHitRate while
	// one writer sends misses back to back. At most churnHitRate × the
	// longest miss (under a second) hits queue behind a miss, which stays
	// below the default queue depth of 8.
	churnHitRate = 6.0
	// defaultLimit is the service's default latency overhead; a warm miss
	// asks for defaultLimit + k·1e-4, a limit no earlier request used.
	defaultLimit = 0.10
)

// churnMisses is the writer's repeating script: three warm misses (a named
// MLP entry under a new limit: a seeded search, then a verified cache
// admission) to two cold misses (a graph never seen).
var churnMisses = []string{"warm", "cold", "warm", "cold", "warm"}

// hotSpec is one entry of a hot set: a graph document, or a named MLP at
// a batch scale.
type hotSpec struct {
	doc   func() *models.Workload
	scale float64
}

// hotSpecs is the serve hot set in popularity order: five graph documents
// of about 75 KB and three named MLP requests, interleaved.
var hotSpecs = []hotSpec{
	{doc: bertMini},
	{scale: 0.001},
	{doc: func() *models.Workload { return models.UNetConfig(1, 32, 8, 2) }},
	{doc: func() *models.Workload {
		return models.TransformerLM("GPT-Neo-mini", 1, 16, 64, 2, 4, 256, tensor.BF16, false)
	}},
	{scale: 0.002},
	{doc: func() *models.Workload { return models.UNetPPConfig(1, 32, 8, 2) }},
	{doc: func() *models.Workload {
		return models.TransformerLM("BTLM-mini", 1, 16, 80, 2, 4, 256, tensor.BF16, false)
	}},
	{scale: 0.004},
}

// entry is one distinct request of a hot set.
type entry struct {
	name string
	req  serve.OptimizeRequest
	doc  []byte       // the graph document; nil for a named model
	g    *graph.Graph // the graph the server searches
	base *opt.State   // its unoptimized evaluation
	peak int64        // the plan peak its pre-warm settled with
}

func docEntry(w *models.Workload) (*entry, error) {
	var buf bytes.Buffer
	if err := graphio.Save(&buf, w.G, nil); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	g, _, err := ingest.Decode(bytes.NewReader(buf.Bytes()), ingest.DefaultLimits())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return &entry{name: w.Name, doc: buf.Bytes(), g: g, base: opt.Baseline(g, cost.NewModel(cost.RTX3090())),
		req: serve.OptimizeRequest{Graph: buf.Bytes(), Iterations: hotIterations, Workers: 1, Budget: hotBudget}}, nil
}

func (r *run) hotSet(parent int64, specs []hotSpec) ([]*entry, error) {
	var hot []*entry
	for _, sp := range specs {
		if sp.doc != nil {
			e, err := docEntry(sp.doc())
			if err != nil {
				return nil, err
			}
			hot = append(hot, e)
			continue
		}
		var w *models.Workload
		var err error
		r.build(parent, func() { w, err = models.ByName("mlp", sp.scale) })
		if err != nil {
			return nil, err
		}
		hot = append(hot, &entry{name: fmt.Sprintf("mlp@%g", sp.scale), g: w.G,
			base: opt.Baseline(w.G, cost.NewModel(cost.RTX3090())),
			req:  serve.OptimizeRequest{Model: "mlp", Scale: sp.scale, Iterations: hotIterations, Workers: 1, Budget: hotBudget}})
	}
	return hot, nil
}

// request is one planned call and what it must return.
type request struct {
	at       time.Duration // due time, from the start of the loop
	kind     string        // hit, warm, cold or prewarm
	body     []byte
	named    bool
	basePeak int64 // the baseline peak of its graph, for mem_ratio
	wantPeak int64 // hits: the plan peak of the pre-warm
}

func (e *entry) request(kind string, limit float64) (*request, error) {
	req := e.req
	req.Limit = limit
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &request{kind: kind, body: body, named: e.doc == nil, basePeak: e.base.PeakMem, wantPeak: e.peak}, nil
}

// jobView is the part of GET /jobs/{id} the benchmark reads.
type jobView struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Error    string     `json:"error"`
	Result   *struct {
		PeakMemBytes int64  `json:"peak_mem_bytes"`
		Cache        string `json:"cache"`
		Degraded     bool   `json:"degraded"`
	} `json:"result"`
}

func terminal(state string) bool {
	switch state {
	case "done", "failed", "cancelled", "shed":
		return true
	}
	return false
}

// outcome is a finished request as the client saw it.
type outcome struct {
	req                     *request
	due, sent, posted, done time.Time
	polls                   int
	traced                  bool
	job                     jobView
	err                     error
}

func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// verify checks the answer: done, not degraded, served the way it was
// planned; a hit returns exactly the plan its pre-warm found.
func (o *outcome) verify() error {
	if o.err != nil {
		return o.err
	}
	j := o.job
	if j.State != "done" || j.Result == nil {
		return fmt.Errorf("%s request %s settled %s: %s", o.req.kind, j.ID, j.State, j.Error)
	}
	if j.Result.Degraded {
		return fmt.Errorf("%s request %s was degraded", o.req.kind, j.ID)
	}
	want := map[string]string{"hit": "hit", "warm": "warm", "cold": ""}
	if c, ok := want[o.req.kind]; ok && j.Result.Cache != c {
		return fmt.Errorf("%s request %s was served as cache %q", o.req.kind, j.ID, j.Result.Cache)
	}
	if o.req.kind == "prewarm" && j.Result.Cache == "hit" {
		return fmt.Errorf("pre-warm request %s was a cache hit", j.ID)
	}
	if o.req.kind == "hit" && j.Result.PeakMemBytes != o.req.wantPeak {
		return fmt.Errorf("hit %s returned peak %d, its pre-warm found %d", j.ID, j.Result.PeakMemBytes, o.req.wantPeak)
	}
	return nil
}

// client sends requests on at most one connection per CPU.
type client struct {
	url string
	hc  *http.Client
	rec *recorder
}

func newClient(url string, rec *recorder) *client {
	n := runtime.NumCPU()
	return &client{url: url, rec: rec, hc: &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n},
	}}
}

// call makes one HTTP exchange and decodes the JSON reply into v. A status
// other than want is an error.
func (c *client) call(method, path string, body []byte, want int, v any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.url+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// do sends q, then polls its job every millisecond for the first 20 ms and
// every 5 ms after, until it settles. Latency runs from due to the poll
// that saw the job settle.
func (c *client) do(q *request, due time.Time, traced bool) outcome {
	o := outcome{req: q, due: due, traced: traced}
	var rec *recorder
	if traced {
		rec = c.rec
	}
	root := rec.id()
	o.sent = time.Now()
	o.err = c.call(http.MethodPost, "/optimize", q.body, http.StatusAccepted, &o.job)
	o.posted = time.Now()
	rec.add(rec.id(), root, root, "client.post", o.sent, o.posted)
	for o.err == nil && !terminal(o.job.State) {
		wait := 5 * time.Millisecond
		if time.Since(o.sent) < 20*time.Millisecond {
			wait = time.Millisecond
		}
		time.Sleep(wait)
		start := time.Now()
		o.err = c.call(http.MethodGet, "/jobs/"+o.job.ID, nil, http.StatusOK, &o.job)
		o.polls++
		rec.add(rec.id(), root, root, "client.poll", start, time.Now())
	}
	o.done = time.Now()
	if j := o.job; o.err == nil && j.Started != nil && j.Finished != nil {
		rec.add(rec.id(), root, root, "serve.queue", j.Created, *j.Started)
		rec.add(rec.id(), root, root, "serve.run", *j.Started, *j.Finished)
	}
	rec.add(root, 0, root, "request", due, o.done)
	return o
}

// openLoop sends each request on its own goroutine at its due time and
// returns the outcomes once all have settled. In a traced run every other
// request is traced.
func (c *client) openLoop(reqs []*request, trace bool) []outcome {
	out := make([]outcome, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for i, q := range reqs {
		due := start.Add(q.at)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = c.do(q, due, trace && i%2 == 0)
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs one caller per picker, each sending its next request as
// soon as the previous one settled, for d or until its picker returns nil.
// It returns the outcomes and how long the loop ran.
func (c *client) closedLoop(d time.Duration, next []func() *request) ([]outcome, time.Duration) {
	var mu sync.Mutex
	var out []outcome
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for _, pick := range next {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				q := pick()
				if q == nil {
					return
				}
				o := c.do(q, time.Now(), false)
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// counters is a reading of the service and cache counters.
type counters struct {
	svc   map[string]float64
	cache plancache.Stats
}

// session is an in-process magis service on a loopback port, with a real
// plan cache and checkpoint directory in a fresh temp directory, and its
// hot set pre-warmed.
type session struct {
	srv    *serve.Server
	cache  *plancache.Cache
	hs     *http.Server
	dir    string
	served chan struct{}
	c      *client
	hot    []*entry
	pre    []outcome // the pre-warm requests
	hits   []*request
}

// startSession builds the hot set, starts a server and pre-warms every
// entry with one cold request at a time; later hits must return exactly
// the plan each pre-warm settled with.
func (r *run) startSession(parent int64, specs []hotSpec) (*session, error) {
	hot, err := r.hotSet(parent, specs)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "magis-bench-*")
	if err != nil {
		return nil, err
	}
	cache, err := plancache.Open(plancache.Config{Dir: filepath.Join(dir, "plans")})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &session{
		srv: serve.New(serve.Config{
			Model:         cost.NewModel(cost.RTX3090()),
			Cache:         cache,
			CheckpointDir: filepath.Join(dir, "checkpoints"),
		}),
		cache:  cache,
		dir:    dir,
		served: make(chan struct{}),
		c:      newClient("http://"+ln.Addr().String(), r.rec),
		hot:    hot,
	}
	s.srv.Start()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	for _, e := range hot {
		q, err := e.request("prewarm", 0)
		if err != nil {
			s.close()
			return nil, err
		}
		o := s.c.do(q, time.Now(), true)
		if r.op(o.verify()) {
			e.peak = o.job.Result.PeakMemBytes
		}
		s.pre = append(s.pre, o)
		hit, err := e.request("hit", 0)
		if err != nil {
			s.close()
			return nil, err
		}
		s.hits = append(s.hits, hit)
	}
	return s, nil
}

// close stops the server, drains the service and removes its directory.
func (s *session) close() {
	s.c.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx) // errors only when ctx expires, which Drain reports too
	<-s.served
	if err := s.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.RemoveAll(s.dir)
}

func (s *session) counters() (counters, error) {
	var m map[string]any
	if err := s.c.call(http.MethodGet, "/metrics", nil, http.StatusOK, &m); err != nil {
		return counters{}, err
	}
	out := counters{svc: map[string]float64{}, cache: s.cache.Stats()}
	for k, v := range m {
		if f, ok := v.(float64); ok {
			out.svc[k] = f
		}
	}
	return out, nil
}

// quiesce waits for the server to settle after the traffic and checks that
// it holds nothing: no queued or running job, no admission cost, and every
// admitted job accounted for as completed, failed, cancelled or shed.
func (r *run) quiesce(s *session) {
	var hz map[string]any
	var err error
	idle := false
	for deadline := time.Now().Add(10 * time.Second); !idle && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		hz = nil
		err = s.c.call(http.MethodGet, "/healthz", nil, http.StatusOK, &hz)
		idle = err == nil && hz["queue_depth"] == 0.0 && hz["in_flight"] == 0.0 && hz["cost_in_use_ms"] == 0.0
	}
	r.check(idle, "server did not quiesce: %v %v", hz, err)
	m, err := s.counters()
	if !r.op(err) {
		return
	}
	settled := m.svc["completed"] + m.svc["failed"] + m.svc["cancelled"] + m.svc["shed_expired"] + m.svc["shed_evicted"]
	r.check(m.svc["admitted"] == settled, "admitted %v jobs but settled %v", m.svc["admitted"], settled)
}

// arrivals returns the due times of an open loop over d with seeded,
// jittered spacing: each gap is 1/rate × U(0.5, 1.5). Unlike Poisson
// arrivals these never bunch up enough to overrun the default queue depth
// of 8 by chance.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var at []time.Duration
	for t := 0.0; ; {
		t += (0.5 + rng.Float64()) / rate
		if t >= d.Seconds() {
			return at
		}
		at = append(at, time.Duration(t*float64(time.Second)))
	}
}

// zipfHits returns a picker of hit requests with Zipf(zipfS) popularity
// over the hot set in its listed order.
func zipfHits(rng *rand.Rand, hits []*request) func() *request {
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(hits)-1))
	return func() *request { return hits[z.Uint64()] }
}

func at(q *request, d time.Duration) *request {
	c := *q
	c.at = d
	return &c
}

// churnWriter builds n misses for serve-churn's writer, repeating
// churnMisses, and returns a picker that hands them out in order and then
// nil. Warm misses walk the named entries; cold misses are small random
// NASNet documents, the k-th drawn with seed k. The writer's script does
// not depend on the run's seed: a miss costs from 0.15 to 0.7 s depending
// on its graph, and a seeded script moved the workload's latency with the
// seed more than the run-to-run noise does.
func churnWriter(n int, hot []*entry) (func() *request, error) {
	var named []*entry
	for _, e := range hot {
		if e.doc == nil {
			named = append(named, e)
		}
	}
	warm, cold := 0, int64(0)
	var misses []*request
	for len(misses) < n {
		for _, kind := range churnMisses {
			var q *request
			var err error
			if kind == "warm" {
				warm++
				q, err = named[warm%len(named)].request("warm", defaultLimit+float64(warm)*1e-4)
			} else {
				cold++
				var e *entry
				if e, err = docEntry(models.RandomNASNet(cold, 4, 8, 16, 2)); err == nil {
					q, err = e.request("cold", 0)
				}
			}
			if err != nil {
				return nil, err
			}
			misses = append(misses, q)
		}
	}
	return func() *request {
		if len(misses) == 0 {
			return nil
		}
		q := misses[0]
		misses = misses[1:]
		return q
	}, nil
}

func runServe(r *run) error {
	var sess *session
	var peaks []int64
	err := r.setup(func(parent int64) (func(), error) {
		s, err := r.startSession(parent, hotSpecs)
		if err != nil {
			return nil, err
		}
		cur := make([]int64, len(s.hot))
		for i, e := range s.hot {
			cur[i] = e.peak
		}
		if peaks != nil {
			r.check(slices.Equal(cur, peaks), "pre-warm plans differ between set-ups: %v, then %v", peaks, cur)
		}
		peaks, sess = cur, s
		return s.close, nil
	})
	if err != nil {
		return err
	}
	defer sess.close()

	// serve-hot: open-loop hits, then a closed loop of hits on one
	// connection per CPU. serve-churn: a writer sends misses back to back
	// while open-loop hits queue between them, so the single job worker is
	// always busy with a miss and the reads and writes share it and the
	// cache.
	hotLoad := r.cfg.workload == "serve-hot"
	rng := rand.New(rand.NewSource(r.cfg.seed))
	openFor, rate := r.cfg.window, churnHitRate
	if hotLoad {
		openFor, rate = time.Duration(hotOpenShare*float64(r.cfg.window)), hotRate
	}
	pick := zipfHits(rng, sess.hits)
	var plan []*request
	for _, due := range arrivals(rng, rate, openFor) {
		plan = append(plan, at(pick(), due))
	}
	var pickers []func() *request
	if hotLoad {
		for i := 0; i < runtime.NumCPU(); i++ {
			pickers = append(pickers, zipfHits(rand.New(rand.NewSource(rng.Int63())), sess.hits))
		}
	} else {
		// No miss settles in under 0.1 s, so ten per second of window is
		// more than the writer can send.
		writer, err := churnWriter(10*int(r.cfg.window.Seconds()), sess.hot)
		if err != nil {
			return err
		}
		pickers = append(pickers, writer)
	}

	before, err := sess.counters()
	if err != nil {
		return err
	}
	gc0 := readGC()
	var open, closed []outcome
	var closedFor time.Duration
	if hotLoad {
		open = sess.c.openLoop(plan, r.cfg.trace)
		closed, closedFor = sess.c.closedLoop(r.cfg.window-openFor, pickers)
	} else {
		done := make(chan struct{})
		go func() {
			defer close(done)
			closed, closedFor = sess.c.closedLoop(r.cfg.window, pickers)
		}()
		open = sess.c.openLoop(plan, r.cfg.trace)
		<-done
	}
	gc1 := readGC()
	traffic := slices.Concat(open, closed)
	for _, o := range traffic {
		r.op(o.verify())
	}
	r.quiesce(sess)
	after, err := sess.counters()
	if err != nil {
		return err
	}

	// serve-hot reports its open-loop hits' latency, serve-churn its
	// writer's misses'. A hit behind a miss waits for a uniformly random
	// part of it, so with the few hits a window holds their quantiles move
	// with the seed's arrival times; the writer's script is fixed.
	// Throughput is the closed loop's: hit capacity on serve-hot, misses
	// settled on serve-churn.
	timed := open
	if !hotLoad {
		timed = closed
	}
	var lat []float64
	for _, o := range timed {
		if o.err == nil {
			lat = append(lat, in(time.Millisecond, o.latency())...)
		}
	}
	if !r.cfg.trace {
		var ratio []float64
		for _, o := range traffic {
			if o.err == nil && o.job.Result != nil {
				ratio = append(ratio, float64(o.job.Result.PeakMemBytes)/float64(o.req.basePeak))
			}
		}
		ops := exact("ops_per_s", "1/s", float64(len(closed))/closedFor.Seconds())
		ops.N = len(closed)
		r.put(sampled("p50_ms", "ms", lat, 0.5), ops, exact("mem_ratio", "ratio", geomean(ratio)))
		return nil
	}

	r.put(sampled("client.p90_ms", "ms", lat, 0.9))
	r.serveLayer(sess.pre, traffic, open, before, after)
	r.put(exact("trace.overhead_frac", "ratio", hitOverhead(open)),
		exact("runtime.gc_cpu_frac", "ratio", gc1.since(gc0)))

	// The search-pipeline layers, probed on the largest hot document with
	// the service's own search settings.
	e := sess.hot[0]
	s, err := r.search(e.g, e.base, 1, hotIterations, true)
	if !r.op(err) {
		return err
	}
	r.optLayer([]searched{s}, 1)
	if err := r.probeLayers(probeSubject{g: e.g, base: e.base, best: s.res.Best}); err != nil {
		return err
	}
	return r.probeServing(sess, s.res.Best)
}

// hitOverhead is the tracing overhead on requests: the median latency of
// traced hits over that of untraced ones, minus one.
func hitOverhead(open []outcome) float64 {
	var traced, plain []float64
	for _, o := range open {
		if o.err != nil || o.req.kind != "hit" {
			continue
		}
		if o.traced {
			traced = append(traced, o.latency().Seconds())
		} else {
			plain = append(plain, o.latency().Seconds())
		}
	}
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return quantile(traced, 0.5)/quantile(plain, 0.5) - 1
}

// serveLayer reports the service's per-layer numbers: request stages from
// the traced hits, misses (the pre-warm's and the traffic's), counter
// deltas over the traffic, and how the load generator kept up.
func (r *run) serveLayer(pre, traffic, open []outcome, before, after counters) {
	var postDoc, postNamed, queueHit, runHit, runMiss, miss, late, polls []float64
	for _, o := range slices.Concat(pre, traffic) {
		if o.err != nil || o.job.Started == nil || o.job.Finished == nil {
			continue
		}
		run := o.job.Finished.Sub(*o.job.Started)
		if o.req.kind != "hit" {
			runMiss = append(runMiss, run.Seconds())
			miss = append(miss, o.latency().Seconds())
		}
		if o.req.kind == "prewarm" {
			continue
		}
		polls = append(polls, float64(o.polls))
		if o.req.kind != "hit" {
			continue
		}
		if !o.traced {
			continue
		}
		post := in(time.Millisecond, o.posted.Sub(o.sent))
		if o.req.named {
			postNamed = append(postNamed, post...)
		} else {
			postDoc = append(postDoc, post...)
		}
		queueHit = append(queueHit, in(time.Millisecond, o.job.Started.Sub(o.job.Created))...)
		runHit = append(runHit, in(time.Millisecond, run)...)
	}
	for _, o := range open {
		late = append(late, in(time.Millisecond, o.sent.Sub(o.due))...)
	}
	delta := func(keys ...string) float64 {
		d := 0.0
		for _, k := range keys {
			d += after.svc[k] - before.svc[k]
		}
		return d
	}
	var rejected []string
	for k := range after.svc {
		if strings.HasPrefix(k, "rejected_") {
			rejected = append(rejected, k)
		}
	}
	b, a := before.cache, after.cache
	r.put(sampled("serve.post_doc_ms", "ms", postDoc, 0.5),
		sampled("serve.post_named_ms", "ms", postNamed, 0.5),
		sampled("serve.queue_hit_p90_ms", "ms", queueHit, 0.9),
		sampled("serve.run_hit_ms", "ms", runHit, 0.5),
		sampled("serve.run_miss_s", "s", runMiss, 0.5),
		sampled("client.miss_p50_s", "s", miss, 0.5),
		exact("serve.admitted_hit", "count", delta("admitted_hit")),
		exact("serve.admitted_warm", "count", delta("admitted_warm")),
		exact("serve.admitted_cold", "count", delta("admitted_cold")),
		exact("serve.rejected", "count", delta(rejected...)),
		exact("serve.shed", "count", delta("shed_expired", "shed_evicted")),
		exact("serve.degraded", "count", delta("degraded")),
		exact("serve.flight_shared", "count", delta("flight_shared")),
		exact("plancache.hits", "count", float64(a.Hits-b.Hits)),
		exact("plancache.near_hits", "count", float64(a.NearHits-b.NearHits)),
		exact("plancache.puts", "count", float64(a.Puts-b.Puts)),
		exact("plancache.put_rejected", "count", float64(a.PutRejected-b.PutRejected)),
		sampled("client.late_p99_ms", "ms", late, 0.99),
		sampled("client.polls_per_req", "count", []float64{mean(polls)}, 0.5))
}

// serveProbe gives a search workload's traced run its serving numbers: a
// server with a two-entry hot set takes one second of open-loop hits.
func (r *run) serveProbe() error {
	s, err := r.startSession(0, hotSpecs[:2])
	if err != nil {
		return err
	}
	defer s.close()
	rng := rand.New(rand.NewSource(r.cfg.seed))
	pick := zipfHits(rng, s.hits)
	var plan []*request
	for _, due := range arrivals(rng, 50, time.Second) {
		plan = append(plan, at(pick(), due))
	}
	before, err := s.counters()
	if err != nil {
		return err
	}
	open := s.c.openLoop(plan, true)
	for _, o := range open {
		r.op(o.verify())
	}
	r.quiesce(s)
	after, err := s.counters()
	if err != nil {
		return err
	}
	r.serveLayer(s.pre, open, open, before, after)
	e := s.hot[0]
	res, err := r.search(e.g, e.base, 1, hotIterations, false)
	if !r.op(err) {
		return err
	}
	return r.probeServing(s, res.res.Best)
}
