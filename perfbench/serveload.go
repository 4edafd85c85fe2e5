package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"fedsc/internal/core"
	"fedsc/internal/mat"
	"fedsc/internal/metrics"
	"fedsc/internal/serve"
	"fedsc/internal/store"
)

// The serve-open load: small-batch requests alternating between two
// R^128 models, sent open loop on a fixed schedule at a light and a
// heavy rate, then a step search for the highest rate whose tail
// latency stays within tailLimit.
const (
	pointsPerRequest = 8
	requestCycle     = 256
	lightRate        = 100.0 // requests per second
	heavyRate        = 400.0 // requests per second
	lightRequests    = 500
	heavyRequests    = 990  // under 1000, so the heavy tail is p90 on every run
	searchStep       = 1.25 // rate ratio between geometric search stages
	searchStages     = 10   // at most, bisections included; about 7 at 2 vCPUs
	bisections       = 3
	tailLimit        = 50 * time.Millisecond
	serveSetups      = 300
	batcherRequests  = 250
	maxBatch         = 64 // serve.BatcherOptions' default MaxBatch
)

// request is one pre-encoded /v1/assign body with its expected answer.
type request struct {
	model  string
	body   []byte
	points [][]float64
	truth  []int // generating subspace of each point
	labels []int // serve.Engine.Assign on the same points
	resid  []float64
}

// served is one running fedsc-serve stack.
type served struct {
	url     string
	metrics *serve.Metrics
	batcher *serve.Batcher
	cancel  context.CancelFunc
	done    chan error
}

func (s *served) stop() error {
	s.cancel()
	return <-s.done
}

// startServe builds the fedsc-serve stack over the store in dir:
// store → Registry.UseStore → Batcher → Handler → serve.Serve on a
// loopback listener. It returns once /healthz answers 200.
func startServe(dir string, client *http.Client) (*served, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	reg := serve.NewRegistry()
	if _, err := reg.UseStore(st); err != nil {
		return nil, err
	}
	m := serve.NewMetrics()
	b := serve.NewBatcher(reg, m, serve.BatcherOptions{MaxBatch: maxBatch})
	h := serve.NewHandler(reg, b, m)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Stop()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &served{url: "http://" + ln.Addr().String(), metrics: m, batcher: b, cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- serve.Serve(ctx, ln, h, time.Second) }()
	resp, err := client.Get(s.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		_ = s.stop()
		return nil, err
	}
	return s, nil
}

// sample is one open-loop request: when it was due, when the generator
// queued it, when a connection sent it, when its answer was read.
type sample struct {
	due, queued, sent, done time.Time
	err                     error
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// openLoop sends n requests on a fixed schedule — request k is due at
// start + k/rate — over conns workers that each hold one connection.
// The generator never waits for an answer, so a slow request delays the
// ones queued behind it, and every latency counts from the due time.
func openLoop(rate float64, n, conns int, send func(k int) error) []sample {
	out := make([]sample, n)
	queue := make(chan int, n) // holds the whole schedule, so the generator never blocks
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queue {
				out[k].sent = time.Now()
				out[k].err = send(k)
				out[k].done = time.Now()
			}
		}()
	}
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		out[k].due = due
		out[k].queued = time.Now()
		queue <- k
	}
	close(queue)
	wg.Wait()
	return out
}

// stage is one open-loop rate's outcome.
type stage struct {
	rate     float64
	lat      latencySummary
	late     latencySummary
	failed   int
	shed     int
	attempts int
}

func (s stage) tailMs() float64 { v, _, _ := s.lat.tail(); return v }

// meets reports whether the stage answered everything within the tail
// limit.
func (s stage) meets() bool {
	return s.failed == 0 && s.shed == 0 && s.tailMs() <= float64(tailLimit)/1e6
}

var errShed = errors.New("shed with 429")

// serveOpen holds the workload's inputs and running state.
type serveOpen struct {
	reqs    []request
	engines map[string]*serve.Engine
	client  *http.Client
	srv     *served
	conns   int

	mu       sync.Mutex
	pred     map[string][]int // served labels per model, for accuracy
	truth    map[string][]int
	depthMax int64
	decode   []time.Duration // replayed request decodes of the traced stage
}

func runServeOpen(cfg config) (result, error) {
	w, err := newServeOpen(cfg)
	if err != nil {
		return result{}, err
	}
	defer w.client.CloseIdleConnections()
	dir := filepath.Join(cfg.scratch, "store")
	// Each build starts from a collected heap handed back to the OS, as
	// in a fresh process: whether a build happened to reuse warm pages
	// would otherwise split the builds into a fast and a slow group, and
	// the share of each would decide the median.
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		srv, err := startServe(dir, w.client)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < serveSetups-1 {
			if err := srv.stop(); err != nil {
				return result{}, fmt.Errorf("set-up teardown: %w", err)
			}
			w.client.CloseIdleConnections()
			continue
		}
		w.srv = srv
	}
	defer func() { _ = w.srv.stop() }()
	// Warm the connections and every code path before timing.
	w.stage("warm-up", lightRate, 20, nil)

	// The light and heavy stages have fixed sizes; the search shares
	// what is left of the budget over its usual 7 stages.
	left := cfg.budget() - time.Duration((lightRequests/lightRate+heavyRequests/heavyRate)*float64(time.Second))
	if cfg.trace {
		left -= time.Duration((heavyRequests/heavyRate + batcherRequests/lightRate) * float64(time.Second))
	}
	searchStage := left / 7
	if searchStage < 200*time.Millisecond {
		searchStage = 200 * time.Millisecond
	}
	var res result
	if !cfg.trace {
		light := w.stage("light", lightRate, lightRequests, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		heavy := w.stage("heavy", heavyRate, heavyRequests, nil)
		runtime.ReadMemStats(&after)
		maxRate, search := w.search(light, heavy, searchStage)
		tailV, _, _ := heavy.lat.tail()
		res.attempted = light.attempts + heavy.attempts + search.attempts
		res.failed = light.failed + light.shed + heavy.failed + heavy.shed + search.failed
		res.e2e = map[string]float64{
			"op_p50_ms":          heavy.lat.p50(),
			"op_tail_ms":         tailV,
			"points_per_s":       maxRate * pointsPerRequest,
			"accuracy_pct":       w.accuracy(),
			"ok_pct":             100 * float64(res.attempted-res.failed) / float64(res.attempted),
			"alloc_bytes_per_op": float64(after.TotalAlloc-before.TotalAlloc) / float64(heavy.attempts),
			"setup_s":            medianOf(setups),
		}
		return res, nil
	}
	light := w.stage("light", lightRate, lightRequests, nil)
	heavy := w.stage("heavy", heavyRate, heavyRequests, nil)
	tr := newTracer()
	traced := w.stage("heavy traced", heavyRate, heavyRequests, tr)
	direct, directFailed := w.batcherStage()
	maxRate, search := w.search(light, heavy, searchStage)
	overhead := traced.lat.p50() - heavy.lat.p50()
	fmt.Printf("tracing overhead: traced op_p50_ms - untraced = %.3f ms\n", overhead)
	lightTail, _, _ := light.lat.tail()
	lateTail, _, _ := heavy.late.tail()
	res.attempted = light.attempts + heavy.attempts + traced.attempts + batcherRequests + search.attempts
	res.failed = light.failed + light.shed + heavy.failed + heavy.shed + traced.failed + traced.shed + directFailed + search.failed
	res.rows = layerTable(tr.snapshot())
	m := w.srv.metrics
	res.layer = map[string]float64{
		"trace.overhead_ms":        overhead,
		"serve.light_p50_ms":       light.lat.p50(),
		"serve.light_tail_ms":      lightTail,
		"serve.max_rate_per_s":     maxRate,
		"serve.decode_us":          w.decodeUs(),
		"serve.batcher_ms":         direct.p50(),
		"serve.http_ms":            light.lat.p50() - direct.p50(),
		"serve.score_us_per_point": w.scoreUsPerPoint(),
		"serve.batch_fill":         float64(m.Assigned()) / float64(m.Batches()) / maxBatch,
		"serve.shed":               float64(m.Shed()),
		"serve.queue_depth_max":    float64(w.depthMax),
		"gen.late_ms":              lateTail,
	}
	return res, nil
}

// newServeOpen builds the two models with in-process rounds over
// generated datasets, tags them in a store, and pre-encodes the request
// cycle with each request's expected answer.
func newServeOpen(cfg config) (*serveOpen, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	data := []dataset{genDataset(devicesShape, rng), genDataset(devicesShape, rng)}
	st, err := store.Open(filepath.Join(cfg.scratch, "store"))
	if err != nil {
		return nil, err
	}
	w := &serveOpen{
		engines: map[string]*serve.Engine{},
		conns:   runtime.GOMAXPROCS(0),
		pred:    map[string][]int{},
		truth:   map[string][]int{},
	}
	names := []string{"cohort-a", "cohort-b"}
	for i, d := range data {
		res := core.Run(d.devices, d.subs.L(), core.Options{Local: localOptions(devicesShape)}, rand.New(rand.NewSource(d.seed)))
		if acc := d.accuracy(res.Labels); acc < 100 {
			return nil, fmt.Errorf("model %s: training round accuracy %.2f%%, want 100%%", names[i], acc)
		}
		m, err := core.ModelFromResult(res, d.subs.L(), 0, core.CentralSSC)
		if err != nil {
			return nil, err
		}
		if _, err := st.PutTagged(names[i], m); err != nil {
			return nil, err
		}
		if w.engines[names[i]], err = serve.NewEngine(m); err != nil {
			return nil, err
		}
	}
	for k := 0; k < requestCycle; k++ {
		d, name := data[k%2], names[k%2]
		counts := make([]int, d.subs.L())
		for j := 0; j < pointsPerRequest; j++ {
			counts[rng.Intn(d.subs.L())]++
		}
		ds := d.subs.SampleCounts(counts, rng)
		r := request{model: name, truth: ds.Labels}
		for j := 0; j < ds.N(); j++ {
			r.points = append(r.points, ds.X.Col(j, nil))
		}
		if r.body, err = json.Marshal(serve.AssignRequest{Model: name, Points: r.points}); err != nil {
			return nil, err
		}
		if r.labels, r.resid, err = w.engines[name].Assign(ds.X); err != nil {
			return nil, err
		}
		w.reqs = append(w.reqs, r)
	}
	w.client = &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     w.conns,
			MaxIdleConnsPerHost: w.conns,
			DisableCompression:  true,
		},
	}
	return w, nil
}

// check compares a response with serve.Engine.Assign on the same
// points: equal labels, residuals equal to 1e-9 relative.
func (r request) check(got []serve.Assignment) error {
	if len(got) != len(r.labels) {
		return fmt.Errorf("%d assignments for %d points", len(got), len(r.labels))
	}
	for j, a := range got {
		if a.Label != r.labels[j] {
			return fmt.Errorf("point %d: label %d, engine says %d", j, a.Label, r.labels[j])
		}
		if math.Abs(a.Residual-r.resid[j]) > 1e-9*math.Max(1, r.resid[j]) {
			return fmt.Errorf("point %d: residual %v, engine says %v", j, a.Residual, r.resid[j])
		}
	}
	return nil
}

// post sends request k over HTTP and checks the answer.
func (w *serveOpen) post(k int) error {
	r := w.reqs[k%requestCycle]
	resp, err := w.client.Post(w.srv.url+"/v1/assign", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode == http.StatusTooManyRequests {
		_, _ = io.Copy(io.Discard, resp.Body)
		return errShed
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var out serve.AssignResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	return w.record(r, out.Assignments)
}

// record checks an answer and keeps its labels for the accuracy metric.
func (w *serveOpen) record(r request, got []serve.Assignment) error {
	if err := r.check(got); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for j, a := range got {
		w.pred[r.model] = append(w.pred[r.model], a.Label)
		w.truth[r.model] = append(w.truth[r.model], r.truth[j])
	}
	return nil
}

// accuracy is the Hungarian-matched accuracy of the served labels
// against each point's generating subspace, averaged over the models.
func (w *serveOpen) accuracy() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	a := metrics.Accuracy(w.truth["cohort-a"], w.pred["cohort-a"])
	b := metrics.Accuracy(w.truth["cohort-b"], w.pred["cohort-b"])
	return (a + b) / 2
}

// failedLatency stands in for the latency of a failed or shed request:
// it misses any latency limit.
const failedLatency = time.Hour

// stage sends n requests open loop at rate and summarizes them. With a tracer,
// every request becomes an op span — gen.queue from due to sent, then
// serve.http until its answer was read — and the request's decode,
// scoring and encoding are replayed inside serve.http after the stage.
func (w *serveOpen) stage(name string, rate float64, n int, tr *tracer) stage {
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go w.sampleDepth(stop, sampled)
	samples := openLoop(rate, n, w.conns, w.post)
	close(stop)
	<-sampled
	st := stage{rate: rate, attempts: len(samples)}
	lat := make([]time.Duration, len(samples))
	late := make([]time.Duration, len(samples))
	for k, s := range samples {
		lat[k], late[k] = s.latency(), s.queued.Sub(s.due)
		switch {
		case errors.Is(s.err, errShed):
			st.shed++
			lat[k] = failedLatency
		case s.err != nil:
			st.failed++
			lat[k] = failedLatency
			if st.failed <= 3 {
				fmt.Printf("%s request %d failed: %v\n", name, k, s.err)
			}
		}
	}
	st.lat, st.late = summarize(lat), summarize(late)
	lateTail, lateP, _ := st.late.tail()
	fmt.Printf("%s, %.0f/s, shed %d, failed %d, generator late p%g %.3fms\n",
		st.lat.describe(name), rate, st.shed, st.failed, lateP, lateTail)
	if tr != nil {
		for k, s := range samples {
			w.traceRequest(tr, k, s)
		}
	}
	return st
}

// traceRequest records request k's spans and replays its decode, its
// scoring and its response encoding inside the serve.http span.
func (w *serveOpen) traceRequest(tr *tracer, k int, s sample) {
	root := tr.record("op", -1, tr.at(s.due), tr.at(s.done))
	tr.record("gen.queue", root, tr.at(s.due), tr.at(s.sent))
	httpSpan := tr.record("serve.http", root, tr.at(s.sent), tr.at(s.done))
	r := w.reqs[k%requestCycle]
	t0 := time.Now()
	var req serve.AssignRequest
	if err := json.Unmarshal(r.body, &req); err != nil {
		panic(err) // the harness encoded this body itself
	}
	decode := time.Since(t0)
	x := mat.NewDense(len(req.Points[0]), len(req.Points))
	for j, p := range req.Points {
		x.SetCol(j, p)
	}
	t0 = time.Now()
	labels, resid, err := w.engines[r.model].Assign(x)
	if err != nil {
		panic(err) // the points match the model's dimension by construction
	}
	score := time.Since(t0)
	out := serve.AssignResponse{Model: r.model}
	for j := range labels {
		out.Assignments = append(out.Assignments, serve.Assignment{Label: labels[j], Residual: resid[j]})
	}
	t0 = time.Now()
	if _, err := json.Marshal(out); err != nil {
		panic(err)
	}
	encode := time.Since(t0)
	w.decode = append(w.decode, decode)
	rp := newReplayer(tr, httpSpan, tr.at(s.sent), 1)
	rp.add("serve.decode", decode)
	rp.add("serve.score", score)
	rp.add("serve.encode", encode)
}

// sampleDepth records the batcher's highest queue depth until stop.
func (w *serveOpen) sampleDepth(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			depth := w.srv.metrics.QueueDepth()
			w.mu.Lock()
			if depth > w.depthMax {
				w.depthMax = depth
			}
			w.mu.Unlock()
		}
	}
}

// search finds the highest rate whose stage meets the tail limit. It
// raises the rate geometrically from twice the heavy rate until a stage
// misses the limit (or sheds, or fails), bisects that bracket, and then
// interpolates, in log latency, where the tail crosses the limit
// between the last stage that met it and the first that missed. It
// returns that rate and the search stages' request count and failed
// requests; sheds are not failures here, since the search probes past
// capacity, where shedding is the expected answer.
func (w *serveOpen) search(light, heavy stage, d time.Duration) (float64, searchCount) {
	limit := float64(tailLimit) / 1e6
	var n searchCount
	if !heavy.meets() {
		return crossing(light, heavy, limit), n
	}
	met, missed, bracketed := heavy, stage{}, false
	stages := 0
	run := func(rate float64) stage {
		stages++
		st := w.stage(fmt.Sprintf("search %d", stages), rate, int(rate*d.Seconds()), nil)
		n.attempts += st.attempts
		n.failed += st.failed
		return st
	}
	for rate := 2 * heavyRate; stages < searchStages-bisections; rate *= searchStep {
		st := run(rate)
		if !st.meets() {
			missed, bracketed = st, true
			break
		}
		met = st
	}
	if !bracketed {
		fmt.Printf("max rate: every search stage met the %.0fms tail; reporting the last, %.1f/s\n", limit, met.rate)
		return met.rate, n
	}
	for i := 0; i < bisections; i++ {
		if st := run((met.rate + missed.rate) / 2); st.meets() {
			met = st
		} else {
			missed = st
		}
	}
	max := crossing(met, missed, limit)
	fmt.Printf("max rate within a %.0fms tail: %.1f/s\n", limit, max)
	return max, n
}

// searchCount is what the search stages sent and how many of those
// requests failed.
type searchCount struct{ attempts, failed int }

// crossing interpolates where the tail crosses limit between a stage
// that met it and one that did not.
func crossing(met, missed stage, limit float64) float64 {
	lo, hi := met.tailMs(), missed.tailMs()
	if lo <= 0 || hi <= lo {
		return met.rate
	}
	f := (math.Log(limit) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
	f = math.Max(0, math.Min(1, f))
	return met.rate + f*(missed.rate-met.rate)
}

// batcherStage drives serve.Batcher.AssignModel directly, open loop at
// the light rate, so the HTTP layer's share of a light request is the
// HTTP latency minus this one. Every answer is checked like an HTTP
// one; it returns the latencies and the number of failed requests.
func (w *serveOpen) batcherStage() (latencySummary, int) {
	ctx := context.Background()
	samples := openLoop(lightRate, batcherRequests, w.conns, func(k int) error {
		r := w.reqs[k%requestCycle]
		got, _, err := w.srv.batcher.AssignModel(ctx, r.model, r.points)
		if err != nil {
			return err
		}
		return w.record(r, got)
	})
	lat := make([]time.Duration, len(samples))
	failed := 0
	for k, s := range samples {
		lat[k] = s.latency()
		if s.err != nil {
			lat[k] = failedLatency
			failed++
			if failed <= 3 {
				fmt.Printf("batcher direct request %d failed: %v\n", k, s.err)
			}
		}
	}
	s := summarize(lat)
	fmt.Printf("%s, failed %d\n", s.describe("batcher direct"), failed)
	return s, failed
}

// decodeUs is the median replayed decode of a request body.
func (w *serveOpen) decodeUs() float64 { return medianDur(w.decode) / 1e3 }

// scoreUsPerPoint times serve.Engine.Assign on a full MaxBatch batch.
func (w *serveOpen) scoreUsPerPoint() float64 {
	r := w.reqs[0]
	eng := w.engines[r.model]
	x := mat.NewDense(len(r.points[0]), maxBatch)
	for j := 0; j < maxBatch; j++ {
		q := w.reqs[2*(j/pointsPerRequest)%requestCycle] // same model as r
		x.SetCol(j, q.points[j%pointsPerRequest])
	}
	var ds []time.Duration
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, _, err := eng.Assign(x); err != nil {
			panic(err)
		}
		ds = append(ds, time.Since(t0))
	}
	return medianDur(ds) / 1e3 / maxBatch
}
