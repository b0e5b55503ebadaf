package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcf0"
	"mcf0/internal/loadgen"
	"mcf0/internal/server"
	"mcf0/internal/server/middleware"
	"mcf0/internal/stats"
)

// The serve workload: the ROADMAP's fixed op mix (ingest=90, estimate=10,
// 128-element batches, Zipf 1.2 over 10^5 hot keys, 24-bit universe)
// against f0d in this process, closed loop over two client connections.
const (
	serveBits    = 24
	serveBatch   = 128
	serveKeys    = 100_000
	serveZipf    = 1.2
	serveClients = 2
	// serveRate is the nominal requests per second on a 2-core VM;
	// --seconds times it is the number of measured requests.
	serveRate = 1400

	benchTenant = "bench"
	benchToken  = "perfbench-token"
	benchSketch = "perfbench"
	// spanHeader carries the client span's ID to the server's span.
	spanHeader = "X-Perfbench-Span"
)

func serveSpec(seed uint64, ops int) loadgen.Spec {
	return loadgen.Spec{
		Seed: seed, Ops: ops, Clients: serveClients, Bits: serveBits, Batch: serveBatch,
		IngestWeight: 90, EstimateWeight: 10, Keys: serveKeys, ZipfS: serveZipf,
	}
}

func serveConfig(seed uint64) mcf0.Config { return mcf0.Config{Seed: sketchSeed(seed, 2)} }

// daemon is f0d assembled in this process on a loopback port.
type daemon struct {
	base string
	stop func() error
}

// startDaemon runs server.New and serves it. Untraced, it calls
// Server.Serve; traced, it serves Server.Handler() wrapped in a span per
// request.
func startDaemon(tr *tracer) (*daemon, error) {
	srv, err := server.New(server.Config{
		Tenants: []middleware.TenantConfig{{Name: benchTenant, Token: benchToken}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + ln.Addr().String()}
	done := make(chan error, 1)
	if tr == nil {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { done <- srv.Serve(ctx, ln) }()
		d.stop = func() error { cancel(); return <-done }
		return d, nil
	}
	// The settings Server.Serve applies, so the span wrapper is the only
	// difference from the untraced pass.
	hs := &http.Server{
		Handler:           traceHandler(tr, srv.Handler()),
		ReadHeaderTimeout: server.DefaultReadHeaderTimeout,
		ReadTimeout:       server.DefaultReadTimeout,
		WriteTimeout:      server.DefaultWriteTimeout,
		IdleTimeout:       server.DefaultIdleTimeout,
		MaxHeaderBytes:    server.DefaultMaxHeaderBytes,
	}
	go func() { done <- hs.Serve(ln) }()
	d.stop = func() error {
		err := hs.Shutdown(context.Background())
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}
	return d, nil
}

// traceHandler records a server span around each request that carries a
// client span ID.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		name := "server.other"
		switch {
		case strings.HasSuffix(r.URL.Path, "/add"):
			name = "server.add"
		case strings.HasSuffix(r.URL.Path, "/estimate"):
			name = "server.estimate"
		}
		id, start := tr.newID(), tr.now()
		h.ServeHTTP(w, r)
		tr.end(name, id, parent, parent, start)
	})
}

// spanTransport stamps the current client span's ID on each request. One
// worker goroutine owns it and sets current before each call; RoundTrip
// runs on that goroutine.
type spanTransport struct {
	base    http.RoundTripper
	current uint64
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.current == 0 {
		return t.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatUint(t.current, 10))
	return t.base.RoundTrip(r)
}

// client is one loadgen.HTTPTarget on its own connection.
type client struct {
	target *loadgen.HTTPTarget
	hc     *http.Client
	tp     *http.Transport
	spans  *spanTransport // nil untraced
}

func newClient(base string, traced bool) (*client, error) {
	c := &client{tp: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1}}
	var rt http.RoundTripper = c.tp
	if traced {
		c.spans = &spanTransport{base: c.tp}
		rt = c.spans
	}
	c.hc = &http.Client{Transport: rt, Timeout: 30 * time.Second}
	t, err := loadgen.NewHTTPTarget(loadgen.HTTPConfig{BaseURL: base, Token: benchToken, Sketch: benchSketch, Client: c.hc})
	if err != nil {
		return nil, err
	}
	c.target = t
	return c, nil
}

// worker is one closed-loop caller's tallies.
type worker struct {
	add, est []float64 // ms
	failed   int
	err      error
}

// loop drives ops of spec closed loop, one goroutine per target, each
// claiming the next op index when its last op returns.
type loop struct {
	spec    *loadgen.Spec
	targets []loadgen.Target
	// spans holds each HTTP target's transport, to stamp span IDs on;
	// nil for in-process targets.
	spans []*spanTransport
	// With a tracer, each measured op is a span named by names[kind].
	tr    *tracer
	names [2]string
}

// run drives ops [lo, hi) and returns each worker's tallies and the wall
// time.
func (l loop) run(lo, hi int) ([]worker, time.Duration) {
	var next atomic.Int64
	next.Store(int64(lo))
	ws := make([]worker, len(l.targets))
	var wg sync.WaitGroup
	t0 := time.Now()
	for w, target := range l.targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &ws[w]
			buf := make([]uint64, l.spec.Batch)
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				kind := l.spec.Kind(i)
				if kind == loadgen.OpIngest {
					buf = l.spec.Elements(i, buf)
				}
				var id uint64
				var start int64
				var t1 time.Time
				if l.tr != nil {
					id, start = l.tr.newID(), l.tr.now()
					if l.spans != nil && l.spans[w] != nil {
						l.spans[w].current = id
					}
				} else {
					t1 = time.Now()
				}
				var err error
				if kind == loadgen.OpIngest {
					err = target.Ingest(buf)
				} else {
					_, err = target.Estimate()
				}
				var d float64
				if l.tr != nil {
					d = float64(l.tr.end(l.names[kind], id, 0, id, start)) / 1e6
				} else {
					d = ms(time.Since(t1))
				}
				if err != nil {
					res.failed++
					if res.err == nil {
						res.err = err
					}
					continue
				}
				if kind == loadgen.OpIngest {
					res.add = append(res.add, d)
				} else {
					res.est = append(res.est, d)
				}
			}
		}()
	}
	wg.Wait()
	return ws, time.Since(t0)
}

// servePhase is one run of the op sequence against a fresh daemon.
type servePhase struct {
	setup    []float64 // s per set-up
	add, est []float64 // ms, measured requests
	failed   int
	err      error
	wall     time.Duration
	final    float64
	metrics  string // the /metrics exposition after the run
	rss      float64
}

// throughput is requests completed, failed ones included, per second of
// the measured phase.
func (p servePhase) throughput() float64 {
	return float64(len(p.add)+len(p.est)+p.failed) / p.wall.Seconds()
}

// servePass times setups set-ups (server.New, listen, create the sketch
// over a fresh connection), after setupWarmups untimed ones when setups
// is above 1, keeps the last daemon, and drives warm untimed and then n
// timed requests through it.
func servePass(spec *loadgen.Spec, warm, n, setups int, tr *tracer) (servePhase, error) {
	var p servePhase
	var d *daemon
	var clients []*client
	stop := func() error {
		for _, c := range clients {
			c.tp.CloseIdleConnections()
		}
		if d == nil {
			return nil
		}
		return d.stop()
	}
	if setups > 1 {
		setups += setupWarmups
	}
	for i := range setups {
		if err := stop(); err != nil {
			return p, err
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, err = startDaemon(tr); err != nil {
			return p, err
		}
		c, err := newClient(d.base, tr != nil)
		if err != nil {
			return p, err
		}
		clients = []*client{c}
		if err := c.target.CreateSketch(serveBits, string(mcf0.AlgorithmBucketing), serveConfig(spec.Seed).Seed, 0); err != nil {
			stop()
			return p, err
		}
		if setups == 1 || i >= setupWarmups {
			p.setup = append(p.setup, time.Since(t0).Seconds())
		}
	}
	for len(clients) < serveClients {
		c, err := newClient(d.base, tr != nil)
		if err != nil {
			stop()
			return p, err
		}
		clients = append(clients, c)
	}
	targets := make([]loadgen.Target, len(clients))
	spans := make([]*spanTransport, len(clients))
	for i, c := range clients {
		targets[i], spans[i] = c.target, c.spans
	}

	l := loop{spec: spec, targets: targets, spans: spans}
	l.run(0, warm)
	runtime.GC()
	l.tr, l.names = tr, [2]string{"loadgen.add", "loadgen.estimate"}
	ws, wall := l.run(warm, warm+n)
	p.wall = wall
	for _, w := range ws {
		p.add = append(p.add, w.add...)
		p.est = append(p.est, w.est...)
		p.failed += w.failed
		p.err = errors.Join(p.err, w.err)
	}
	var err error
	if p.rss, err = peakRSSMB(); err != nil {
		stop()
		return p, err
	}
	if p.final, err = clients[0].target.Estimate(); err != nil {
		stop()
		return p, fmt.Errorf("serve: final estimate: %w", err)
	}
	if p.metrics, err = scrape(clients[0].hc, d.base+"/metrics"); err != nil {
		stop()
		return p, err
	}
	return p, stop()
}

func scrape(hc *http.Client, url string) (string, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return "", fmt.Errorf("scraping metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("scraping metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("scraping metrics: HTTP %d", resp.StatusCode)
	}
	return string(body), nil
}

// metricSum sums the samples of series name in a Prometheus text
// exposition whose labels satisfy keep (nil keeps all).
func metricSum(text, name string, keep func(labels string) bool) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Label values may hold spaces; the value follows the last one.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		series, value := line[:cut], line[cut+1:]
		base, labels, _ := strings.Cut(series, "{")
		if base != name || (keep != nil && !keep(labels)) {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(value), 64); err == nil {
			sum += v
		}
	}
	return sum
}

// non2xx keeps the f0d_http_requests_total cells of non-2xx statuses.
func non2xx(labels string) bool { return !strings.HasPrefix(labels, `code="2`) }

// serveElements returns the distinct elements of the ingest ops in
// [0, ops), in first-seen order, and the total ingested.
func serveElements(spec *loadgen.Spec, ops int) (distinct []uint64, total int) {
	seen := make(map[uint64]struct{})
	var buf []uint64
	for i := 0; i < ops; i++ {
		if spec.Kind(i) != loadgen.OpIngest {
			continue
		}
		buf = spec.Elements(i, buf)
		total += len(buf)
		for _, x := range buf {
			if _, ok := seen[x]; !ok {
				seen[x] = struct{}{}
				distinct = append(distinct, x)
			}
		}
	}
	return distinct, total
}

func runServe(cfg runConfig, r *report) (*tracer, error) {
	n := cfg.seconds * serveRate
	warm := warmupOps(n)
	spec := serveSpec(cfg.seed, warm+n)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	setups := setupRepeats
	if cfg.trace {
		setups = 1
	}
	plain, err := servePass(&spec, warm, n, setups, nil)
	if err != nil {
		return nil, err
	}
	r.ops(n, plain.failed)
	if plain.err != nil {
		fmt.Println("first request error:", plain.err)
	}

	// The gate: the served estimate must equal, bit for bit, a serial
	// F0 fed the same element set (duplicates dropped: the sketch is a
	// set function).
	distinct, total := serveElements(&spec, warm+n)
	ref, err := mcf0.NewF0(serveBits, mcf0.AlgorithmBucketing, serveConfig(cfg.seed))
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(distinct); lo += 1024 {
		ref.AddBatch(distinct[lo:min(lo+1024, len(distinct))])
	}
	want := ref.Estimate()
	r.check("served estimate equals a serial F0 replay", plain.final == want, fmt.Sprintf("%v vs %v", plain.final, want))

	slices.Sort(plain.add)
	if !cfg.trace {
		r.add("throughput_per_s", plain.throughput(), "1/s",
			fmt.Sprintf("(%d requests in %.2fs, %d clients)", n, plain.wall.Seconds(), serveClients))
		r.add("p50_ms", percentile(plain.add, 50), "ms", fmt.Sprintf("(add request, n=%d)", len(plain.add)))
		r.add("setup_s", stats.Median(plain.setup), "s", fmt.Sprintf("(server.New+listen+create, median of %d)", len(plain.setup)))
		r.add("peak_rss_mb", plain.rss, "MB", "(peak RSS after the measured phase)")
		fmt.Printf("info mean_rel_err=%.6f distinct=%d estimate=%v\n", relErr(want, float64(len(distinct))), len(distinct), want)
		return nil, nil
	}

	tr := newTracer()
	traced, err := servePass(&spec, warm, n, 1, tr)
	if err != nil {
		return nil, err
	}
	r.ops(n, traced.failed)
	r.check("traced served estimate equals untraced", traced.final == plain.final, fmt.Sprintf("%v vs %v", traced.final, plain.final))

	// The same op sequence, closed loop from two goroutines, against an
	// in-process ConcurrentF0: the time the front itself takes per op
	// when nothing but the front lies between the callers. Its writers
	// contend harder than the served run's, which spend part of each
	// request in HTTP, so the self times below can come out negative.
	front, err := mcf0.NewConcurrentF0(serveBits, mcf0.AlgorithmBucketing, serveConfig(cfg.seed), 0)
	if err != nil {
		return nil, err
	}
	inproc := make([]loadgen.Target, serveClients)
	for i := range inproc {
		inproc[i] = loadgen.NewInProc(front)
	}
	l := loop{spec: &spec, targets: inproc}
	l.run(0, warm)
	runtime.GC()
	l.tr, l.names = tr, [2]string{"mcf0.concurrent_add_batch", "mcf0.concurrent_estimate"}
	ws, _ := l.run(warm, warm+n)
	for _, w := range ws {
		r.ops(len(w.add)+len(w.est)+w.failed, w.failed)
	}
	r.check("in-process front equals a serial F0 replay", front.Estimate() == want, fmt.Sprintf("%v vs %v", front.Estimate(), want))

	r.addTail(plain.add, "add request")
	r.add("estimate_p50_ms", stats.Median(plain.est), "ms", fmt.Sprintf("(estimate request in the untraced pass, n=%d)", len(plain.est)))
	clientAdd, clientEst := statsOf(tr.named("loadgen.add")), statsOf(tr.named("loadgen.estimate"))
	srvAdd, srvEst := statsOf(tr.named("server.add")), statsOf(tr.named("server.estimate"))
	frontAdd, frontEst := statsOf(tr.named("mcf0.concurrent_add_batch")), statsOf(tr.named("mcf0.concurrent_estimate"))
	r.add("loadgen.add.mean_us", clientAdd.meanUS(), "us", fmt.Sprintf("(n=%d)", clientAdd.calls))
	r.add("loadgen.estimate.mean_us", clientEst.meanUS(), "us", fmt.Sprintf("(n=%d)", clientEst.calls))
	r.add("server.add.mean_us", srvAdd.meanUS(), "us", fmt.Sprintf("(n=%d)", srvAdd.calls))
	r.add("server.estimate.mean_us", srvEst.meanUS(), "us", fmt.Sprintf("(n=%d)", srvEst.calls))
	r.add("mcf0.concurrent_add_batch.mean_us", frontAdd.meanUS(), "us", fmt.Sprintf("(n=%d)", frontAdd.calls))
	r.add("mcf0.concurrent_estimate.mean_us", frontEst.meanUS(), "us", fmt.Sprintf("(n=%d)", frontEst.calls))
	overhead, pairs := httpOverheadUS(tr)
	r.add("loadgen.http_overhead_us", overhead, "us", fmt.Sprintf("(client minus server span, %d pairs)", pairs))
	r.add("server.add.self_us", srvAdd.meanUS()-frontAdd.meanUS(), "us", "(server.add minus mcf0.concurrent_add_batch)")
	r.add("server.estimate.self_us", srvEst.meanUS()-frontEst.meanUS(), "us", "(server.estimate minus mcf0.concurrent_estimate)")
	hits := metricSum(traced.metrics, "f0d_estimate_cache_hits_total", nil)
	queries := metricSum(traced.metrics, "f0d_estimate_queries_total", nil)
	r.add("server.estimate_cache_hit_ratio", hits/queries, "ratio", fmt.Sprintf("(%.0f of %.0f estimate queries)", hits, queries))
	r.add("server.non2xx", metricSum(traced.metrics, "f0d_http_requests_total", non2xx), "count", "")
	r.add("mcf0.sketch_words", float64(front.SketchWords()), "words", "(in-process front)")
	r.add("stream.repeat_share", repeatShare(total, len(distinct)), "ratio", fmt.Sprintf("(%d of %d elements distinct)", len(distinct), total))
	r.add("mean_rel_err", relErr(want, float64(len(distinct))), "ratio", fmt.Sprintf("(estimate %v, exact %d)", want, len(distinct)))
	r.add("trace.overhead_ratio", traced.throughput()/plain.throughput(), "ratio",
		fmt.Sprintf("(traced %.0f/s, untraced %.0f/s)", traced.throughput(), plain.throughput()))
	return tr, nil
}

// httpOverheadUS is the mean of client span minus server span over
// requests that have both.
func httpOverheadUS(tr *tracer) (float64, int) {
	server := make(map[uint64]int64)
	for _, name := range []string{"server.add", "server.estimate"} {
		for _, s := range tr.named(name) {
			server[s.Parent] = s.dur()
		}
	}
	var sum int64
	var pairs int
	for _, name := range []string{"loadgen.add", "loadgen.estimate"} {
		for _, s := range tr.named(name) {
			if d, ok := server[s.ID]; ok {
				sum += s.dur() - d
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0, 0
	}
	return float64(sum) / float64(pairs) / 1e3, pairs
}
