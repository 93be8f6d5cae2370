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
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/loadgen"
	"repro/internal/machine"
	"repro/internal/obs/tracing"
	"repro/internal/server"
	"repro/internal/trace"
)

// The serve-mixed traffic: 62.5 requests per second in blocks of 54,
// each 48 hits, 4 misses and 2 ingests. The 48/54 = 88.9% hit share is
// the store-served share of the single-shard loadgen record in
// BENCH_results.json ("single-1": 3825 local of 4314 requests, 88.7%).
// A block's misses arrive at once at its start: three never-seen
// configurations, the first of them sent twice. With two simulation
// slots one of the three waits in the daemon's pool, and the duplicate
// collapses onto its twin's flight, so the pool's queue and the
// singleflight path both work in every block. Its two ingests arrive
// together half a block later, when the misses are done. A 30 s run has
// 34 blocks: 1632 hits, 136 misses (102 computed, 34 collapsed) and 68
// ingests.
const (
	serveRate = 62.5 // requests per second, all classes
	blockLen  = 54
	// The misses take the first missLen slots of a block, due at its
	// start; the ingests take slots ingestSlot and ingestSlot+1, both due
	// at the first of them.
	missLen    = 4
	ingestSlot = blockLen / 2
	zipfTheta  = 0.99
	// storeBytes holds every ingested payload and result of a run in
	// the daemon's memory store, so no warmed key is evicted and a hit
	// stays a store read.
	storeBytes = 256 << 20
	// scrapeInterval turns the daemon's self-scrape on at a cadence that
	// runs it several times in a run.
	scrapeInterval = time.Second
)

// missApps are the paper applications a miss simulates at 16
// processors, in rotation, so every run has the same cost mix.
var missApps = []string{"fft", "fmm", "water-n2", "water-sp", "cholesky", "radiosity", "ocean-n", "volrend"}

// ingestBase is the trace ingest requests upload, renamed per request
// so each payload has its own digest.
var ingestBase = genKey{"alloc-churn", 4}

// warmApp at warmProcs is the simulation behind every hit key; a hit
// only reads its stored body, so the cheapest kernel keeps set-up short.
const (
	warmApp   = "alloc-churn"
	warmProcs = 4
)

// ppns are the clustering degrees requests use. Every configuration
// keeps at least two nodes: a one-node machine makes the daemon panic
// (see CHANGES.md), so warmed keys and ingests, at 4 processors, use
// the first two.
var ppns = []int{1, 2, 4}

const (
	classHit = iota
	classMiss
	classIngest
)

var classNames = []string{"hit", "miss", "ingest"}

// op is one scheduled request. An ingest is an upload followed by a
// simulate-by-reference, timed together.
type op struct {
	class int
	// dup marks a miss sent together with an identical one; it should
	// collapse onto its twin's flight.
	dup  bool
	due  time.Duration
	body []byte // POST /v1/simulate body
	key  int    // hit: warm key index; ingest: payload index
	app  string
	cfg  config.Machine // the configuration the daemon should simulate
}

// serveInputs is everything the generator sends, made from the seed.
type serveInputs struct {
	warm     [][]byte // simulate bodies of the hit key set
	ops      []op
	payloads [][]byte
	digests  []string
	// payloadRefs is the data references in each payload's trace.
	payloadRefs int64
}

func makeInputs(seed int64, seconds time.Duration) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &serveInputs{}
	for _, ppn := range ppns[:2] {
		for _, mp := range config.Pressures {
			for _, ways := range []int{1, 2, 4} {
				b, err := json.Marshal(server.SimRequest{App: warmApp, Procs: warmProcs, ProcsPerNode: ppn, MP: mp.Label, AMWays: ways})
				if err != nil {
					return nil, err
				}
				in.warm = append(in.warm, b)
			}
		}
	}
	rng.Shuffle(len(in.warm), func(i, j int) { in.warm[i], in.warm[j] = in.warm[j], in.warm[i] })
	zipf, err := loadgen.NewDist("zipfian", len(in.warm), zipfTheta, seed)
	if err != nil {
		return nil, err
	}

	a, err := apps.ByName(ingestBase.app)
	if err != nil {
		return nil, err
	}
	base := a.Generate(ingestBase.procs)
	in.payloadRefs = dataRefs(base)

	blocks := int(serveRate*seconds.Seconds()) / blockLen
	interval := time.Duration(float64(time.Second) / serveRate)
	misses := 0
	for block := 0; block < blocks; block++ {
		start := time.Duration(block*blockLen) * interval
		for k := 0; k < blockLen; k++ {
			o := op{class: classHit, due: start + time.Duration(k)*interval}
			switch {
			case k == 1:
				// The duplicate of the block's first miss.
				o = in.ops[len(in.ops)-1]
				o.dup = true
			case k < missLen:
				// A never-seen configuration: the rotation fixes the cost
				// mix, and a seeded DRAM bandwidth within 2% of the
				// baseline makes the key unique.
				o = op{class: classMiss, due: start}
				o.app = missApps[misses%len(missApps)]
				ppn := ppns[(misses/len(missApps))%len(ppns)]
				mp := config.Pressures[(misses/(len(missApps)*len(ppns)))%len(config.Pressures)]
				dram := 1 + (float64(misses)+rng.Float64())/8192
				misses++
				req := server.SimRequest{App: o.app, ProcsPerNode: ppn, MP: mp.Label, DRAMBandwidth: dram}
				if o.body, err = json.Marshal(req); err != nil {
					return nil, err
				}
				o.cfg = config.Baseline(ppn, mp)
				o.cfg.Procs = 16
				o.cfg.DRAMBandwidth = dram
				o.cfg.Fidelity = config.Fidelity{Mode: machine.FidelityExact}
			case k == ingestSlot || k == ingestSlot+1:
				o = op{class: classIngest, due: start + ingestSlot*interval}
				tr := *base
				tr.Name = fmt.Sprintf("ingest-%d-%d-%d", seed, block, k)
				payload := tr.EncodeCompact()
				d := digest(payload)
				j := len(in.payloads)
				ppn := ppns[j%2]
				mp := config.Pressures[(j/2)%len(config.Pressures)]
				req := server.SimRequest{TraceRef: d, ProcsPerNode: ppn, MP: mp.Label}
				if o.body, err = json.Marshal(req); err != nil {
					return nil, err
				}
				o.key = j
				o.cfg = config.Baseline(ppn, mp)
				o.cfg.Procs = base.Procs
				o.cfg.Fidelity = config.Fidelity{Mode: machine.FidelityExact}
				in.payloads = append(in.payloads, payload)
				in.digests = append(in.digests, d)
			default:
				o.key = zipf.Next()
				o.body = in.warm[o.key]
			}
			in.ops = append(in.ops, o)
		}
	}
	return in, nil
}

// daemon is one in-process comasrv on a loopback listener. It speaks
// HTTP/1.1 and cleartext HTTP/2, and counts the connections it accepts.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
	conns  atomic.Int64
}

func startDaemon(jobs int) (*daemon, error) {
	srv, err := server.New(server.Config{Jobs: jobs, StoreMemBytes: storeBytes, ScrapeInterval: scrapeInterval})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var protocols http.Protocols
	protocols.SetHTTP1(true)
	protocols.SetUnencryptedHTTP2(true)
	d := &daemon{srv: srv, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	d.hs = &http.Server{Handler: srv, Protocols: &protocols, ConnState: func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			d.conns.Add(1)
		}
	}}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the listener, cancels the daemon's work and waits for the
// serving goroutine to return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a timeout still closes the listener
	d.srv.Close()
	<-d.served
}

// newClient returns a client that holds exactly one HTTP/1.1
// connection, so requests on it go one at a time. The timeout turns a
// hung daemon into failed requests instead of a hung run.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// newMuxClient returns a client that speaks cleartext HTTP/2 over one
// connection, so any number of requests on it run at once.
func newMuxClient() *http.Client {
	var protocols http.Protocols
	protocols.SetUnencryptedHTTP2(true)
	return &http.Client{
		Transport: &http.Transport{Protocols: &protocols, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

func post(c *http.Client, url, ctype string, body []byte, traceID string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", ctype)
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// envelope is the part of a simulate response the checks compare: the
// content address and the result bytes, which a hit must serve exactly
// as first computed.
type envelope struct {
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// servedBodies maps each content address to the result first served
// for it.
type servedBodies struct {
	mu sync.Mutex
	m  map[string]string
}

// check records the first body served for a key and reports whether a
// later one differs.
func (s *servedBodies) check(e envelope) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.m[e.Key]; ok {
		return prev == string(e.Result)
	}
	s.m[e.Key] = string(e.Result)
	return true
}

// setupServe starts a daemon, makes the inputs from the seed and warms
// the hit key set, returning the ready daemon.
func setupServe(r *run) (*daemon, *serveInputs, *servedBodies, time.Duration, error) {
	t := time.Now()
	d, err := startDaemon(r.jobs)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	in, err := makeInputs(r.seed, r.seconds)
	if err != nil {
		d.stop()
		return nil, nil, nil, 0, err
	}
	first := &servedBodies{m: map[string]string{}}
	var wg sync.WaitGroup
	errs := make([]error, r.jobs)
	for w := 0; w < r.jobs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for i := w; i < len(in.warm); i += r.jobs {
				code, b, err := post(c, d.url+"/v1/simulate", "application/json", in.warm[i], "")
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("warm-up: status %d: %s", code, b)
				}
				var e envelope
				if err == nil {
					err = json.Unmarshal(b, &e)
				}
				if err != nil {
					errs[w] = err
					return
				}
				first.check(e)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.stop()
			return nil, nil, nil, 0, err
		}
	}
	return d, in, first, time.Since(t), nil
}

// outcome is what the generator observed for one op.
type outcome struct {
	latency time.Duration // from due time to completion
	lag     time.Duration // how late the generator released the op
	done    time.Time
	ok      bool
	result  json.RawMessage // computed result (miss, ingest)
	spans   []tracing.SpanData
}

// traffic is one open-loop run of the schedule against a daemon.
type traffic struct {
	start    time.Time
	end      time.Time // last completion
	outcomes []outcome
	failures []string
}

// drive offers the schedule open-loop over two connections, the most a
// 2-vCPU host's generator gets. A dispatcher releases every op at its due
// time and latency counts from the due time. Hits go one at a time, in
// due order, over an HTTP/1.1 connection of their own, so their latency
// is the daemon's read path under the computations' CPU load and never
// waits behind a computation. Misses and ingests each start as they are
// released, all on one HTTP/2 connection, so they overlap and queue in
// the daemon's simulation pool rather than in the generator. With traced
// set, each op carries a trace ID and its spans are fetched after it
// completes.
func drive(r *run, d *daemon, in *serveInputs, first *servedBodies, traced bool) *traffic {
	t := &traffic{outcomes: make([]outcome, len(in.ops))}
	// The hit queue can hold the whole schedule, so the dispatcher never
	// waits for the connection and its lateness measures only itself.
	hits := make(chan int, len(in.ops))
	var mu sync.Mutex
	failf := func(format string, args ...any) {
		mu.Lock()
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	hitClient, computeClient := newClient(), newMuxClient()
	defer hitClient.CloseIdleConnections()
	defer computeClient.CloseIdleConnections()
	send := func(c *http.Client, i int) {
		o := &in.ops[i]
		out := &t.outcomes[i]
		traceID := ""
		if traced {
			traceID = fmt.Sprintf("%016x%016x", uint64(r.seed), uint64(i+1))
		}
		err := serveOp(c, d, in, first, o, out, traceID)
		out.done = time.Now()
		out.latency = out.done.Sub(t.start.Add(o.due))
		if err != nil {
			failf("%s op %d: %v", classNames[o.class], i, err)
			return
		}
		out.ok = true
		if traced {
			code, b, err := get(c, d.url+"/v1/traces/"+traceID)
			var td tracing.TraceData
			if err == nil && code == http.StatusOK {
				err = json.Unmarshal(b, &td)
			} else if err == nil {
				err = fmt.Errorf("status %d", code)
			}
			if err != nil {
				failf("fetching spans of op %d: %v", i, err)
				return
			}
			out.spans = td.Spans
		}
	}
	conns0 := d.conns.Load()
	t.start = time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range hits {
			send(hitClient, i)
		}
	}()
	for i := range in.ops {
		// Timers fire up to a millisecond late, half a hit's latency, so
		// the dispatcher sleeps until a millisecond before each due time
		// and spins the rest.
		due := t.start.Add(in.ops[i].due)
		if wait := time.Until(due) - time.Millisecond; wait > 0 {
			time.Sleep(wait)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		t.outcomes[i].lag = time.Since(due)
		if in.ops[i].class == classHit {
			hits <- i
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			send(computeClient, i)
		}(i)
	}
	close(hits)
	wg.Wait()
	if n := d.conns.Load() - conns0; n > 2 {
		failf("the generator opened %d connections, want at most 2", n)
	}
	for _, o := range t.outcomes {
		if o.done.After(t.end) {
			t.end = o.done
		}
	}
	return t
}

// serveOp sends one op and checks its response.
func serveOp(c *http.Client, d *daemon, in *serveInputs, first *servedBodies, o *op, out *outcome, traceID string) error {
	if o.class == classIngest {
		code, b, err := post(c, d.url+"/v1/traces", "application/octet-stream", in.payloads[o.key], traceID)
		if err != nil {
			return err
		}
		if code != http.StatusCreated {
			return fmt.Errorf("upload: status %d: %s", code, b)
		}
		var meta server.TraceMeta
		if err := json.Unmarshal(b, &meta); err != nil {
			return fmt.Errorf("upload: %w", err)
		}
		if meta.Digest != in.digests[o.key] || meta.Procs != o.cfg.Procs {
			return fmt.Errorf("upload: digest %s procs %d, want %s procs %d", meta.Digest, meta.Procs, in.digests[o.key], o.cfg.Procs)
		}
	}
	code, b, err := post(c, d.url+"/v1/simulate", "application/json", o.body, traceID)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("simulate: status %d: %s", code, b)
	}
	var e envelope
	if err := json.Unmarshal(b, &e); err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	if len(e.Result) == 0 {
		return fmt.Errorf("simulate: empty result")
	}
	// A duplicate may find its twin's result already stored: it is
	// served from the store then, which is correct too.
	if e.Cached != (o.class == classHit) && !o.dup {
		return fmt.Errorf("simulate: cached=%t for a %s", e.Cached, classNames[o.class])
	}
	if !first.check(e) {
		return fmt.Errorf("simulate: body for key %s differs from the one first served", e.Key)
	}
	if o.class != classHit && !o.dup {
		out.result = e.Result
	}
	return nil
}

// classLatencies splits successful ops' latencies by class, in ms.
func (t *traffic) classLatencies(in *serveInputs) [3][]float64 {
	var lat [3][]float64
	for i, o := range t.outcomes {
		if o.ok {
			lat[in.ops[i].class] = append(lat[in.ops[i].class], ms(o.latency))
		}
	}
	return lat
}

// lags lists how late the dispatcher released each op, in ms.
func (t *traffic) lags() []float64 {
	var lags []float64
	for _, o := range t.outcomes {
		lags = append(lags, ms(o.lag))
	}
	return lags
}

func (t *traffic) account(r *run) {
	r.rep.Attempted += int64(len(t.outcomes))
	for _, f := range t.failures {
		r.fail("%s", f)
	}
}

func serveMixed(r *run) error {
	if r.trace {
		return tracedServe(r)
	}
	// At least five set-ups, each a fresh daemon with the key set warmed
	// and the inputs encoded; the last one serves the run.
	var setups []float64
	var d *daemon
	var in *serveInputs
	var first *servedBodies
	for moreSetups(setups) {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		var err error
		d, in, first, took, err = setupServe(r)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
	}
	t := drive(r, d, in, first, false)
	d.stop()
	t.account(r)
	lat := t.classLatencies(in)
	lags := t.lags()
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.set("setup_s", median(setups), "s")
	r.set("wall_s", t.end.Sub(t.start).Seconds(), "s")
	r.set("peak_rss_mib", rss, "MiB")
	r.setLatencies("hit", lat[classHit], 0.99, "p99")
	r.setLatencies("miss", lat[classMiss], 0.9, "p90")
	r.setLatencies("ingest", lat[classIngest], 0.9, "p90")
	r.note("offered %.1f req/s for %v: hits=%d misses=%d ingests=%d; generator lag p50 %.3f p99 %.3f ms",
		serveRate, r.seconds, len(lat[classHit]), len(lat[classMiss]), len(lat[classIngest]), median(lags), quantile(lags, 0.99))
	return nil
}

// tracedServe is the traced run of serve-mixed: the same traffic twice
// on fresh daemons, untraced and then traced (trace IDs on every
// request, spans fetched and kept, a CPU profile), followed by a local
// replay of every computed request that checks the daemon's results and
// sums the simulated counts.
func tracedServe(r *run) error {
	d, in, first, _, err := setupServe(r)
	if err != nil {
		return err
	}
	plain := drive(r, d, in, first, false)
	d.stop()
	plain.account(r)
	plainHits := plain.classLatencies(in)[classHit]

	d, in, first, _, err = setupServe(r)
	if err != nil {
		return err
	}
	before, err := daemonMetrics(d)
	if err != nil {
		d.stop()
		return err
	}
	prof, err := startProfile()
	if err != nil {
		d.stop()
		return err
	}
	cpu0 := readCPUClasses()
	t := drive(r, d, in, first, true)
	cpu1 := readCPUClasses()
	base := fmt.Sprintf("%s/%s-seed%d", outDir, r.workload, r.seed)
	shares, err := prof.stop(base + ".cpu.pprof")
	if err != nil {
		d.stop()
		return err
	}
	after, err := daemonMetrics(d)
	if err != nil {
		d.stop()
		return err
	}
	var scrapes []float64
	c := newClient()
	for i := 0; i < 10; i++ {
		s := time.Now()
		code, _, err := get(c, d.url+"/metrics")
		if err != nil || code != http.StatusOK {
			d.stop()
			return fmt.Errorf("GET /metrics: status %d: %v", code, err)
		}
		scrapes = append(scrapes, ms(time.Since(s)))
	}
	c.CloseIdleConnections()
	d.stop()
	t.account(r)
	if err := writeServeSpans(base+".spans.jsonl", t); err != nil {
		return err
	}

	lat := t.classLatencies(in)
	var canon, lookup, render, queueWait, simulate, upload []float64
	var sims int
	var simNs int64
	for i, o := range t.outcomes {
		class := in.ops[i].class
		children := map[string]time.Duration{}
		var root tracing.SpanData
		for _, s := range o.spans {
			dur := time.Duration(s.DurationNs)
			switch s.Name {
			case "canonicalize":
				if class == classHit {
					canon = append(canon, ms(dur))
				}
			case "store.lookup":
				if class == classHit {
					lookup = append(lookup, ms(dur))
				}
			case "queue.wait":
				queueWait = append(queueWait, ms(dur))
			case "simulate":
				if class == classMiss {
					simulate = append(simulate, ms(dur))
				}
				sims++
				simNs += s.DurationNs
			case "POST /v1/traces":
				upload = append(upload, ms(dur))
			case "POST /v1/simulate":
				root = s
			}
			if s.ParentID != "" {
				children[s.ParentID] += dur
			}
		}
		if class == classHit && root.SpanID != "" {
			// The simulate route has no render span: decoding the request
			// and encoding and writing the envelope is the root span's
			// self time.
			render = append(render, ms(time.Duration(root.DurationNs)-children[root.SpanID]))
		}
	}

	counts, err := replay(r, in, t)
	if err != nil {
		return err
	}

	hits := after.Store.MemHits + after.Store.DiskHits - before.Store.MemHits - before.Store.DiskHits
	lookups := hits + after.Store.Misses - before.Store.Misses
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(hits) / float64(lookups)
	}
	r.set("server.canonicalize_ms_p50", median(canon), "ms")
	r.set("server.canonicalize_ms_p90", quantile(canon, 0.9), "ms")
	r.set("server.store_lookup_ms_p50", median(lookup), "ms")
	r.set("server.store_lookup_ms_p90", quantile(lookup, 0.9), "ms")
	r.set("server.render_ms_p50", median(render), "ms")
	r.set("server.render_ms_p90", quantile(render, 0.9), "ms")
	r.set("store.hit_ratio", hitRatio, "ratio")
	r.set("server.flights_collapsed", float64(after.FlightsCollapsed-before.FlightsCollapsed), "count")
	r.set("server.metrics_scrape_ms", median(scrapes), "ms")
	r.set("server.queue_wait_ms_p90", quantile(queueWait, 0.9), "ms")
	r.set("server.simulate_ms_p50", median(simulate), "ms")
	r.set("server.sims_executed", float64(after.SimsExecuted-before.SimsExecuted), "count")
	r.set("server.upload_ms_p50", median(upload), "ms")
	r.set("loadgen.lag_ms_p99", quantile(t.lags(), 0.99), "ms")
	r.set("experiments.simulations", float64(sims), "count")
	setSlotSplit(r, simNs, t.start, t.end)
	r.set("machine.ns_per_ref", float64(simNs)/float64(counts.Refs), "ns")
	r.set("tracing.overhead_ms", median(lat[classHit])-median(plainHits), "ms")
	setLayerShares(r, shares, gcShare(cpu0, cpu1))
	counts.report(r)
	r.note("untraced hit_p50_ms=%.3f traced hit_p50_ms=%.3f; spans and profile in %s.*",
		median(plainHits), median(lat[classHit]), base)
	return nil
}

func daemonMetrics(d *daemon) (server.Metrics, error) {
	var m server.Metrics
	c := newClient()
	defer c.CloseIdleConnections()
	code, b, err := get(c, d.url+"/v1/metrics")
	if err != nil {
		return m, err
	}
	if code != http.StatusOK {
		return m, fmt.Errorf("GET /v1/metrics: status %d", code)
	}
	return m, json.Unmarshal(b, &m)
}

// writeServeSpans writes every fetched span, one JSON object per line.
func writeServeSpans(path string, t *traffic) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, o := range t.outcomes {
		for _, s := range o.spans {
			enc.Encode(s)
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// replay simulates every computed request of a traced run again with the
// library, checks the daemon served the same result, and sums the
// simulated counts. It also times trace generation for the miss
// applications and decoding of the ingest payloads.
func replay(r *run, in *serveInputs, t *traffic) (simCounts, error) {
	var c simCounts
	var keys []genKey
	for _, app := range missApps {
		keys = append(keys, genKey{app, 16})
	}
	_, refs, genTime, err := generate(keys)
	if err != nil {
		return c, err
	}
	var genRefs int64
	for _, n := range refs {
		genRefs += n
	}
	r.set("apps.gen_ns_per_ref", float64(genTime)/float64(genRefs), "ns")
	decoded := make([]*trace.Trace, len(in.payloads))
	var decodeTime time.Duration
	for i, p := range in.payloads {
		s := time.Now()
		tr, err := trace.DecodeCompact(p)
		decodeTime += time.Since(s)
		if err != nil {
			return c, fmt.Errorf("decoding payload %d: %w", i, err)
		}
		decoded[i] = tr
	}
	r.set("trace.decode_ns_per_ref", float64(decodeTime)/float64(in.payloadRefs*int64(len(in.payloads))), "ns")

	var todo []int
	for i, o := range in.ops {
		if o.class != classHit && !o.dup && t.outcomes[i].ok {
			todo = append(todo, i)
		}
	}
	results := make([]*machine.Result, len(in.ops))
	errs := make([]error, len(in.ops))
	rn := experiments.NewRunner()
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < r.jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				o := &in.ops[i]
				if o.class == classMiss {
					results[i], errs[i] = rn.Run(o.app, o.cfg)
				} else {
					results[i], errs[i] = rn.RunTrace(decoded[o.key], o.cfg)
				}
			}
		}()
	}
	for _, i := range todo {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, i := range todo {
		o := &in.ops[i]
		r.rep.Attempted++
		if errs[i] != nil {
			r.fail("replay of op %d: %v", i, errs[i])
			continue
		}
		res := results[i]
		var served server.SimResult
		if err := json.Unmarshal(t.outcomes[i].result, &served); err != nil {
			r.fail("op %d: served result: %v", i, err)
			continue
		}
		if served.ExecTimeNs != int64(res.ExecTime) || served.Reads != res.Reads || served.ReadNodeMisses != res.ReadNodeMisses {
			r.fail("op %d (%s): daemon served exec=%d reads=%d rnm=%d, library computes exec=%d reads=%d rnm=%d",
				i, classNames[o.class], served.ExecTimeNs, served.Reads, served.ReadNodeMisses,
				res.ExecTime, res.Reads, res.ReadNodeMisses)
		}
		n := in.payloadRefs
		if o.class == classMiss {
			n = refs[genKey{o.app, 16}]
		}
		c.add(res, n)
	}
	return c, nil
}

// setServeZero reports the server-side per-layer metrics of a batch
// workload, which never reaches the daemon: zero work in every layer it
// bypasses.
func setServeZero(r *run) {
	for _, name := range []string{
		"server.canonicalize_ms_p50", "server.canonicalize_ms_p90",
		"server.store_lookup_ms_p50", "server.store_lookup_ms_p90",
		"server.render_ms_p50", "server.render_ms_p90",
		"server.metrics_scrape_ms", "server.queue_wait_ms_p90",
		"server.simulate_ms_p50", "server.upload_ms_p50", "loadgen.lag_ms_p99",
	} {
		r.set(name, 0, "ms")
	}
	r.set("store.hit_ratio", 0, "ratio")
	r.set("server.flights_collapsed", 0, "count")
	r.set("server.sims_executed", 0, "count")
	r.set("trace.decode_ns_per_ref", 0, "ns")
}
