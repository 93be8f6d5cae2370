package server

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// Prometheus exposition, hand-rolled: the repo is stdlib-only, and the
// daemon needs exactly counters, gauges and two fixed-bucket histograms
// — a page of code, not a dependency. The page is built once as a
// tsdb.Scrape; GET /metrics serves its text, the self-scrape loop and
// the fleet merge take the samples directly. It carries the same
// underlying state as the JSON /v1/metrics, plus the latency/queue-wait
// histograms only this endpoint carries.

// durationBuckets are the shared latency bucket bounds in seconds:
// cached hits land in the millisecond buckets, simulations in the
// seconds range, studies up to the request timeout.
var durationBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// histogram is a fixed-bound cumulative histogram, safe for concurrent
// use. Bounds are upper-inclusive per Prometheus convention; the +Inf
// bucket is implicit.
type histogram struct {
	bounds []float64

	mu     sync.Mutex
	counts []int64 // per-bound, plus the +Inf overflow at the end
	sum    float64
	total  int64
}

func newHistogram(bounds ...float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one value.
func (h *histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (upper-inclusive)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// snapshot returns cumulative bucket counts (one per bound, then +Inf).
func (h *histogram) snapshot() (cum []int64, sum float64, total int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]int64, len(h.counts))
	var running int64
	for i, c := range h.counts {
		running += c
		cum[i] = running
	}
	return cum, h.sum, h.total
}

// promPage builds an exposition page family by family.
type promPage struct {
	tsdb.Scrape
}

func (p *promPage) header(name, help, typ string) {
	p.Families = append(p.Families, tsdb.Family{Name: name, Help: help, Type: typ})
}

func (p *promPage) sample(name, labels string, v float64) {
	p.Samples = append(p.Samples, tsdb.Sample{Name: name, Labels: labels, Value: v})
}

func (p *promPage) counter(name, help string, v int64) {
	p.header(name, help, "counter")
	p.sample(name, "", float64(v))
}

func (p *promPage) gauge(name, help string, v float64) {
	p.header(name, help, "gauge")
	p.sample(name, "", v)
}

// labeled adds one sample with a single label (caller adds the header
// once and the samples in a fixed order).
func (p *promPage) labeled(name, label, value string, v int64) {
	p.sample(name, "{"+label+"="+strconv.Quote(value)+"}", float64(v))
}

func (p *promPage) histogram(name, help string, h *histogram) {
	cum, sum, total := h.snapshot()
	p.header(name, help, "histogram")
	for i, bound := range h.bounds {
		p.sample(name+"_bucket", `{le="`+strconv.FormatFloat(bound, 'g', -1, 64)+`"}`, float64(cum[i]))
	}
	p.sample(name+"_bucket", `{le="+Inf"}`, float64(cum[len(cum)-1]))
	p.sample(name+"_sum", "", sum)
	p.sample(name+"_count", "", float64(total))
}

// busClassNames labels the bus occupancy classes (coma.TxnClass order).
var busClassNames = [3]string{"read", "write", "replace"}

func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(s.promScrape().Text())
}

// promScrape builds the full exposition page. It backs GET /metrics,
// the self-scrape loop that feeds the history store and live stream,
// and the self slice of the fleet-wide /v1/fleet/metrics merge.
func (s *Server) promScrape() tsdb.Scrape {
	c := &s.counters
	var p promPage

	// Service counters.
	p.counter("comasrv_requests_total", "HTTP requests received.", c.requests.Load())
	p.counter("comasrv_bad_requests_total", "Requests rejected as malformed.", c.badRequests.Load())
	p.counter("comasrv_sims_executed_total", "Individual simulations executed (cache misses only).", c.simsExecuted.Load())
	p.counter("comasrv_flights_executed_total", "Computations executed after request collapsing.", c.flightsExecuted.Load())
	p.counter("comasrv_flights_collapsed_total", "Requests that attached to an identical in-progress computation.", c.flightsCollapsed.Load())
	p.counter("comasrv_cache_hits_total", "Requests answered from the result store.", c.cacheHits.Load())
	p.counter("comasrv_cache_bypassed_total", "Requests that forced recomputation (nocache).", c.cacheBypassed.Load())
	p.counter("comasrv_jobs_created_total", "Asynchronous jobs accepted.", c.jobsCreated.Load())
	p.counter("comasrv_jobs_cancelled_total", "Asynchronous jobs cancelled by clients.", c.jobsCancelled.Load())
	p.counter("comasrv_jobs_evicted_total", "Finished asynchronous jobs evicted after their TTL.", c.jobsEvicted.Load())
	p.counter("comasrv_simulated_runs_total", "Simulation results produced for /v1/simulate.", c.simulatedRuns.Load())
	p.counter("comasrv_simulated_exec_ns_total", "Simulated (virtual) nanoseconds executed for /v1/simulate.", c.simulatedExecNs.Load())
	p.counter("comasrv_load_shed_total", "Computations rejected with 429 by admission control.", c.loadShed.Load())

	// Uploaded traces (POST /v1/traces and simulate-by-ref).
	p.counter("comasrv_traces_uploaded_total", "Traces accepted by POST /v1/traces.", c.tracesUploaded.Load())
	p.counter("comasrv_traces_deleted_total", "Uploaded traces deleted by clients.", c.tracesDeleted.Load())
	p.counter("comasrv_trace_sims_total", "Simulations executed by trace_ref.", c.traceSims.Load())
	p.gauge("comasrv_traces_retained", "Uploaded traces currently indexed.", float64(s.retainedTraces()))

	// Pool and job occupancy.
	p.gauge("comasrv_active_flights", "Computations currently executing.", float64(c.activeFlights.Load()))
	p.gauge("comasrv_sim_slots", "Simulation pool capacity.", float64(s.pool.Size()))
	p.gauge("comasrv_sim_slots_in_use", "Simulation slots currently held.", float64(s.pool.InUse()))
	p.gauge("comasrv_sim_queue_waiting", "Acquisitions queued for simulation slots.", float64(s.pool.Waiting()))
	queued, running := s.jobCounts()
	p.header("comasrv_jobs", "Asynchronous jobs by live state.", "gauge")
	p.labeled("comasrv_jobs", "status", "queued", queued)
	p.labeled("comasrv_jobs", "status", "running", running)
	p.gauge("comasrv_jobs_retained", "Asynchronous jobs currently held in the job table.", float64(s.retainedJobs()))

	// Fleet: shard identity, ring membership and peer traffic, so a
	// per-shard dashboard can label every series by shard.
	if f := s.fleet; f != nil {
		p.header("comasrv_shard_info", "Fleet shard identity (value is always 1).", "gauge")
		p.sample("comasrv_shard_info", fmt.Sprintf("{shard_id=%q,members=\"%d\",virtual_nodes=\"%d\"}",
			f.self.ID, f.ring.Len(), f.ring.VirtualNodes()), 1)
		p.gauge("comasrv_fleet_members", "Shards in the configured ring membership.", float64(f.ring.Len()))
		peers := f.peerView()
		p.header("comasrv_peer_reachable", "Peer reachability as probed by this shard (1 = reachable).", "gauge")
		for _, peer := range peers {
			v := int64(0)
			if peer.Reachable {
				v = 1
			}
			p.labeled("comasrv_peer_reachable", "peer", peer.ID, v)
		}
		p.header("comasrv_peer_fill_total", "Peer-fill attempts against owner shards by outcome.", "counter")
		p.labeled("comasrv_peer_fill_total", "outcome", "hit", c.peerFillHits.Load())
		p.labeled("comasrv_peer_fill_total", "outcome", "miss", c.peerFillMisses.Load())
		p.labeled("comasrv_peer_fill_total", "outcome", "error", c.peerFillErrors.Load())
		p.header("comasrv_peer_served_total", "Fleet entry reads served to peers by outcome.", "counter")
		p.labeled("comasrv_peer_served_total", "outcome", "hit", c.peerServed.Load())
		p.labeled("comasrv_peer_served_total", "outcome", "miss", c.peerServedMisses.Load())
		p.counter("comasrv_replication_pushed_total", "Hot entries pushed to replica shards.", c.replicationPushed.Load())
		p.counter("comasrv_replication_received_total", "Replica entries accepted from peers.", c.replicationReceived.Load())
		p.counter("comasrv_replication_errors_total", "Failed replication pushes.", c.replicationErrors.Load())
	}

	// Result store.
	st := s.store.Stats()
	p.counter("comasrv_store_mem_hits_total", "Store reads served from memory.", st.MemHits)
	p.counter("comasrv_store_disk_hits_total", "Store reads served from disk.", st.DiskHits)
	p.counter("comasrv_store_misses_total", "Store reads that missed.", st.Misses)
	p.counter("comasrv_store_puts_total", "Results persisted into the store.", st.Puts)
	p.counter("comasrv_store_corrupt_total", "Corrupt store entries healed by recomputation.", st.Corrupt)
	p.gauge("comasrv_store_mem_bytes", "Bytes held by the in-memory result cache.", float64(st.MemBytes))
	p.gauge("comasrv_store_mem_items", "Entries held by the in-memory result cache.", float64(st.MemItems))
	p.gauge("comasrv_store_disk_items", "Entries persisted on disk.", float64(st.DiskItems))

	// Latency histograms.
	p.histogram("comasrv_request_duration_seconds", "End-to-end HTTP request latency.", s.reqDur)
	p.histogram("comasrv_queue_wait_seconds", "Time computations waited for simulation slots.", s.queueWait)

	// Aggregated simulator observability (all executed simulations).
	o := s.obsSink.snapshot()
	p.header("comasrv_obs_events_total", "Simulator instrumentation events by kind.", "counter")
	for k := 0; k < obs.NumKinds; k++ {
		name := obs.Kind(k).String()
		p.labeled("comasrv_obs_events_total", "kind", name, o.Events[name])
	}
	p.header("comasrv_obs_bus_occupancy_ns_total", "Simulated bus occupancy by transaction class.", "counter")
	for i, v := range o.BusOccNs {
		p.labeled("comasrv_obs_bus_occupancy_ns_total", "class", busClassNames[i], v)
	}
	p.counter("comasrv_obs_am_transitions_total", "Attraction-memory state transitions observed.", o.Transitions)
	p.counter("comasrv_obs_wb_stall_ns_total", "Simulated write-buffer stall nanoseconds observed.", o.WBStallNs)

	// Identity.
	p.gauge("comasrv_uptime_seconds", "Seconds since the server started.", time.Since(s.started).Seconds())
	p.header("comasrv_build_info", "Build identity (value is always 1).", "gauge")
	p.sample("comasrv_build_info", fmt.Sprintf("{go_version=%q,revision=%q}", runtime.Version(), buildID.rev), 1)

	return p.Scrape
}

// LintExposition validates a Prometheus text exposition (format 0.0.4):
// the page parses, every family has HELP and a known TYPE, every sample
// belongs to a declared family, and histogram bucket counts are
// cumulative (monotonically non-decreasing) and end in a +Inf bucket
// matching _count. Histogram state is tracked per label set (minus the
// le pair), so a family that carries one histogram per shard — the
// merged /v1/fleet/metrics rendering — is linted series by series. The
// docs conformance test and the CI boot smoke run it against a live
// /metrics scrape so a malformed exposition fails the build, not the
// scrape.
func LintExposition(body string) error {
	sc, err := tsdb.ParseExposition(body)
	if err != nil {
		return err
	}
	typ := make(map[string]string, len(sc.Families))
	for _, f := range sc.Families {
		switch f.Type {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("family %s: unknown or missing TYPE %q", f.Name, f.Type)
		}
		typ[f.Name] = f.Type
	}
	type histState struct {
		last, inf        float64
		hasInf, hasCount bool
	}
	hists := make(map[string]*histState)
	for i, family := range sc.SampleFamilies() {
		sa := sc.Samples[i]
		if typ[family] == "" {
			return fmt.Errorf("sample %s has no HELP/TYPE headers", sa.Name)
		}
		if typ[family] != "histogram" {
			continue
		}
		group := family + stripLabel(sa.Labels, "le")
		st := hists[group]
		if st == nil {
			st = &histState{}
			hists[group] = st
		}
		switch sa.Name {
		case family + "_bucket":
			if sa.Value < st.last {
				return fmt.Errorf("histogram %s bucket counts decrease (%g after %g)", group, sa.Value, st.last)
			}
			st.last = sa.Value
			if strings.Contains(sa.Labels, `le="+Inf"`) {
				st.hasInf = true
				st.inf = sa.Value
			}
		case family + "_count":
			st.hasCount = true
			if st.hasInf && sa.Value != st.inf {
				return fmt.Errorf("histogram %s: _count %g != +Inf bucket %g", group, sa.Value, st.inf)
			}
		}
	}
	for group, st := range hists {
		if !st.hasInf {
			return fmt.Errorf("histogram %s has no +Inf bucket", group)
		}
		if !st.hasCount {
			return fmt.Errorf("histogram %s has no _count", group)
		}
	}
	return nil
}

// stripLabel removes one name="value" pair from a label block, keeping
// the rest intact, so histogram series can be grouped by their identity
// labels without the per-bucket le. Values are Go-quoted (%q), so they
// may contain escaped quotes and commas; a block that does not scan is
// returned unchanged.
func stripLabel(labels, drop string) string {
	var kept []string
	for rest := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}"); rest != ""; {
		name, val, _ := strings.Cut(rest, "=")
		q, err := strconv.QuotedPrefix(val)
		if err != nil {
			return labels
		}
		if name != drop {
			kept = append(kept, name+"="+q)
		}
		rest = strings.TrimPrefix(val[len(q):], ",")
	}
	if len(kept) == 0 {
		return ""
	}
	return "{" + strings.Join(kept, ",") + "}"
}

// jobCounts tallies the live job states for the gauges.
func (s *Server) jobCounts() (queued, running int64) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	for _, j := range s.jobs {
		j.mu.Lock()
		switch j.status {
		case JobQueued:
			queued++
		case JobRunning:
			running++
		}
		j.mu.Unlock()
	}
	return queued, running
}
