package server

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/server/store"
)

func TestHistogram(t *testing.T) {
	h := newHistogram(1, 10, 100)
	for _, v := range []float64{0.5, 1, 1.5, 10, 99, 1000} {
		h.Observe(v)
	}
	cum, sum, total := h.snapshot()
	// le="1" is upper-inclusive: 0.5 and 1 land there.
	want := []int64{2, 4, 5, 6} // cumulative: le=1, le=10, le=100, +Inf
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cum[%d] = %d, want %d", i, cum[i], w)
		}
	}
	if total != 6 || sum != 0.5+1+1.5+10+99+1000 {
		t.Errorf("total=%d sum=%g", total, sum)
	}
}

// The exposition endpoint serves well-formed Prometheus text with the
// service's counters reflecting real activity.
func TestPromMetrics(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, _, err := c.Simulate(ctx, fastSim()); err != nil {
		t.Fatal(err)
	}
	resp, err := c.httpClient().Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)

	find := func(name string) int64 {
		t.Helper()
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseInt(rest, 10, 64)
				if err != nil {
					t.Fatalf("%s: bad value %q", name, rest)
				}
				return v
			}
		}
		t.Fatalf("metric %s not found", name)
		return 0
	}
	if v := find("comasrv_sims_executed_total"); v != 1 {
		t.Errorf("sims_executed = %d, want 1", v)
	}
	if v := find("comasrv_requests_total"); v < 1 {
		t.Errorf("requests = %d, want >= 1", v)
	}
	if v := find("comasrv_request_duration_seconds_count"); v < 1 {
		t.Errorf("request_duration count = %d, want >= 1", v)
	}
	// Labeled samples from the aggregated obs counters are present.
	for _, want := range []string{
		`comasrv_obs_events_total{kind="bus-grant"}`,
		`comasrv_obs_bus_occupancy_ns_total{class="read"}`,
		`comasrv_request_duration_seconds_bucket{le="+Inf"}`,
		`comasrv_queue_wait_seconds_bucket{le="+Inf"}`,
		`comasrv_jobs{status="queued"}`,
		"comasrv_build_info{",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every sample line's metric has HELP and TYPE headers, and histogram
	// buckets are monotonically non-decreasing (shared linter).
	if err := LintExposition(body); err != nil {
		t.Errorf("exposition lint: %v", err)
	}
}

// A smoke check that LintExposition actually rejects malformed text.
func TestLintExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"no headers": "foo_total 1\n",
		"non-monotonic buckets": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"bad value": "# HELP g x\n# TYPE g gauge\ng notanumber\n",
	}
	for name, body := range cases {
		if err := LintExposition(body); err == nil {
			t.Errorf("%s: lint accepted malformed exposition", name)
		}
	}
	if err := LintExposition(fmt.Sprintf("# HELP g x\n# TYPE g gauge\ng %g\n", 1.5)); err != nil {
		t.Errorf("lint rejected valid exposition: %v", err)
	}
}

// The text rendering loses nothing: parsing a page's text gives back
// the page, both for one server's page and for a merged 3-shard page
// whose peer slices were themselves scraped over HTTP.
func TestExpositionTextRoundTrip(t *testing.T) {
	srvs, clients := newFleetCluster(t, 3, func(i int, cfg *Config) {
		cfg.ScrapeInterval = -1
	})
	ctx := context.Background()
	for _, c := range clients {
		if err := c.Healthz(ctx); err != nil {
			t.Fatal(err)
		}
	}
	shards := srvs[0].scrapeFleet(ctx)
	for _, sh := range shards {
		if !sh.Up {
			t.Fatalf("shard %s down: %s", sh.ID, sh.Error)
		}
	}
	for name, sc := range map[string]tsdb.Scrape{
		"server": srvs[1].promScrape(),
		"merged": mergeFleetScrape(shards),
	} {
		text := sc.Text()
		got, err := tsdb.ParseExposition(string(text))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, sc) {
			t.Fatalf("%s page does not survive its text:\n%s", name, text)
		}
		if err := LintExposition(string(text)); err != nil {
			t.Fatalf("%s page fails lint: %v", name, err)
		}
	}
}

var update = flag.Bool("update", false, "rewrite golden files in testdata/")

// GET /metrics is pinned byte for byte for a fixed server state: a
// two-member fleet shard with a counter past 1e6 (printed as an
// integer), a gauge past 1e6 (printed in %g exponent form), histogram
// sums that are not integral, and simulator aggregates. Only the
// wall-clock uptime and the build identity are masked.
func TestPromExpositionGolden(t *testing.T) {
	srv, err := New(Config{
		Jobs:           3,
		StoreDir:       t.TempDir(),
		ScrapeInterval: -1,
		Fleet: &FleetConfig{
			ShardID: "s0",
			Members: []fleet.Member{
				{ID: "s0", URL: "http://127.0.0.1:1"},
				{ID: "s1", URL: "http://127.0.0.1:2"},
			},
			ProbeInterval: -1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	c := &srv.counters
	c.requests.Store(42)
	c.cacheHits.Store(17)
	c.simulatedExecNs.Store(123_456_789_012)
	c.activeFlights.Store(1_500_000)
	c.peerFillHits.Store(3)
	c.replicationPushed.Store(2)
	if err := srv.store.Put(store.Key{1}, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.0004, 0.003, 0.02, 1.75, 90} {
		srv.reqDur.Observe(v)
	}
	srv.queueWait.Observe(0.125)
	srv.obsSink.c.Kinds[obs.KindTransition] = 9
	srv.obsSink.c.Transitions[0][3] = 9
	srv.obsSink.c.BusOccNs = [3]int64{2_500_000, 1234, 56}
	srv.obsSink.c.WBStallNs = 789

	rec := httptest.NewRecorder()
	srv.handlePromMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	lines := strings.Split(rec.Body.String(), "\n")
	for i, line := range lines {
		for _, masked := range []string{"comasrv_uptime_seconds ", "comasrv_build_info{"} {
			if strings.HasPrefix(line, masked) {
				lines[i] = masked + "<masked>"
			}
		}
	}
	got := strings.Join(lines, "\n")

	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("/metrics differs from %s:\n%s", path, got)
	}
}
