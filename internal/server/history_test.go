package server

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// histClock pins the server's injectable clock to a fixed, advanceable
// instant so scrapes and history queries are fully deterministic.
type histClock struct {
	t time.Time
}

func (c *histClock) now() time.Time          { return c.t }
func (c *histClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newHistClock(srv *Server) *histClock {
	c := &histClock{t: time.Unix(1_700_000_000, 0)}
	srv.now = c.now
	return c
}

// Driving the self-scrape with a synthetic clock must produce exactly
// the same history on two identical runs — deterministic under the test
// clock, per the acceptance criteria.
func TestMetricsHistoryDeterministicUnderTestClock(t *testing.T) {
	run := func() History {
		srv, c := newTestServer(t, Config{ScrapeInterval: -1})
		clk := newHistClock(srv)
		ctx := context.Background()
		for i := 0; i < 5; i++ {
			if err := c.Healthz(ctx); err != nil {
				t.Fatal(err)
			}
			srv.scrapeSelf(clk.t)
			clk.advance(10 * time.Second)
		}
		h, err := c.MetricsHistory(ctx, time.Hour, 10*time.Second, []string{"comasrv_requests_total"})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	a, b := run(), run()
	// uptime differs run to run but requests_total is exact: 1 healthz
	// (plus this very history request not yet scraped) per tick.
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverge:\n%+v\nvs\n%+v", a, b)
	}
	if len(a.Series) != 1 || a.Series[0].Name != "comasrv_requests_total" {
		t.Fatalf("series = %+v, want exactly comasrv_requests_total", a.Series)
	}
	pts := a.Series[0].Points
	if len(pts) != 5 {
		t.Fatalf("points = %+v, want 5 (one per scrape)", pts)
	}
	for i, p := range pts {
		if want := float64(i + 1); p[1] != want {
			t.Fatalf("point %d = %v, want value %g (cumulative healthz count)", i, p, want)
		}
	}
	if a.StepS != 10 || a.WindowS != 3600 {
		t.Fatalf("effective step/window = %d/%d, want 10/3600", a.StepS, a.WindowS)
	}
}

// A window wider than the fine tier's span must fall over to the
// 2-minute tier and report the coarser effective step.
func TestMetricsHistoryTierFallover(t *testing.T) {
	srv, c := newTestServer(t, Config{ScrapeInterval: -1})
	clk := newHistClock(srv)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := c.Healthz(ctx); err != nil {
			t.Fatal(err)
		}
		srv.scrapeSelf(clk.t)
		clk.advance(2 * time.Minute)
	}
	h, err := c.MetricsHistory(ctx, 2*time.Hour, 0, []string{"comasrv_requests_total"})
	if err != nil {
		t.Fatal(err)
	}
	if h.StepS != 120 {
		t.Fatalf("effective step = %ds, want 120 (coarse tier)", h.StepS)
	}
	if len(h.Series) != 1 || len(h.Series[0].Points) != 3 {
		t.Fatalf("series = %+v, want 3 coarse points", h.Series)
	}
}

// Bad query parameters are 400s, not 500s.
func TestMetricsHistoryBadParams(t *testing.T) {
	_, c := newTestServer(t, Config{ScrapeInterval: -1})
	for _, q := range []string{"?window=bogus", "?step=-5s", "?window=-1", "?window=10000000000"} {
		resp, err := c.httpClient().Get(c.Base + "/v1/metrics/history" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("%s: HTTP %d, want 400", q, resp.StatusCode)
		}
	}
}

// The background loop is on by default (no config) and disabled by a
// negative interval; this pins the wiring, not timing behavior.
func TestScrapeLoopConfig(t *testing.T) {
	srv, c := newTestServer(t, Config{ScrapeInterval: 10 * time.Millisecond})
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := c.MetricsHistory(ctx, 0, 0, []string{"comasrv_requests_total"})
		if err != nil {
			t.Fatal(err)
		}
		if len(h.Series) > 0 && len(h.Series[0].Points) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scrape loop never populated the history store")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = srv
}

// ?family= takes family names: a histogram family selects its
// _bucket/_sum/_count series, and a sample name still selects exactly
// its own series.
func TestMetricsHistoryHistogramFamily(t *testing.T) {
	srv, c := newTestServer(t, Config{ScrapeInterval: -1})
	clk := newHistClock(srv)
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	srv.scrapeSelf(clk.t)

	const fam = "comasrv_request_duration_seconds"
	var want []string
	for _, b := range durationBounds {
		want = append(want, fmt.Sprintf(`%s_bucket{le="%g"}`, fam, float64(b)/1e9))
	}
	want = append(want, fam+`_bucket{le="+Inf"}`, fam+"_sum", fam+"_count")
	h, err := c.MetricsHistory(ctx, time.Hour, 0, []string{fam})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range h.Series {
		got = append(got, s.Name+s.Labels)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("family %s selects %q, want %q", fam, got, want)
	}

	h, err = c.MetricsHistory(ctx, time.Hour, 0, []string{fam + "_count"})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Series) != 1 || h.Series[0].Name != fam+"_count" || h.Series[0].Points[0][1] < 1 {
		t.Fatalf("sample name %s_count selects %+v, want its one series", fam, h.Series)
	}
}
