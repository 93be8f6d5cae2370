package server

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs/tsdb"
)

// DefaultScrapeInterval is how often the daemon scrapes its own
// Prometheus registry into the history store when Config.ScrapeInterval
// is zero.
const DefaultScrapeInterval = 10 * time.Second

// historyTiers sizes the history store's ring tiers to the configured
// scrape cadence: the fine tier's step is the scrape interval rounded
// up to a whole second (the store's resolution floor), the coarse tier
// 12x that, so a faster-than-default cadence yields proportionally
// finer history instead of collapsing into 10-second buckets. The
// default cadence reproduces tsdb.DefaultTiers exactly.
func historyTiers(scrapeInterval time.Duration) []tsdb.TierSpec {
	interval := scrapeInterval
	if interval <= 0 {
		interval = DefaultScrapeInterval
	}
	fine := interval.Truncate(time.Second)
	if fine < interval {
		fine += time.Second
	}
	return []tsdb.TierSpec{
		{Step: fine, Capacity: 360},
		{Step: 12 * fine, Capacity: 720},
	}
}

// scrapeSelf takes one self-scrape at time t: the page GET /metrics
// serves is appended to the history store as samples. Tests drive it
// directly with a synthetic clock; the background loop drives it with
// the wall clock.
func (s *Server) scrapeSelf(t time.Time) {
	s.history.AppendScrape(s.promScrape(), t)
}

// scrapeLoop is the background self-scrape ticker; it runs until the
// server closes.
func (s *Server) scrapeLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.scrapeSelf(s.now())
		}
	}
}

// HistorySeries is one metric stream in the GET /v1/metrics/history
// payload. Points are [unix_seconds, value] pairs in time order; a
// counter reads as a staircase (rate = Δvalue/Δt between points).
type HistorySeries struct {
	Name   string       `json:"name"`
	Labels string       `json:"labels,omitempty"`
	Points [][2]float64 `json:"points"`
}

// History is the GET /v1/metrics/history payload.
type History struct {
	NowUnix int64 `json:"now_unix"`
	// WindowS and StepS are the effective window and resolution after
	// tier selection (a window longer than a tier's span falls over to
	// the next coarser tier).
	WindowS int64           `json:"window_s"`
	StepS   int64           `json:"step_s"`
	Series  []HistorySeries `json:"series"`
}

// handleMetricsHistory serves GET /v1/metrics/history: the self-scraped
// time series, selected by ?family= (comma-separated family or sample
// names, empty = all; a histogram family selects its
// _bucket/_sum/_count series), over ?window= at ?step= resolution.
func (s *Server) handleMetricsHistory(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	window, err := optDuration(q.Get("window"), 0)
	if err != nil {
		s.counters.badRequests.Add(1)
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad window: %w", err))
		return
	}
	step, err := optDuration(q.Get("step"), 0)
	if err != nil {
		s.counters.badRequests.Add(1)
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad step: %w", err))
		return
	}
	var families []string
	if f := q.Get("family"); f != "" {
		families = strings.Split(f, ",")
	}
	now := s.now()
	effWindow, effStep := s.history.Resolve(window, step)
	out := History{
		NowUnix: now.Unix(),
		WindowS: int64(effWindow / time.Second),
		StepS:   int64(effStep / time.Second),
		Series:  []HistorySeries{},
	}
	for _, sr := range s.history.Query(now, window, step, families) {
		hs := HistorySeries{Name: sr.Name, Labels: sr.Labels, Points: make([][2]float64, 0, len(sr.Points))}
		for _, p := range sr.Points {
			hs.Points = append(hs.Points, [2]float64{float64(p.T), p.V})
		}
		out.Series = append(out.Series, hs)
	}
	writeJSON(w, http.StatusOK, out)
}

// optDuration parses an optional duration query parameter, accepting
// both Go durations ("90s", "1h") and bare second counts ("90") that
// fit in a time.Duration.
func optDuration(v string, def time.Duration) (time.Duration, error) {
	if v == "" {
		return def, nil
	}
	if d, err := time.ParseDuration(v); err == nil {
		if d < 0 {
			return 0, fmt.Errorf("%q is negative", v)
		}
		return d, nil
	}
	var secs int64
	if _, err := fmt.Sscanf(v, "%d", &secs); err != nil || secs < 0 || secs > math.MaxInt64/int64(time.Second) || fmt.Sprintf("%d", secs) != v {
		return 0, fmt.Errorf("%q is not a duration", v)
	}
	return time.Duration(secs) * time.Second, nil
}
