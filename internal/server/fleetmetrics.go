package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs/tsdb"
)

// fleetScrapeFanout bounds how many peer /metrics scrapes run
// concurrently for one /v1/fleet/metrics request.
const fleetScrapeFanout = 8

// ShardMetrics is one shard's slice of the GET /v1/fleet/metrics
// payload: identity, whether the scrape succeeded, and every exposition
// sample keyed by name plus label block (e.g.
// `comasrv_peer_fill_total{outcome="hit"}`).
type ShardMetrics struct {
	ID       string             `json:"id"`
	URL      string             `json:"url"`
	Up       bool               `json:"up"`
	Error    string             `json:"error,omitempty"`
	ScrapeMs float64            `json:"scrape_ms"`
	Samples  map[string]float64 `json:"samples,omitempty"`
}

// FleetMetricsView is the GET /v1/fleet/metrics payload: every shard's
// scrape (partial results — a down shard is marked, never an error) and
// the fleet aggregate (samples summed across up shards; identity
// families like *_info and uptime are excluded).
type FleetMetricsView struct {
	ShardID  string             `json:"shard_id"` // shard that served this view
	Members  int                `json:"members"`
	UpShards int                `json:"up_shards"`
	Shards   []ShardMetrics     `json:"shards"`
	Fleet    map[string]float64 `json:"fleet"`
}

// shardScrape is one member's scrape with the page retained for the
// merged Prometheus rendering.
type shardScrape struct {
	ShardMetrics
	scrape tsdb.Scrape
}

// scrapeFleet scrapes every member's /metrics page — self in-process as
// samples, peers over HTTP with the per-peer timeout — with bounded
// fan-out. Results are in canonical member order; a failed peer comes
// back Up=false with the error recorded.
func (s *Server) scrapeFleet(ctx context.Context) []shardScrape {
	f := s.fleet
	members := f.ring.Members()
	out := make([]shardScrape, len(members))
	sem := make(chan struct{}, fleetScrapeFanout)
	var wg sync.WaitGroup
	for i, m := range members {
		out[i].ID, out[i].URL = m.ID, m.URL
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			var (
				sc   tsdb.Scrape
				text []byte
				err  error
			)
			if out[i].ID == f.self.ID {
				sc = s.promScrape()
			} else if text, err = s.scrapePeer(ctx, url); err == nil {
				sc, err = tsdb.ParseExposition(string(text))
			}
			out[i].ScrapeMs = float64(time.Since(start)) / float64(time.Millisecond)
			if err == nil {
				out[i].Up = true
				out[i].scrape = sc
				samples := make(map[string]float64, len(sc.Samples))
				for _, sa := range sc.Samples {
					samples[sa.Key()] = sa.Value
				}
				out[i].Samples = samples
			}
			if err != nil {
				out[i].Error = err.Error()
				s.fleet.setReach(out[i].ID, false)
			} else if out[i].ID != f.self.ID {
				s.fleet.setReach(out[i].ID, true)
			}
		}(i, m.URL)
	}
	wg.Wait()
	return out
}

// scrapePeer GETs one peer's /metrics within the fleet peer timeout.
func (s *Server) scrapePeer(ctx context.Context, url string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, s.fleet.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.fleet.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 8<<20))
}

// aggregateNonsense names sample families whose cross-shard sum is
// meaningless and which are therefore excluded from the fleet aggregate.
func aggregateNonsense(key string) bool {
	name, _, _ := strings.Cut(key, "{")
	return strings.HasSuffix(name, "_info") || name == "comasrv_uptime_seconds"
}

// handleFleetMetrics serves GET /v1/fleet/metrics: the whole fleet's
// /metrics scraped concurrently into one merged view. The default is
// JSON (per-shard samples plus a fleet aggregate); ?format=prom renders
// a merged Prometheus exposition in which every sample carries a
// shard="<id>" label. Down shards are reported with up=false — a peer
// outage degrades the view, never the request.
func (s *Server) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	if s.fleet == nil {
		writeErr(w, errFleetDisabled.status, errFleetDisabled)
		return
	}
	scrapes := s.scrapeFleet(r.Context())
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(mergeFleetScrape(scrapes).Text())
		return
	}
	view := FleetMetricsView{
		ShardID: s.fleet.self.ID,
		Members: len(scrapes),
		Shards:  make([]ShardMetrics, len(scrapes)),
		Fleet:   make(map[string]float64),
	}
	for i, sc := range scrapes {
		view.Shards[i] = sc.ShardMetrics
		if !sc.Up {
			continue
		}
		view.UpShards++
		for k, v := range sc.Samples {
			if !aggregateNonsense(k) {
				view.Fleet[k] += v
			}
		}
	}
	writeJSON(w, http.StatusOK, view)
}

// mergeFleetScrape merges per-shard scrapes into one page: a
// comasrv_fleet_shard_up gauge covering every member first, then each
// family once, in name order, with every up shard's samples in
// canonical member order and a shard label injected. Histogram series
// stay per-shard (distinguished by the shard label), so cumulative
// bucket counts remain monotone within every series —
// LintExposition-checked in tests.
func mergeFleetScrape(scrapes []shardScrape) tsdb.Scrape {
	const upName = "comasrv_fleet_shard_up"
	out := tsdb.Scrape{Families: []tsdb.Family{{
		Name: upName, Help: "Whether the shard's /metrics scrape succeeded (1 = up).", Type: "gauge",
	}}}
	for _, sh := range scrapes {
		up := 0.0
		if sh.Up {
			up = 1
		}
		out.Samples = append(out.Samples, tsdb.Sample{Name: upName, Labels: injectShardLabel("", sh.ID), Value: up})
	}

	type familyGroup struct {
		meta    tsdb.Family
		samples []tsdb.Sample
	}
	groups := make(map[string]*familyGroup)
	var order []string
	for _, sh := range scrapes {
		if !sh.Up {
			continue
		}
		metas := make(map[string]tsdb.Family, len(sh.scrape.Families))
		for _, f := range sh.scrape.Families {
			metas[f.Name] = f
		}
		for i, fam := range sh.scrape.SampleFamilies() {
			g := groups[fam]
			if g == nil {
				g = &familyGroup{meta: metas[fam]}
				if g.meta.Name == "" {
					g.meta = tsdb.Family{Name: fam, Help: fam + ".", Type: "untyped"}
				}
				groups[fam] = g
				order = append(order, fam)
			}
			sa := sh.scrape.Samples[i]
			sa.Labels = injectShardLabel(sa.Labels, sh.ID)
			g.samples = append(g.samples, sa)
		}
	}
	sort.Strings(order)
	for _, fam := range order {
		out.Families = append(out.Families, groups[fam].meta)
		out.Samples = append(out.Samples, groups[fam].samples...)
	}
	return out
}

// injectShardLabel prepends shard="<id>" to a raw label block.
func injectShardLabel(labels, shard string) string {
	if labels == "" {
		return fmt.Sprintf("{shard=%q}", shard)
	}
	return fmt.Sprintf("{shard=%q,%s", shard, labels[1:])
}
