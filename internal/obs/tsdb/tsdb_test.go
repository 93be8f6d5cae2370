package tsdb

import (
	"reflect"
	"testing"
	"time"
)

// clk builds a deterministic test clock starting at a fixed epoch; every
// test drives the store with explicit times derived from it.
func clk(offset time.Duration) time.Time {
	return time.Unix(1_700_000_000, 0).Add(offset)
}

func mustNew(t *testing.T, tiers []TierSpec) *DB {
	t.Helper()
	db, err := New(tiers)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// Two identical append sequences must produce deeply equal query
// results: the store has no hidden clock and no iteration-order
// dependence.
func TestDeterministicUnderTestClock(t *testing.T) {
	tiers := []TierSpec{{Step: 10 * time.Second, Capacity: 6}, {Step: 30 * time.Second, Capacity: 8}}
	build := func() []Series {
		db := mustNew(t, tiers)
		for i := 0; i < 40; i++ {
			at := clk(time.Duration(i) * 7 * time.Second)
			db.Append("reqs_total", "", at, float64(i*3))
			db.Append("peer_fill_total", `{outcome="hit"}`, at, float64(i))
		}
		return db.Query(clk(40*7*time.Second), time.Minute, 10*time.Second, nil)
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical builds diverge:\n%v\nvs\n%v", a, b)
	}
	if len(a) != 2 || a[0].Name != "reqs_total" || a[1].Labels != `{outcome="hit"}` {
		t.Fatalf("unexpected series set: %+v", a)
	}
}

// Staircase semantics: within one bucket the last value wins, and
// bucket timestamps align down to the step.
func TestStaircaseLastValueWins(t *testing.T) {
	db := mustNew(t, []TierSpec{{Step: 10 * time.Second, Capacity: 8}})
	base := time.Unix(1_700_000_000, 0) // multiple of 10 by construction? ensure alignment below
	base = base.Truncate(10 * time.Second)
	db.Append("m", "", base.Add(1*time.Second), 1)
	db.Append("m", "", base.Add(4*time.Second), 2)
	db.Append("m", "", base.Add(9*time.Second), 3)
	db.Append("m", "", base.Add(12*time.Second), 4)
	got := db.Query(base.Add(15*time.Second), 30*time.Second, 10*time.Second, nil)
	want := []Point{{T: base.Unix(), V: 3}, {T: base.Unix() + 10, V: 4}}
	if len(got) != 1 || !reflect.DeepEqual(got[0].Points, want) {
		t.Fatalf("points = %+v, want %+v", got, want)
	}
}

// Tier boundary edges: a query window that fits the fine tier uses it;
// one just past the fine tier's span falls over to the coarse tier, and
// a requested step coarser than the tier's staircase-downsamples.
func TestTierSelectionAtBoundaries(t *testing.T) {
	tiers := []TierSpec{{Step: 10 * time.Second, Capacity: 6}, {Step: 60 * time.Second, Capacity: 10}}
	db := mustNew(t, tiers)
	base := clk(0).Truncate(time.Minute)
	for i := 0; i <= 30; i++ {
		db.Append("m", "", base.Add(time.Duration(i)*10*time.Second), float64(i))
	}
	now := base.Add(300 * time.Second)

	// Window == fine span exactly: fine tier, 10s points.
	fine := db.Query(now, 60*time.Second, 0, nil)
	if len(fine) != 1 {
		t.Fatalf("fine query returned %d series", len(fine))
	}
	for i := 1; i < len(fine[0].Points); i++ {
		if fine[0].Points[i].T-fine[0].Points[i-1].T != 10 {
			t.Fatalf("fine tier step != 10s: %+v", fine[0].Points)
		}
	}

	// Window one second past the fine span: coarse tier, 60s buckets,
	// each holding the last 10s sample that landed in it.
	coarse := db.Query(now, 61*time.Second, 0, nil)
	if len(coarse) != 1 {
		t.Fatalf("coarse query returned %d series", len(coarse))
	}
	pts := coarse[0].Points
	for i, p := range pts {
		if p.T%60 != 0 {
			t.Fatalf("coarse point %d not 60s-aligned: %+v", i, p)
		}
		// Bucket [T, T+60) saw samples at T, T+10, ..., T+50; the last
		// one wins. Sample value at offset o from base is o/10.
		wantV := float64((p.T-base.Unix())/10 + 5)
		if last := base.Add(300 * time.Second).Unix(); p.T+50 > last {
			wantV = float64((last - base.Unix()) / 10) // final partial bucket
		}
		if p.V != wantV {
			t.Fatalf("coarse point %d = %+v, want V=%g", i, p, wantV)
		}
	}

	// Requested step coarser than the fine tier: staircase within the
	// fine tier, not an error.
	wide := db.Query(now, 60*time.Second, 30*time.Second, nil)
	for i := 1; i < len(wide[0].Points); i++ {
		if wide[0].Points[i].T-wide[0].Points[i-1].T != 30 {
			t.Fatalf("restep to 30s failed: %+v", wide[0].Points)
		}
	}
}

// Ring wrap: once more buckets than Capacity have been written, the
// oldest are gone and a query never serves a stale slot.
func TestRingWrapDiscardsStaleSlots(t *testing.T) {
	db := mustNew(t, []TierSpec{{Step: 10 * time.Second, Capacity: 4}})
	base := clk(0).Truncate(10 * time.Second)
	for i := 0; i < 10; i++ {
		db.Append("m", "", base.Add(time.Duration(i)*10*time.Second), float64(i))
	}
	got := db.Query(base.Add(90*time.Second), time.Hour, 10*time.Second, nil)
	var want []Point
	for i := 6; i < 10; i++ {
		want = append(want, Point{T: base.Unix() + int64(i)*10, V: float64(i)})
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0].Points, want) {
		t.Fatalf("after wrap: %+v, want %+v", got, want)
	}
}

// Restart behavior: a store that resumes appending after a gap longer
// than a tier's span serves only fresh points in that tier (the wrapped
// slots from before the gap are unreachable), while a coarser tier that
// still spans the gap keeps both sides.
func TestRestartGapLeavesNoGhosts(t *testing.T) {
	tiers := []TierSpec{{Step: 10 * time.Second, Capacity: 6}, {Step: 60 * time.Second, Capacity: 60}}
	db := mustNew(t, tiers)
	base := clk(0).Truncate(time.Minute)
	db.Append("m", "", base, 1)
	db.Append("m", "", base.Add(10*time.Second), 2)
	// Process "restarts" its scraping 10 minutes later — far past the
	// fine tier's 60s span.
	resume := base.Add(10 * time.Minute)
	db.Append("m", "", resume, 100)

	fine := db.Query(resume.Add(time.Second), 60*time.Second, 10*time.Second, nil)
	if len(fine) != 1 || len(fine[0].Points) != 1 || fine[0].Points[0].V != 100 {
		t.Fatalf("fine tier after gap = %+v, want only the fresh point", fine)
	}
	coarse := db.Query(resume.Add(time.Second), time.Hour, time.Minute, nil)
	if len(coarse) != 1 || len(coarse[0].Points) != 2 {
		t.Fatalf("coarse tier after gap = %+v, want both sides (2 points)", coarse)
	}

	// Appends older than the ring horizon are dropped, not wrapped into
	// the future.
	db.Append("m", "", base, 999)
	fine = db.Query(resume.Add(time.Second), 60*time.Second, 10*time.Second, nil)
	if len(fine[0].Points) != 1 || fine[0].Points[0].V != 100 {
		t.Fatalf("stale append leaked into the fine tier: %+v", fine)
	}
}

func TestFamilyFilterAndOrder(t *testing.T) {
	db := mustNew(t, nil)
	at := clk(0)
	db.Append("b_total", "", at, 1)
	db.Append("a_total", `{k="1"}`, at, 2)
	db.Append("a_total", `{k="2"}`, at, 3)
	got := db.Query(at, time.Minute, 0, []string{"a_total"})
	if len(got) != 2 || got[0].Labels != `{k="1"}` || got[1].Labels != `{k="2"}` {
		t.Fatalf("family filter: %+v", got)
	}
	if fams := db.Families(); !reflect.DeepEqual(fams, []string{"a_total", "b_total"}) {
		t.Fatalf("Families() = %v", fams)
	}
}

func TestNewRejectsBadTiers(t *testing.T) {
	for _, tiers := range [][]TierSpec{
		{{Step: 500 * time.Millisecond, Capacity: 10}},
		{{Step: 10 * time.Second, Capacity: 0}},
		{{Step: time.Minute, Capacity: 10}, {Step: 10 * time.Second, Capacity: 10}},
	} {
		if _, err := New(tiers); err == nil {
			t.Errorf("New(%v) accepted invalid tiers", tiers)
		}
	}
}

func TestParseExposition(t *testing.T) {
	text := `# HELP reqs_total Requests.
# TYPE reqs_total counter
reqs_total 42
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 3
lat_seconds_bucket{le="+Inf"} 5
lat_seconds_sum 0.7
lat_seconds_count 5
# HELP up Peer up.
# TYPE up gauge
up{peer="s1"} 1
`
	sc, err := ParseExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Families) != 3 || sc.Families[1].Type != "histogram" {
		t.Fatalf("families: %+v", sc.Families)
	}
	if len(sc.Samples) != 6 {
		t.Fatalf("samples: %+v", sc.Samples)
	}
	if sc.Samples[1] != (Sample{Name: "lat_seconds_bucket", Labels: `{le="0.1"}`, Value: 3}) {
		t.Fatalf("sample 1: %+v", sc.Samples[1])
	}
	want := []string{"reqs_total", "lat_seconds", "lat_seconds", "lat_seconds", "lat_seconds", "up"}
	if got := sc.SampleFamilies(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SampleFamilies() = %q, want %q", got, want)
	}

	for _, bad := range []string{
		"novalue\n",
		"m notanumber\n",
		"m{unterminated 1\n",
		"# HELP \n",
		"# TYPE m\n",
	} {
		if _, err := ParseExposition(bad); err == nil {
			t.Errorf("ParseExposition(%q) accepted malformed input", bad)
		}
	}
}

// Text is the inverse of ParseExposition: a page with a family that has
// no samples, a sample without headers, integral and %g values renders
// back byte for byte.
func TestTextRoundTrip(t *testing.T) {
	text := `# HELP reqs_total Requests.
# TYPE reqs_total counter
reqs_total 1234567
# HELP empty Declared but never sampled.
# TYPE empty gauge
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{shard="s0",le="0.1"} 3
lat_seconds_bucket{shard="s0",le="+Inf"} 5
lat_seconds_sum{shard="s0"} 0.7
lat_seconds_count{shard="s0"} 5
# HELP mem_bytes Bytes.
# TYPE mem_bytes gauge
mem_bytes 1.5e+06
mem_bytes{pool="b"} 0.25
headerless 9
`
	sc, err := ParseExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(sc.Text()); got != text {
		t.Fatalf("Text() =\n%s\nwant\n%s", got, text)
	}
}

// AppendScrape files a histogram's series under the histogram's family,
// so a family query returns its _bucket/_sum/_count series while a
// sample-name query still selects one series.
func TestAppendScrapeHistogramFamily(t *testing.T) {
	sc, err := ParseExposition("# HELP lat L.\n# TYPE lat histogram\n" +
		"lat_bucket{le=\"+Inf\"} 2\nlat_sum 0.5\nlat_count 2\n# HELP n N.\n# TYPE n counter\nn 1\n")
	if err != nil {
		t.Fatal(err)
	}
	db := mustNew(t, nil)
	db.AppendScrape(sc, clk(0))
	var keys []string
	for _, s := range db.Query(clk(0), time.Minute, 0, []string{"lat"}) {
		keys = append(keys, s.Key())
	}
	if want := []string{`lat_bucket{le="+Inf"}`, "lat_sum", "lat_count"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("family query = %q, want %q", keys, want)
	}
	if got := db.Query(clk(0), time.Minute, 0, []string{"lat_count"}); len(got) != 1 || got[0].Points[0].V != 2 {
		t.Fatalf("sample-name query = %+v", got)
	}
	if fams := db.Families(); !reflect.DeepEqual(fams, []string{"lat", "n"}) {
		t.Fatalf("Families() = %v", fams)
	}
}

// AppendScrape feeds a parsed page straight into the store.
func TestAppendScrape(t *testing.T) {
	sc, err := ParseExposition("# HELP m M.\n# TYPE m counter\nm 7\nm2{a=\"b\"} 9\n")
	if err != nil {
		t.Fatal(err)
	}
	db := mustNew(t, nil)
	db.AppendScrape(sc, clk(0))
	got := db.Query(clk(0), time.Minute, 0, nil)
	if len(got) != 2 || got[0].Points[0].V != 7 || got[1].Points[0].V != 9 {
		t.Fatalf("AppendScrape: %+v", got)
	}
}
