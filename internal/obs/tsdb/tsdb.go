package tsdb

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// TierSpec describes one resolution tier: samples are bucketed to Step
// and the newest Capacity buckets are retained, so the tier spans
// Step*Capacity of history.
type TierSpec struct {
	Step     time.Duration
	Capacity int
}

// Span is the length of history the tier covers.
func (t TierSpec) Span() time.Duration { return t.Step * time.Duration(t.Capacity) }

// DefaultTiers keep an hour at 10-second resolution and a day at
// 2-minute resolution — enough for a dashboard's sparklines and for
// post-hoc "what happened during that loadgen run" questions, in a few
// tens of kilobytes per series pair.
func DefaultTiers() []TierSpec {
	return []TierSpec{
		{Step: 10 * time.Second, Capacity: 360},
		{Step: 2 * time.Minute, Capacity: 720},
	}
}

// Point is one retained sample: the bucket-aligned unix timestamp and
// the last value observed in that bucket.
type Point struct {
	T int64   // unix seconds, aligned down to the tier step
	V float64 // last value seen in the bucket (staircase semantics)
}

// tierRing is a fixed-capacity ring over bucket-aligned samples. Slot
// i holds bucket number b iff b % cap == i and b is within cap buckets
// of the newest bucket written; stale slots are detected by comparing
// the stored bucket number, so a wrapped ring never serves old data.
type tierRing struct {
	spec    TierSpec
	buckets []int64 // bucket number per slot, -1 = empty
	values  []float64
	newest  int64 // highest bucket number written, -1 = none
}

func newTierRing(spec TierSpec) *tierRing {
	r := &tierRing{
		spec:    spec,
		buckets: make([]int64, spec.Capacity),
		values:  make([]float64, spec.Capacity),
		newest:  -1,
	}
	for i := range r.buckets {
		r.buckets[i] = -1
	}
	return r
}

func (r *tierRing) append(t time.Time, v float64) {
	b := t.Unix() / int64(r.spec.Step/time.Second)
	if b < 0 || (r.newest >= 0 && b < r.newest-int64(r.spec.Capacity)+1) {
		return // older than the ring's horizon
	}
	r.buckets[b%int64(r.spec.Capacity)] = b
	r.values[b%int64(r.spec.Capacity)] = v
	if b > r.newest {
		r.newest = b
	}
}

// points returns the retained samples in [from, to] in time order.
func (r *tierRing) points(from, to int64) []Point {
	if r.newest < 0 {
		return nil
	}
	step := int64(r.spec.Step / time.Second)
	lo := from / step
	hi := to / step
	if oldest := r.newest - int64(r.spec.Capacity) + 1; lo < oldest {
		lo = oldest
	}
	if lo < 0 {
		lo = 0
	}
	if hi > r.newest {
		hi = r.newest
	}
	var out []Point
	for b := lo; b <= hi; b++ {
		if r.buckets[b%int64(r.spec.Capacity)] == b {
			out = append(out, Point{T: b * step, V: r.values[b%int64(r.spec.Capacity)]})
		}
	}
	return out
}

// series is one metric stream (name + label set) across every tier,
// with the family its sample name belongs to.
type series struct {
	family string
	name   string
	labels string
	tiers  []*tierRing
}

// Series is the queryable view of one metric stream.
type Series struct {
	// Name is the sample name, Labels the raw {…} label block from the
	// exposition ("" when unlabeled).
	Name   string
	Labels string
	Points []Point
}

// Key is the exposition-form identity of a series: name immediately
// followed by the label block.
func (s Series) Key() string { return s.Name + s.Labels }

// DB is the store: a set of series, each retained across the configured
// tiers. Safe for concurrent use.
type DB struct {
	tiers []TierSpec

	mu    sync.Mutex
	byKey map[string]*series
	order []string // insertion order, for deterministic queries
}

// New builds a store with the given tiers (nil = DefaultTiers). Tiers
// must be sorted finest-first with second-aligned steps.
func New(tiers []TierSpec) (*DB, error) {
	if len(tiers) == 0 {
		tiers = DefaultTiers()
	}
	for i, t := range tiers {
		if t.Step < time.Second || t.Step%time.Second != 0 {
			return nil, fmt.Errorf("tsdb: tier %d step %v is not a positive whole number of seconds", i, t.Step)
		}
		if t.Capacity <= 0 {
			return nil, fmt.Errorf("tsdb: tier %d capacity %d must be positive", i, t.Capacity)
		}
		if i > 0 && t.Step <= tiers[i-1].Step {
			return nil, fmt.Errorf("tsdb: tiers must be sorted finest-first (tier %d step %v <= tier %d step %v)",
				i, t.Step, i-1, tiers[i-1].Step)
		}
	}
	return &DB{tiers: tiers, byKey: make(map[string]*series)}, nil
}

// Tiers returns the configured tier specs (finest first).
func (db *DB) Tiers() []TierSpec { return db.tiers }

// Append records one sample at time t into every tier of the series
// identified by name+labels, creating the series on first sight. The
// sample name is its own family.
func (db *DB) Append(name, labels string, t time.Time, v float64) {
	db.append(name, name, labels, t, v)
}

// AppendScrape records every sample of a scrape at time t, each series
// under its family (a histogram's _bucket/_sum/_count series under the
// histogram's name).
func (db *DB) AppendScrape(sc Scrape, t time.Time) {
	for i, family := range sc.SampleFamilies() {
		s := sc.Samples[i]
		db.append(family, s.Name, s.Labels, t, s.Value)
	}
}

func (db *DB) append(family, name, labels string, t time.Time, v float64) {
	key := name + labels
	db.mu.Lock()
	s, ok := db.byKey[key]
	if !ok {
		s = &series{family: family, name: name, labels: labels}
		for _, spec := range db.tiers {
			s.tiers = append(s.tiers, newTierRing(spec))
		}
		db.byKey[key] = s
		db.order = append(db.order, key)
	}
	for _, r := range s.tiers {
		r.append(t, v)
	}
	db.mu.Unlock()
}

// Query returns the retained points of every selected series over
// [now-window, now], downsampled to step. The tier chosen is the finest
// one that both covers the window and has a step no finer than needed:
// specifically the finest tier with Span ≥ window, falling back to the
// coarsest tier when none spans it. When step is coarser than the
// tier's, buckets are staircase-downsampled (last value per step wins).
// families selects series by family name or exact sample name (nil or
// empty = every series), so a histogram family selects its
// _bucket/_sum/_count series; series appear in first-seen order,
// points in time order.
func (db *DB) Query(now time.Time, window, step time.Duration, families []string) []Series {
	window, _, tier, stepS := db.pick(window, step)
	from, to := now.Add(-window).Unix(), now.Unix()

	var want map[string]bool
	if len(families) > 0 {
		want = make(map[string]bool, len(families))
		for _, f := range families {
			want[f] = true
		}
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	var out []Series
	for _, key := range db.order {
		s := db.byKey[key]
		if want != nil && !want[s.family] && !want[s.name] {
			continue
		}
		pts := s.tiers[tier].points(from, to)
		if stepS > int64(db.tiers[tier].Step/time.Second) {
			pts = restep(pts, stepS)
		}
		if len(pts) == 0 {
			continue
		}
		out = append(out, Series{Name: s.name, Labels: s.labels, Points: pts})
	}
	return out
}

// pick resolves a (window, step) request: the window defaulted to the
// finest tier's span, the effective step (never finer than the chosen
// tier's), the tier index, and the step in whole seconds.
func (db *DB) pick(window, step time.Duration) (time.Duration, time.Duration, int, int64) {
	if window <= 0 {
		window = db.tiers[0].Span()
	}
	tier := len(db.tiers) - 1
	for i, t := range db.tiers {
		if t.Span() >= window {
			tier = i
			break
		}
	}
	if step < db.tiers[tier].Step {
		step = db.tiers[tier].Step
	}
	stepS := int64(step / time.Second)
	if stepS < 1 {
		stepS = 1
	}
	return window, step, tier, stepS
}

// Resolve reports the effective window and step a Query with these
// arguments will use (the tier-selection rules above).
func (db *DB) Resolve(window, step time.Duration) (time.Duration, time.Duration) {
	w, s, _, _ := db.pick(window, step)
	return w, s
}

// Families lists every family name with at least one series, sorted.
func (db *DB) Families() []string {
	db.mu.Lock()
	set := make(map[string]bool)
	for _, s := range db.byKey {
		set[s.family] = true
	}
	db.mu.Unlock()
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// restep staircase-downsamples points to a coarser step: within each
// output bucket the last point wins, stamped at the bucket start.
func restep(pts []Point, stepS int64) []Point {
	var out []Point
	for _, p := range pts {
		t := (p.T / stepS) * stepS
		if n := len(out); n > 0 && out[n-1].T == t {
			out[n-1].V = p.V
			continue
		}
		out = append(out, Point{T: t, V: p.V})
	}
	return out
}
