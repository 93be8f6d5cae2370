package stats

import (
	"slices"
	"testing"
)

// The bucket sets of the two simulator histograms: resource queueing
// waits and read latency.
var (
	waitBounds = []int64{0, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120}
	latBounds  = []int64{0, 32, 148, 332, 664, 1328, 2656, 5312, 10624, 21248}
)

func repeat(n int, v int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestHist(t *testing.T) {
	for _, tc := range []struct {
		name      string
		bounds    []int64
		adds      []int64
		counts    []int64 // Counts[:len(bounds)+1]
		sum       int64
		quantiles map[float64]int64
		str       string
	}{{
		name:      "empty",
		bounds:    latBounds,
		counts:    make([]int64, 11),
		quantiles: map[float64]int64{0: 0, 0.5: 0, 1: 0},
		str:       "empty",
	}, {
		name:      "on a bound lands in its bucket",
		bounds:    latBounds,
		adds:      []int64{0, 32, 33, 148, 332, 1_000_000},
		counts:    []int64{1, 1, 2, 1, 0, 0, 0, 0, 0, 0, 1},
		sum:       1_000_545,
		quantiles: map[float64]int64{0: 0, 0.5: 148, 0.8: 332, 1: -1},
		str:       "0ns:16.7% <=32ns:16.7% <=148ns:33.3% <=332ns:16.7% <=inf:16.7%",
	}, {
		name:      "one past a bound lands in the next",
		bounds:    waitBounds,
		adds:      []int64{20, 21, 5120, 5121},
		counts:    []int64{0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1},
		sum:       10282,
		quantiles: map[float64]int64{0: 20, 0.25: 40, 0.5: 5120, 0.75: -1},
		str:       "<=20ns:25.0% <=40ns:25.0% <=5120ns:25.0% <=inf:25.0%",
	}, {
		name:      "overflow",
		bounds:    waitBounds,
		adds:      []int64{0, 10000},
		counts:    []int64{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1},
		sum:       10000,
		quantiles: map[float64]int64{0.49: 0, 0.5: -1},
		str:       "0ns:50.0% <=inf:50.0%",
	}, {
		name:      "quantile is the bucket bound",
		bounds:    latBounds,
		adds:      append(repeat(90, 0), repeat(10, 300)...),
		counts:    []int64{90, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0},
		sum:       3000,
		quantiles: map[float64]int64{0.5: 0, 0.95: 332, 0.99: 332},
		str:       "0ns:90.0% <=332ns:10.0%",
	}, {
		name:      "fewer bounds than MaxBounds",
		bounds:    []int64{1e6, 6e10},
		adds:      []int64{1e6, 1e6 + 1, 6e10 + 1},
		counts:    []int64{1, 1, 1},
		sum:       6e10 + 2e6 + 2,
		quantiles: map[float64]int64{0: 1e6, 0.5: 6e10, 0.9: -1},
		str:       "<=1000000ns:33.3% <=60000000000ns:33.3% <=inf:33.3%",
	}} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHist(tc.bounds)
			for _, v := range tc.adds {
				h.Add(v)
			}
			if got := h.Counts[:len(tc.bounds)+1]; !slices.Equal(got, tc.counts) {
				t.Errorf("counts %v, want %v", got, tc.counts)
			}
			if h.Total() != int64(len(tc.adds)) || h.Sum != tc.sum {
				t.Errorf("total %d sum %d, want %d and %d", h.Total(), h.Sum, len(tc.adds), tc.sum)
			}
			for q, want := range tc.quantiles {
				if got := h.Quantile(q); got != want {
					t.Errorf("Quantile(%g) = %d, want %d", q, got, want)
				}
			}
			if got := h.String(); got != tc.str {
				t.Errorf("String = %q, want %q", got, tc.str)
			}
		})
	}
}

// Add runs on every resource claim and every simulated read, and Hist
// is copied by value; neither may allocate.
func TestHistAddZeroAlloc(t *testing.T) {
	h := NewHist(waitBounds)
	var snap Hist
	allocs := testing.AllocsPerRun(1000, func() {
		h.Add(30)
		h.Add(1 << 40)
		snap = h
	})
	if allocs != 0 {
		t.Fatalf("Add allocates %.1f times per run", allocs)
	}
	if snap.Total() == 0 {
		t.Fatal("copy lost the counts")
	}
}
