package stats

import (
	"fmt"
	"strings"
)

// MaxBounds is the most bucket bounds a Hist can take. The counts are a
// fixed-size array (one slot more, for the overflow bucket), so a Hist
// is a plain value: copying or resetting it never allocates.
const MaxBounds = 10

// Hist is a fixed-bucket histogram of int64 values (nanoseconds, for
// every user in this repository). Bucket i counts values in
// (bounds[i-1], bounds[i]] — upper-inclusive — and Counts[len(bounds)]
// counts values above the largest bound. Sum is the running total of
// the recorded values. The zero value is an empty histogram with no
// bounds; NewHist gives it some.
type Hist struct {
	bounds []int64 // shared, never written: every copy points at the caller's slice
	Counts [MaxBounds + 1]int64
	Sum    int64
}

// NewHist returns an empty histogram over bounds, which must ascend,
// hold at most MaxBounds values and stay unmodified (callers pass a
// package-level slice).
func NewHist(bounds []int64) Hist {
	if len(bounds) > MaxBounds {
		panic(fmt.Sprintf("stats: %d histogram bounds, at most %d", len(bounds), MaxBounds))
	}
	return Hist{bounds: bounds}
}

// Add records one value. It runs on the simulator's hot path (every
// resource claim and every read) and does not allocate.
func (h *Hist) Add(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.Counts[i]++
	h.Sum += v
}

// Total returns the number of recorded values.
func (h *Hist) Total() int64 {
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Quantile returns the upper bound of the bucket holding the q-th
// quantile value (q in [0,1]): -1 for the overflow bucket, 0 when the
// histogram is empty.
func (h *Hist) Quantile(q float64) int64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	target := min(int64(q*float64(total)), total-1)
	var seen int64
	for i, bound := range h.bounds {
		if seen += h.Counts[i]; seen > target {
			return bound
		}
	}
	return -1
}

// String renders the non-empty buckets as percentages of the total,
// e.g. "0ns:90.0% <=40ns:9.0% <=inf:1.0%".
func (h *Hist) String() string {
	total := h.Total()
	if total == 0 {
		return "empty"
	}
	var parts []string
	for i, c := range h.Counts[:len(h.bounds)+1] {
		if c == 0 {
			continue
		}
		label := "<=inf"
		switch {
		case i == len(h.bounds):
		case h.bounds[i] == 0:
			label = "0ns"
		default:
			label = fmt.Sprintf("<=%dns", h.bounds[i])
		}
		parts = append(parts, fmt.Sprintf("%s:%.1f%%", label, 100*float64(c)/float64(total)))
	}
	return strings.Join(parts, " ")
}
