package machine

import (
	"fmt"
	"strings"

	"repro/internal/engine"
)

// latBounds are the upper bounds (inclusive, ns) of the read-latency
// histogram buckets, aligned with the hierarchy's contention-free levels:
// L1 (0), SLC (32), AM (148), remote (332), then doublings for queueing.
var latBounds = [...]engine.Time{0, 32, 148, 332, 664, 1328, 2656, 5312, 10624, 21248}

// LatencyHist is a histogram of per-read completion latencies over the
// measured section (including L1 hits at 0 ns). The last bucket counts
// reads slower than the largest bound.
type LatencyHist struct {
	Counts [len(latBounds) + 1]int64
}

// Buckets returns the bucket upper bounds in nanoseconds (the final
// overflow bucket is unbounded).
func (h *LatencyHist) Buckets() []int64 {
	out := make([]int64, len(latBounds))
	for i, b := range latBounds {
		out[i] = int64(b)
	}
	return out
}

func (h *LatencyHist) add(lat engine.Time) {
	for i := range latBounds {
		if lat <= latBounds[i] {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(latBounds)]++
}

// Total returns the number of recorded reads.
func (h *LatencyHist) Total() int64 {
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile read (q in [0,1]); -1 marks the unbounded overflow bucket.
func (h *LatencyHist) Quantile(q float64) int64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen > target {
			if i < len(latBounds) {
				return int64(latBounds[i])
			}
			return -1
		}
	}
	return -1
}

// String renders the histogram compactly.
func (h *LatencyHist) String() string {
	var sb strings.Builder
	total := h.Total()
	if total == 0 {
		return "no reads"
	}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		label := "inf"
		if i < len(latBounds) {
			label = fmt.Sprintf("%d", int64(latBounds[i]))
		}
		fmt.Fprintf(&sb, "<=%sns:%.1f%% ", label, 100*float64(c)/float64(total))
	}
	return strings.TrimSpace(sb.String())
}
