package machine

import (
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

func TestLatencyHistBuckets(t *testing.T) {
	h := stats.NewHist(latBounds)
	h.Add(0)
	h.Add(32)
	h.Add(33)
	h.Add(148)
	h.Add(332)
	h.Add(1_000_000)
	if h.Total() != 6 {
		t.Fatalf("total %d", h.Total())
	}
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 2 || h.Counts[3] != 1 {
		t.Fatalf("counts %+v", h.Counts)
	}
	if h.Counts[len(latBounds)] != 1 {
		t.Fatal("overflow bucket missed")
	}
	if len(latBounds) == 0 || latBounds[0] != 0 {
		t.Fatal("bucket bounds wrong")
	}
}

func TestLatencyQuantile(t *testing.T) {
	h := stats.NewHist(latBounds)
	for i := 0; i < 90; i++ {
		h.Add(0)
	}
	for i := 0; i < 10; i++ {
		h.Add(300)
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("median %d, want 0", q)
	}
	if q := h.Quantile(0.95); q != 332 {
		t.Fatalf("p95 %d, want 332-bucket", q)
	}
	empty := stats.NewHist(latBounds)
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty quantile")
	}
	if empty.String() != "empty" {
		t.Fatal("empty string")
	}
}

func TestLatencyRecordedInResult(t *testing.T) {
	res := runTrace(t, tinyParams(2, 1), func(b *trace.Builder) {
		b.Write(0, lineA)
		b.Barrier()
		b.MeasureStart()
		b.Read(1, lineA) // remote: 332 ns
		b.Read(1, lineA) // L1 hit: 0 ns
	})
	h := &res.ReadLatency
	if h.Total() != 2 {
		t.Fatalf("recorded %d reads, want 2", h.Total())
	}
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Fatalf("counts %+v: want one 0 ns and one 332 ns read", h.Counts)
	}
	if !strings.Contains(h.String(), "0ns:50.0% <=332ns:50.0%") {
		t.Fatalf("string %q", h.String())
	}
}
