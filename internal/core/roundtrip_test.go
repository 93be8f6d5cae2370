package core

import (
	"testing"

	"repro/internal/trace"
)

// A serialized-and-reloaded trace simulates identically to the original —
// the disk cache path is equivalent to regeneration.
func TestSerializedTraceRoundTripRun(t *testing.T) {
	orig := MustWorkload("water-sp", 16)
	loaded, err := trace.DecodeCompact(orig.EncodeCompact())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Baseline(4, MP81)
	a, err := Run(orig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(loaded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecTime != b.ExecTime || a.Reads != b.Reads ||
		a.BusTotal() != b.BusTotal() || a.ReadNodeMisses != b.ReadNodeMisses {
		t.Fatalf("reloaded trace diverges: %v/%v vs %v/%v",
			a.ExecTime, a.BusTotal(), b.ExecTime, b.BusTotal())
	}
}
