package machine

import (
	"math/rand"
	"testing"

	"repro/internal/addrspace"
)

// TestSteadyStateZeroAlloc pins the per-reference simulation path —
// private-cache lookups, the COMA protocol with its open-addressed
// directory, the write-buffer ring and resource claims — at zero heap
// allocations per reference once the machine is warm. The observability
// sink is disabled, as in every measured run; the working set fits the
// attraction memories, so the directory never grows mid-measurement.
//
// The companion CI run executes this under -race (like
// TestDisabledSinkZeroAlloc), which both checks the claim survives the
// race detector's instrumentation accounting and keeps it from silently
// rotting.
func TestSteadyStateZeroAlloc(t *testing.T) {
	p := DefaultParams(8, 2, 32*1024, 256*1024)
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := steadyStateAllocs(m, false); got != 0 {
		t.Fatalf("steady-state references allocate %.2f times per ref, want 0", got)
	}
}

// TestSamplingOffZeroAlloc pins the sampling feature's disabled path: a
// machine that never called EnableSampling takes only the nil-sampler
// branch checks in the access path and the scheduler, which must not
// allocate — the windowed-sampler companion to TestDisabledSinkZeroAlloc
// (sinks).
func TestSamplingOffZeroAlloc(t *testing.T) {
	p := DefaultParams(8, 2, 32*1024, 256*1024)
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	// Force the sink/sampler rewiring path with everything disabled, the
	// configuration every measured run uses.
	m.SetSink(nil)
	if m.sampler != nil {
		t.Fatal("sampler unexpectedly enabled")
	}
	if got := steadyStateAllocs(m, false); got != 0 {
		t.Fatalf("sampling-off references allocate %.2f times per ref, want 0", got)
	}
}

// TestFastForwardZeroAlloc pins the fast-forward reference path — the
// line memo, the functional cache/protocol walk and the calibrated clock
// advance — at zero heap allocations per reference. Fast-forward exists
// to be cheap; an allocation per reference would cost more than the
// detailed arbitration it skips. Window bookkeeping (ffSync open/close)
// is excluded: it runs O(resources) work twice per sampling period, not
// per reference, and its sample append is amortized by the slice cap.
func TestFastForwardZeroAlloc(t *testing.T) {
	p := DefaultParams(8, 2, 32*1024, 256*1024)
	p.Fidelity = DefaultFidelity()
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := steadyStateAllocs(m, true); got != 0 {
		t.Fatalf("fast-forward references allocate %.2f times per ref, want 0", got)
	}
}

// steadyStateAllocs warms the machine's caches, directory and attraction
// memories, then measures heap allocations per reference over a
// precomputed sequence (the generator itself must not count against the
// machine). References run through the one read/write path, detailed or
// — with fast set — in fast-forward under freeflow, the way a burst
// drives them.
func steadyStateAllocs(m *Machine, fast bool) float64 {
	// Measure from the start (internal switch; no trace is involved).
	m.beginMeasure(0)
	m.freeflow = fast
	defer func() { m.freeflow = false }()

	// A fixed region well under AM capacity: 4 nodes x 256KiB/proc x 2
	// procs holds thousands of lines; 512 lines leave generous headroom,
	// while overflowing the 32KiB SLCs so the protocol path stays hot.
	const lines = 512
	rng := rand.New(rand.NewSource(3))
	addr := func() addrspace.Addr {
		return addrspace.Addr((rng.Intn(lines) + 16) * addrspace.LineSize)
	}
	// Warm: populate caches, directory and attraction memories.
	for i := 0; i < 8*lines; i++ {
		q := m.procs[rng.Intn(len(m.procs))]
		if i%3 == 0 {
			m.write(q, addr())
		} else {
			m.read(q, addr())
		}
	}
	// Steady state: a precomputed reference sequence.
	type ref struct {
		proc  int
		addr  addrspace.Addr
		write bool
	}
	seq := make([]ref, 1024)
	for i := range seq {
		seq[i] = ref{proc: rng.Intn(len(m.procs)), addr: addr(), write: rng.Intn(3) == 0}
	}
	i := 0
	return testing.AllocsPerRun(5000, func() {
		r := seq[i%len(seq)]
		i++
		q := m.procs[r.proc]
		if r.write {
			m.write(q, r.addr)
		} else {
			m.read(q, r.addr)
		}
	})
}
