package machine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/engine"
)

// ringParams builds a ring-of-clusters machine over the fuzz trace's
// address range. amPerProc is in bytes, as in DefaultParams.
func ringParams(procs, ppn, clusters, amPerProc int, linkLat engine.Time) Params {
	p := DefaultParams(procs, ppn, 2048, amPerProc)
	p.L1Bytes = 512
	p.Topology = Topology{Kind: TopologyRing, Clusters: clusters, LinkLatency: linkLat}
	return p
}

// amBytesForPressure sizes the per-processor attraction memory so one
// copy of the working set fills the given fraction of the machine's
// total AM capacity (>1 means the AMs cannot hold even one copy).
func amBytesForPressure(workingSet uint64, procs int, frac float64) int {
	b := int(float64(workingSet) / (frac * float64(procs)))
	b -= b % addrspace.LineSize
	if min := 8 * addrspace.LineSize; b < min {
		b = min // at least two 4-way sets
	}
	return b
}

// checkRingCoherence runs the per-line hierarchy checker (which wraps
// the protocol's own per-line invariants) over every resident line.
func checkRingCoherence(t *testing.T, m *Machine) bool {
	t.Helper()
	p := m.Protocol()
	h := m.Hierarchy()
	seen := make(map[addrspace.Line]bool)
	for n := 0; n < p.Nodes(); n++ {
		p.AM(n).ForEach(func(e cache.Entry) { seen[e.Line] = true })
	}
	for l := range seen {
		if err := h.CheckLine(p, l); err != nil {
			t.Logf("ring coherence: %v", err)
			return false
		}
	}
	return true
}

// Fuzz over randomized ring geometries — 2 to 16 clusters, 1 to 3 nodes
// per cluster — at the paper's hardest operating point (one working-set
// copy fills 87% of the AMs) and beyond it (150%: the machine cannot
// hold even one copy, so the replacement machinery runs continuously).
// Every run must terminate, preserve the full machine invariants
// (CheckState includes the two-level directory's exactness against the
// tag arrays), and pass the per-line hierarchy checks.
func TestRingGeometryFuzz(t *testing.T) {
	prop := func(seed int64, cSel, pcSel, latSel uint8, tight bool) bool {
		rng := rand.New(rand.NewSource(seed))
		clusters := 2 + int(cSel)%15 // 2..16
		perClust := 1 + int(pcSel)%3 // 1..3
		nodes := clusters * perClust
		ppn := 1 + rng.Intn(2)
		procs := nodes * ppn
		tr := randomTrace(rng, procs)
		frac := 0.87
		if tight {
			frac = 1.5
		}
		am := amBytesForPressure(tr.WorkingSet, procs, frac)
		lat := engine.Time(int(latSel)%3) * 20 // 0, 20 or 40ns per hop
		m, err := New(ringParams(procs, ppn, clusters, am, lat))
		if err != nil {
			t.Logf("new (c=%d pc=%d ppn=%d): %v", clusters, perClust, ppn, err)
			return false
		}
		res, err := m.Run(tr)
		if err != nil {
			t.Logf("run (c=%d pc=%d): %v", clusters, perClust, err)
			return false
		}
		if err := m.CheckState(); err != nil {
			t.Logf("state (c=%d pc=%d): %v", clusters, perClust, err)
			return false
		}
		if !checkRingCoherence(t, m) {
			return false
		}
		for i, ps := range res.Procs {
			if ps.Total() > ps.Finish {
				t.Logf("proc %d: attributed %v > finish %v", i, ps.Total(), ps.Finish)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// A 1-cluster ring is a single snooping bus with an unused ring: the
// fabric mirrors busFabric's phase counts and attributions exactly, so
// the two topologies must agree not just on counts but on every timing
// observable. This is the unit-level anchor of the cross-topology
// equivalence harness in internal/experiments.
func TestRingOneClusterMatchesBus(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := randomTrace(rng, 8)
	am := amBytesForPressure(tr.WorkingSet, 8, 0.5)

	busParams := DefaultParams(8, 2, 2048, am)
	busParams.L1Bytes = 512
	bus, err := New(busParams)
	if err != nil {
		t.Fatal(err)
	}
	busRes, err := bus.Run(tr)
	if err != nil {
		t.Fatal(err)
	}

	ring, err := New(ringParams(8, 2, 1, am, 0))
	if err != nil {
		t.Fatal(err)
	}
	ringRes, err := ring.Run(tr)
	if err != nil {
		t.Fatal(err)
	}

	if busRes.ExecTime != ringRes.ExecTime {
		t.Errorf("exec: bus %v, 1-cluster ring %v", busRes.ExecTime, ringRes.ExecTime)
	}
	if busRes.Protocol != ringRes.Protocol {
		t.Errorf("protocol stats diverge:\nbus:  %+v\nring: %+v", busRes.Protocol, ringRes.Protocol)
	}
	if busRes.BusOccupancy != ringRes.BusOccupancy {
		t.Errorf("occupancy: bus %v, ring %v", busRes.BusOccupancy, ringRes.BusOccupancy)
	}
	if busRes.RNMr() != ringRes.RNMr() {
		t.Errorf("RNMr: bus %v, ring %v", busRes.RNMr(), ringRes.RNMr())
	}
}

// Link latency is purely additive on the ring traversal path: the same
// workload on the same geometry cannot get faster when every hop slows
// down, and with cross-cluster sharing present it must get strictly
// slower.
func TestRingLinkLatencyMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomTrace(rng, 16)
	am := amBytesForPressure(tr.WorkingSet, 16, 0.5)
	exec := func(lat engine.Time) engine.Time {
		m, err := New(ringParams(16, 2, 4, am, lat))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTime
	}
	fast, slow := exec(0), exec(200)
	if slow <= fast {
		t.Errorf("exec at 200ns/hop (%v) not slower than at 0ns/hop (%v)", slow, fast)
	}
}

// Splitting one cluster into several cannot speed the machine up under a
// sharing workload: cross-cluster misses pay ring hops the single bus
// never pays.
func TestRingMoreClustersNotFaster(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := randomTrace(rng, 16)
	am := amBytesForPressure(tr.WorkingSet, 16, 0.5)
	exec := func(clusters int) engine.Time {
		m, err := New(ringParams(16, 2, clusters, am, DefaultLinkLatency))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTime
	}
	one, four := exec(1), exec(4)
	if four < one {
		t.Errorf("4-cluster ring (%v) faster than single cluster (%v)", four, one)
	}
}

// The ring hot path — cluster-bus arbitration, hop traversal, directory
// maintenance through the transition hook — must stay allocation-free in
// the steady state, like the flat bus path (TestSteadyStateZeroAlloc).
// CI runs this under -race.
func TestRingSteadyStateZeroAlloc(t *testing.T) {
	p := DefaultParams(8, 2, 32*1024, 256*1024)
	p.Topology = Topology{Kind: TopologyRing, Clusters: 2, LinkLatency: DefaultLinkLatency}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := steadyStateAllocs(m, false); got != 0 {
		t.Fatalf("ring steady-state references allocate %.2f times per ref, want 0", got)
	}
}
