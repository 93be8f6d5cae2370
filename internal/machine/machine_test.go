package machine

import (
	"strings"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/engine"
	"repro/internal/trace"
)

// tinyParams builds a small machine: per-proc AM of 32 KB, SLC 2 KB,
// L1 512 B.
func tinyParams(procs, ppn int) Params {
	p := DefaultParams(procs, ppn, 2048, 32*1024)
	p.L1Bytes = 512
	return p
}

// runTrace assembles a trace via a builder callback and simulates it.
func runTrace(t *testing.T, params Params, build func(b *trace.Builder)) *Result {
	t.Helper()
	b := trace.NewBuilder("t", params.Procs)
	build(b)
	tr := b.Build(1 << 20)
	m, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const lineA addrspace.Addr = 0x10000 // arbitrary line-aligned addresses
const lineB addrspace.Addr = 0x20000

// Contention-free latency checks against the paper's numbers.
func TestLatencyAMHit(t *testing.T) {
	res := runTrace(t, tinyParams(2, 1), func(b *trace.Builder) {
		b.MeasureStart()
		// First read cold-allocates locally (148 ns: an AM access);
		// the second hits the L1 (0 ns).
		b.Read(0, lineA)
		b.Read(0, lineA)
	})
	p := res.Procs[0]
	if got := p.Stall[StallAM]; got != 148 {
		t.Fatalf("AM access stall = %v, want 148", got)
	}
	if res.Reads != 2 {
		t.Fatalf("reads = %d", res.Reads)
	}
}

func TestLatencySLCHit(t *testing.T) {
	// Evict the line from the L1 (512 B direct-mapped, odd-rounded to 9
	// sets: lines 9*64 bytes apart collide) while it stays in the SLC.
	const l1Conflict = 9 * 64
	res := runTrace(t, tinyParams(2, 1), func(b *trace.Builder) {
		b.MeasureStart()
		b.Read(0, lineA)
		b.Read(0, lineA+l1Conflict) // evicts lineA from the L1
		b.Read(0, lineA)            // SLC hit: 32 ns
	})
	p := res.Procs[0]
	if got := p.Stall[StallSLC]; got != 32 {
		t.Fatalf("SLC hit stall = %v, want exactly 32", got)
	}
	if h := &res.ReadLatency; h.Counts[1] != 1 {
		t.Fatalf("latency histogram missing the 32 ns read: %+v", h.Counts)
	}
}

func TestLatencyRemote(t *testing.T) {
	res := runTrace(t, tinyParams(2, 1), func(b *trace.Builder) {
		b.Write(0, lineA) // allocated E at node 0 (pre-measure)
		b.Barrier()
		b.MeasureStart()
		b.Read(1, lineA) // remote: 332 ns contention-free
	})
	p := res.Procs[1]
	if got := p.Stall[StallRemote]; got != 332 {
		t.Fatalf("remote stall = %v, want 332", got)
	}
	if res.ReadNodeMisses != 1 {
		t.Fatalf("node misses = %d, want 1", res.ReadNodeMisses)
	}
}

func TestClusteredNodeReadIsLocal(t *testing.T) {
	// With 2 procs per node, proc 1 reads what proc 0 fetched: AM hit,
	// not a remote access — the clustering effect under study.
	res := runTrace(t, tinyParams(4, 2), func(b *trace.Builder) {
		b.Write(0, lineA)
		b.Barrier()
		b.MeasureStart()
		b.Read(1, lineA) // same node as proc 0
		b.Read(2, lineA) // different node: remote
	})
	if res.ReadNodeMisses != 1 {
		t.Fatalf("node misses = %d, want 1 (only proc 2)", res.ReadNodeMisses)
	}
	if got := res.Procs[1].Stall[StallRemote]; got != 0 {
		t.Fatalf("same-node read went remote (stall %v)", got)
	}
	if got := res.Procs[2].Stall[StallRemote]; got == 0 {
		t.Fatal("cross-node read must be remote")
	}
}

func TestWriteBufferHidesStores(t *testing.T) {
	// A handful of writes should cost the processor (almost) nothing:
	// release consistency with a 10-entry write buffer.
	res := runTrace(t, tinyParams(2, 1), func(b *trace.Builder) {
		b.MeasureStart()
		for i := 0; i < 5; i++ {
			b.Write(0, lineA+addrspace.Addr(i*64))
		}
		b.Compute(0, 10)
	})
	p := res.Procs[0]
	var stalls engine.Time
	for _, s := range p.Stall {
		stalls += s
	}
	if stalls != 0 {
		t.Fatalf("5 buffered writes stalled %v", stalls)
	}
	if p.Busy != 10 {
		t.Fatalf("busy = %v", p.Busy)
	}
}

func TestWriteBufferFullStalls(t *testing.T) {
	params := tinyParams(2, 1)
	params.WriteBufferDepth = 2
	res := runTrace(t, params, func(b *trace.Builder) {
		b.MeasureStart()
		for i := 0; i < 8; i++ {
			b.Write(0, lineA+addrspace.Addr(i*64)) // distinct lines: each drains via AM
		}
	})
	p := res.Procs[0]
	var stalls engine.Time
	for _, s := range p.Stall {
		stalls += s
	}
	if stalls == 0 {
		t.Fatal("overflowing a 2-entry write buffer must stall")
	}
}

func TestRepeatStoresHitDirtySLC(t *testing.T) {
	// Stores to the same line after the first are SLC-dirty hits; the AM
	// must see exactly one write access.
	params := tinyParams(2, 1)
	res := runTrace(t, params, func(b *trace.Builder) {
		b.MeasureStart()
		for i := 0; i < 50; i++ {
			b.Write(0, lineA)
		}
	})
	if got := res.Protocol.Writes; got != 1 {
		t.Fatalf("AM write accesses = %d, want 1", got)
	}
}

func TestReleaseConsistencyDrain(t *testing.T) {
	res := runTrace(t, tinyParams(2, 1), func(b *trace.Builder) {
		b.Write(0, 0x30000) // lock home allocated at proc 0 (pre-measure)
		b.Barrier()
		b.MeasureStart()
		b.Acquire(0, 1, 0x30000)
		b.Write(0, lineA)
		b.Release(0, 1, 0x30000)
	})
	if res.Procs[0].Sync == 0 {
		t.Fatal("release must wait for the write buffer (sync time)")
	}
}

func TestLockMutualExclusionSerializes(t *testing.T) {
	// Both procs acquire the same lock and spend 1000 ns inside: the
	// critical sections must not overlap, so the later proc's finish is
	// at least 2000 ns of critical section time apart.
	res := runTrace(t, tinyParams(2, 1), func(b *trace.Builder) {
		b.Write(0, 0x30000)
		b.Barrier()
		b.MeasureStart()
		for p := 0; p < 2; p++ {
			b.Acquire(p, 1, 0x30000)
			b.Compute(p, 1000)
			b.Release(p, 1, 0x30000)
		}
	})
	second := res.Procs[1]
	if second.Sync == 0 {
		t.Fatal("second acquirer must wait for the lock")
	}
	if res.ExecTime < 2000 {
		t.Fatalf("critical sections overlapped: exec %v", res.ExecTime)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	res := runTrace(t, tinyParams(2, 1), func(b *trace.Builder) {
		b.MeasureStart()
		b.Compute(0, 5000) // proc 0 is slow
		b.Barrier()
		b.Compute(1, 1) // proc 1's post-barrier work starts after proc 0
	})
	if res.Procs[1].Sync < 5000-DefaultBarrierTime {
		t.Fatalf("proc 1 barrier wait = %v, want ~5000", res.Procs[1].Sync)
	}
	if res.ExecTime < 5000 {
		t.Fatalf("exec = %v", res.ExecTime)
	}
}

func TestStatsResetAtMeasureStart(t *testing.T) {
	res := runTrace(t, tinyParams(2, 1), func(b *trace.Builder) {
		// Heavy pre-measure traffic must not leak into the results.
		for i := 0; i < 100; i++ {
			b.Read(0, lineA+addrspace.Addr(i*64))
			b.Write(1, lineB+addrspace.Addr(i*64))
		}
		b.MeasureStart()
		b.Read(0, lineB) // exactly one measured read
	})
	if res.Reads != 1 {
		t.Fatalf("measured reads = %d, want 1", res.Reads)
	}
	if res.Procs[1].Writes != 0 {
		t.Fatal("pre-measure writes leaked")
	}
}

func TestTrafficClasses(t *testing.T) {
	res := runTrace(t, tinyParams(2, 1), func(b *trace.Builder) {
		b.Write(0, lineA)
		b.Barrier()
		b.MeasureStart()
		b.Read(1, lineA)  // read transaction
		b.Write(1, lineA) // upgrade: write transaction
	})
	if res.BusOccupancy[0] == 0 {
		t.Fatal("read traffic missing")
	}
	if res.BusOccupancy[1] == 0 {
		t.Fatal("write traffic missing")
	}
	if res.BusOccupancy[2] != 0 {
		t.Fatal("no replacement traffic expected")
	}
}

func TestDeadlockDetection(t *testing.T) {
	b := trace.NewBuilder("dead", 2)
	b.MeasureStart()
	// Proc 0 acquires and never releases; proc 1 blocks forever.
	b.Acquire(0, 1, 0x30000)
	b.Acquire(1, 1, 0x30000)
	tr := b.Build(1 << 20)
	m, err := New(tinyParams(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(tr); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestMissingMeasureStartFails(t *testing.T) {
	// Bypass the builder (which enforces MeasureStart) to check the
	// machine's own guard.
	tr := trace.FromRefs("x", 1<<20, [][]trace.Ref{
		{{Kind: trace.Read, Addr: lineA}},
		{{Kind: trace.Read, Addr: lineB}},
	})
	m, err := New(tinyParams(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(tr); err == nil {
		t.Fatal("expected error for missing MeasureStart")
	}
}

func TestParamsValidate(t *testing.T) {
	good := tinyParams(4, 2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Params){
		func(p *Params) { p.Procs = 0 },
		func(p *Params) { p.Procs = 3; p.ProcsPerNode = 2 },
		func(p *Params) { p.Procs = 130 }, // 65 nodes at ppn 2: over the bitmask limit
		func(p *Params) { p.Topology = Topology{Kind: "mesh"} },
		func(p *Params) { p.Topology = Topology{Kind: TopologyRing, Clusters: 3} }, // 2 nodes
		func(p *Params) { p.Topology = Topology{Kind: TopologyRing, Clusters: 2, LinkLatency: -1} },
		func(p *Params) { p.Topology = Topology{Kind: TopologyBus, Clusters: 4} },
		func(p *Params) { p.L1Bytes = 1 },
		func(p *Params) { p.SLCBytes = 1 },
		func(p *Params) { p.AMWays = 0 },
		func(p *Params) { p.AMBytesPerProc = 1 },
		func(p *Params) { p.DRAMBandwidth = 0 },
		func(p *Params) { p.WriteBufferDepth = 0 },
	}
	for i, mut := range cases {
		p := tinyParams(4, 2)
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

// A one-node COMA machine has nowhere to relocate a line when its
// attraction memory overflows, so construction rejects it (the CC-NUMA
// memory system, supplied through NewWithMem, still builds one node).
func TestOneNodeCOMARejected(t *testing.T) {
	for _, ppn := range []int{2, 4} {
		if _, err := New(tinyParams(ppn, ppn)); err == nil || !strings.Contains(err.Error(), "at least 2 nodes") {
			t.Fatalf("ppn %d: New on one node = %v, want the 2-node error", ppn, err)
		}
	}
	if _, err := New(tinyParams(4, 2)); err != nil {
		t.Fatalf("two nodes: %v", err)
	}
}

func TestProcsMismatch(t *testing.T) {
	b := trace.NewBuilder("x", 4)
	b.MeasureStart()
	tr := b.Build(1 << 20)
	m, err := New(tinyParams(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(tr); err == nil {
		t.Fatal("expected proc-count mismatch error")
	}
}

func TestOddSets(t *testing.T) {
	if oddSets(64*64, 1) != 65 { // 64 sets -> rounded up to 65
		t.Fatalf("oddSets = %d", oddSets(64*64, 1))
	}
	if oddSets(64*63, 1) != 63 {
		t.Fatalf("oddSets = %d", oddSets(64*63, 1))
	}
	if oddSets(0, 4) != 1 {
		t.Fatalf("oddSets(0) = %d", oddSets(0, 4))
	}
}

func TestBreakdownAndRNMr(t *testing.T) {
	res := &Result{
		Reads:          100,
		ReadNodeMisses: 25,
		Procs: []ProcStats{
			{Busy: 10, Stall: [stallClasses]engine.Time{2, 4, 6}, Sync: 8},
			{Busy: 30, Stall: [stallClasses]engine.Time{0, 0, 0}, Sync: 0},
		},
	}
	if res.RNMr() != 0.25 {
		t.Fatalf("RNMr = %v", res.RNMr())
	}
	b := res.Breakdown()
	if b.Busy != 20 || b.SLC != 1 || b.AM != 2 || b.Remote != 3 || b.Sync != 4 {
		t.Fatalf("breakdown %+v", b)
	}
	if b.Total() != 30 {
		t.Fatalf("total %v", b.Total())
	}
	empty := &Result{}
	if empty.RNMr() != 0 || empty.Breakdown().Total() != 0 {
		t.Fatal("empty result math")
	}
}

// In the non-inclusive hierarchy, an AM replacement eviction leaves the
// SLC copy intact, so the processor keeps hitting its private cache after
// its AM line migrated away — the benefit of "breaking the inclusion".
func TestNonInclusiveKeepsSLCAfterEviction(t *testing.T) {
	run := func(inclusive bool) *Result {
		params := DefaultParams(2, 1, 8192, 2*addrspace.LineSize*4)
		params.L1Bytes = 512
		params.Inclusive = inclusive
		// AM: 2 lines per proc quota -> tiny; SLC: 8 KB -> large.
		return runTrace(t, params, func(b *trace.Builder) {
			b.MeasureStart()
			// Proc 0 streams enough lines to overflow its AM repeatedly,
			// then re-reads the first ones (still in its big SLC).
			for i := 0; i < 32; i++ {
				b.Read(0, lineA+addrspace.Addr(i*64*9)) // spread over sets
			}
			for rep := 0; rep < 3; rep++ {
				for i := 0; i < 32; i++ {
					b.Read(0, lineA+addrspace.Addr(i*64*9))
				}
			}
		})
	}
	incl := run(true)
	nonIncl := run(false)
	if nonIncl.ReadNodeMisses >= incl.ReadNodeMisses {
		t.Fatalf("non-inclusive should hit the SLC after AM eviction: %d vs %d misses",
			nonIncl.ReadNodeMisses, incl.ReadNodeMisses)
	}
}

// Ownership downgrades: after supplying a remote reader, the writer's SLC
// loses write permission, so the next local store must upgrade (one more
// AM write access).
func TestDowngradeForcesReUpgrade(t *testing.T) {
	res := runTrace(t, tinyParams(2, 1), func(b *trace.Builder) {
		b.MeasureStart()
		b.Write(0, lineA) // cold: E, SLC dirty
		b.Barrier()
		b.Read(1, lineA) // node 0 E -> O, downgrade
		b.Barrier()
		b.Write(0, lineA) // must upgrade again
		b.Barrier()
		b.Write(0, lineA) // dirty hit, free
	})
	p := res.Protocol
	if p.Upgrades != 1 {
		t.Fatalf("upgrades = %d, want exactly 1 (the post-downgrade store)", p.Upgrades)
	}
	if p.Writes != 2 {
		t.Fatalf("AM write accesses = %d, want 2 (cold + upgrade)", p.Writes)
	}
}

// Sibling stores invalidate same-node private copies: a read after a
// sibling's write must go back to the AM (and see the new ownership).
func TestSiblingInvalidation(t *testing.T) {
	// Procs 0 and 1 share node 0; node 1 only completes the machine.
	res := runTrace(t, tinyParams(4, 2), func(b *trace.Builder) {
		b.MeasureStart()
		b.Read(0, lineA) // proc 0 caches the line
		b.Barrier()
		b.Write(1, lineA) // sibling writes
		b.Barrier()
		b.Read(0, lineA) // must miss L1/SLC, hit the shared AM
	})
	// Proc 0: two reads; both should have stalled (no free L1 hit on the
	// second), and neither is a node miss (same node).
	if res.ReadNodeMisses != 0 {
		t.Fatalf("node misses = %d, want 0 (all intra-node)", res.ReadNodeMisses)
	}
	p0 := res.Procs[0]
	if p0.Stall[StallAM] < 2*148 {
		t.Fatalf("proc 0 AM stall = %v, want two full AM accesses", p0.Stall[StallAM])
	}
}

// Update policy, machine level: after the producer's store broadcasts the
// new data, the consumer's private copy stays valid — the consumer reads
// for free while under invalidation it re-misses every round.
func TestUpdatePolicyKeepsConsumersWarm(t *testing.T) {
	build := func(b *trace.Builder) {
		b.Write(0, lineA)
		b.Barrier()
		b.MeasureStart()
		b.Read(1, lineA) // consumer caches the line
		b.Barrier()
		for round := 0; round < 5; round++ {
			b.Write(0, lineA) // producer updates
			b.Barrier()
			b.Read(1, lineA) // consumer re-reads
			b.Barrier()
		}
	}
	inval := runTrace(t, tinyParams(2, 1), build)
	params := tinyParams(2, 1)
	params.Policy.WriteUpdate = true
	upd := runTrace(t, params, build)
	if upd.ReadNodeMisses >= inval.ReadNodeMisses {
		t.Fatalf("update policy should kill the consumer's re-misses: %d vs %d",
			upd.ReadNodeMisses, inval.ReadNodeMisses)
	}
	// The cost shifts to write traffic.
	if upd.BusOccupancy[1] <= inval.BusOccupancy[1] {
		t.Fatalf("update policy should raise write traffic: %v vs %v",
			upd.BusOccupancy[1], inval.BusOccupancy[1])
	}
	if upd.BusOccupancy[0] >= inval.BusOccupancy[0] {
		t.Fatalf("update policy should cut read traffic: %v vs %v",
			upd.BusOccupancy[0], inval.BusOccupancy[0])
	}
}

// Spin locks generate extra coherence traffic on contended locks compared
// to the ideal queue lock, without changing the serialization order.
func TestSpinLockTraffic(t *testing.T) {
	build := func(b *trace.Builder) {
		b.Write(0, 0x30000)
		b.Barrier()
		b.MeasureStart()
		for p := 0; p < 4; p++ {
			b.Acquire(p, 1, 0x30000)
			b.Compute(p, 500)
			b.Release(p, 1, 0x30000)
		}
	}
	quiet := runTrace(t, tinyParams(4, 1), build)
	params := tinyParams(4, 1)
	params.SpinLocks = true
	spin := runTrace(t, params, build)
	if spin.BusTotal() <= quiet.BusTotal() {
		t.Fatalf("spinning must add bus traffic: %v vs %v", spin.BusTotal(), quiet.BusTotal())
	}
	if spin.ExecTime < quiet.ExecTime {
		t.Fatalf("spinning should not be faster: %v vs %v", spin.ExecTime, quiet.ExecTime)
	}
}

// Queueing sanity: as more same-node processors stream through one AM
// DRAM, the mean AM stall per access grows monotonically — the node
// contention effect at the heart of the paper's bandwidth requirement.
func TestDRAMQueueingMonotone(t *testing.T) {
	meanStall := func(ppn int) float64 {
		// Procs 0-3 stream; 4-7 only keep a second node in the machine
		// (COMA needs two), so at ppn 4 all four streams share one DRAM.
		params := DefaultParams(8, ppn, 2048, 64*1024)
		params.L1Bytes = 512
		res := runTrace(t, params, func(b *trace.Builder) {
			// Every proc touches its own lines once (cold allocate,
			// pre-measure), then re-streams them: pure local AM reads.
			priv := func(p, i int) addrspace.Addr {
				return lineA + addrspace.Addr((p*512+i)*64)
			}
			for p := 0; p < 4; p++ {
				for i := 0; i < 64; i++ {
					b.Write(p, priv(p, i))
				}
			}
			b.Barrier()
			b.MeasureStart()
			for p := 0; p < 4; p++ {
				for rep := 0; rep < 4; rep++ {
					for i := 0; i < 64; i++ {
						b.Read(p, priv(p, i))
					}
				}
			}
		})
		var total float64
		for _, p := range res.Procs {
			total += float64(p.Stall[StallAM])
		}
		return total
	}
	s1 := meanStall(1)
	s2 := meanStall(2)
	s4 := meanStall(4)
	if !(s1 <= s2 && s2 <= s4) {
		t.Fatalf("AM stall must grow with sharers per DRAM: %v / %v / %v", s1, s2, s4)
	}
	if s4 <= s1 {
		t.Fatalf("4 procs on one DRAM should queue visibly: %v vs %v", s4, s1)
	}
}

func TestImbalance(t *testing.T) {
	res := &Result{Procs: []ProcStats{{Finish: 100}, {Finish: 300}}}
	if got := res.Imbalance(); got != 1.5 {
		t.Fatalf("imbalance %v, want 1.5", got)
	}
	if (&Result{}).Imbalance() != 1 {
		t.Fatal("empty imbalance")
	}
	balanced := &Result{Procs: []ProcStats{{Finish: 100}, {Finish: 100}}}
	if balanced.Imbalance() != 1 {
		t.Fatal("balanced imbalance")
	}
}

func TestUtilizationReported(t *testing.T) {
	res := runTrace(t, tinyParams(2, 1), func(b *trace.Builder) {
		b.Write(0, lineA)
		b.Barrier()
		b.MeasureStart()
		for i := 0; i < 20; i++ {
			b.Read(1, lineA+addrspace.Addr(i*64)) // remote stream
		}
	})
	if res.BusUtilization <= 0 || res.BusUtilization > 1 {
		t.Fatalf("bus utilization %v out of range", res.BusUtilization)
	}
	if len(res.NodeUtilization) != 2 {
		t.Fatalf("node utilization entries %d", len(res.NodeUtilization))
	}
	if res.MaxDRAMUtilization() <= 0 {
		t.Fatal("DRAM utilization missing")
	}
	for _, n := range res.NodeUtilization {
		if n.DRAM < 0 || n.DRAM > 1 || n.NC < 0 || n.NC > 1 {
			t.Fatalf("utilization out of range: %+v", n)
		}
	}
}

func TestDeterminism(t *testing.T) {
	build := func(b *trace.Builder) {
		for p := 0; p < 4; p++ {
			b.Write(p, addrspace.Addr(0x10000+p*4096))
		}
		b.Barrier()
		b.MeasureStart()
		for p := 0; p < 4; p++ {
			for i := 0; i < 50; i++ {
				b.Read(p, addrspace.Addr(0x10000+((p+1)%4)*4096+i*64))
				b.Write(p, addrspace.Addr(0x10000+p*4096+i*64))
			}
		}
		b.Barrier()
	}
	r1 := runTrace(t, tinyParams(4, 2), build)
	r2 := runTrace(t, tinyParams(4, 2), build)
	if r1.ExecTime != r2.ExecTime || r1.BusTotal() != r2.BusTotal() || r1.ReadNodeMisses != r2.ReadNodeMisses {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", r1.ExecTime, r1.BusTotal(), r2.ExecTime, r2.BusTotal())
	}
}
