package machine

import (
	"context"
	"fmt"

	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/coma"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Private-cache states. The L1 is write-through into the SLC and carries
// only a valid bit; the SLC is write-back with write-allocate: a store
// that owns its line (SLC dirty, AM Exclusive) completes locally, so
// repeated stores to a line cost one AM access, not one per store.
const (
	cacheValid cache.State = 1 // clean: readable, a store must upgrade
	cacheDirty cache.State = 2 // writable: AM state is Exclusive
)

// nodeRes bundles the shared per-node resources: the node controller
// (state & tag pipeline) and the attraction-memory DRAM.
type nodeRes struct {
	nc   *engine.Resource
	dram *engine.Resource
}

// wbEntry is an in-flight write drain.
type wbEntry struct {
	done  engine.Time
	class StallClass
}

// proc is one simulated processor.
type proc struct {
	id, node int
	t        engine.Time
	refs     *trace.Stream
	pc       int

	l1, slc *cache.Cache
	slcRes  *engine.Resource

	// Write buffer (release consistency): fixed-capacity ring of in-flight
	// drains (head wbHead, length wbLen), so steady-state retirement never
	// reslices or reallocates.
	wb       []wbEntry
	wbHead   int
	wbLen    int
	wbLast   engine.Time // completion of the most recently issued drain
	blocked  bool
	blockAt  engine.Time
	done     bool
	start    engine.Time // measured-section start
	finished engine.Time

	// ffRem carries the fixed-point remainder of λ-scaled fast-forward
	// clock advances (sampled fidelity only), keeping schedules integral
	// and deterministic.
	ffRem int64

	// Fast-forward line memo (sampled fidelity only; see read/write):
	// a 64-entry direct-mapped table of lines known L1-resident (ffValid)
	// or SLC-dirty with siblings already invalidated (ffWritable). Valid
	// bits persist across bursts — every path that can remove a line from
	// this processor's L1 (own eviction, sibling store, AM purge) drops
	// the memo entry — while writable bits are re-proved each burst.
	ffLines    [64]addrspace.Line
	ffValid    uint64
	ffWritable uint64

	st ProcStats
}

// lockState serializes a spin lock.
type lockState struct {
	held    bool
	holder  int
	freeAt  engine.Time
	waiters []int
}

// barrierState tracks the single in-flight global barrier (streams are
// SPMD: every processor executes the same barrier sequence).
type barrierState struct {
	id       uint32
	active   bool
	arrived  []int
	arriveAt []engine.Time
	measure  bool
}

// MemSystem abstracts the node-level memory system below the second-level
// caches. The default implementation is the bus-based COMA protocol; the
// CC-NUMA baseline in internal/numa provides a home-based alternative for
// ablation studies.
type MemSystem interface {
	// Read and Write perform an SLC-missing access by a node and report
	// its effects (hit/cold/bus transactions).
	Read(node int, l addrspace.Line) coma.Effect
	Write(node int, l addrspace.Line) coma.Effect
	// WriteBack retires a dirty SLC line to the memory system.
	WriteBack(node int, l addrspace.Line) coma.Effect
	// Stats and ResetStats expose protocol-level counters.
	Stats() coma.Stats
	ResetStats()
}

// comaMem adapts the COMA protocol to MemSystem.
type comaMem struct{ p *coma.Protocol }

func (c comaMem) Read(node int, l addrspace.Line) coma.Effect  { return c.p.Read(node, l) }
func (c comaMem) Write(node int, l addrspace.Line) coma.Effect { return c.p.Write(node, l) }
func (c comaMem) WriteBack(node int, l addrspace.Line) coma.Effect {
	// The attraction memory holds the line (inclusion): a local DRAM
	// write, no global transaction.
	return coma.Effect{Hit: true}
}
func (c comaMem) Stats() coma.Stats { return c.p.Stats() }
func (c comaMem) ResetStats()       { c.p.ResetStats() }

// Machine simulates one configuration.
type Machine struct {
	params Params
	prot   *coma.Protocol
	mem    MemSystem
	ic     Interconnect
	hier   *coma.Hierarchy
	nodes  []*nodeRes
	procs  []*proc
	ready  procHeap
	locks  map[uint32]*lockState
	bar    barrierState

	occDRAM, occNC, occBus engine.Time

	// rec forwards instrumentation events to an optional sink; now tracks
	// the clock of the processor currently stepping, so protocol-level
	// events (which have no clock of their own) can be timestamped.
	// userSink and sampler are the two instrumentation consumers rec fans
	// out to (rewire composes them).
	rec      obs.Recorder
	userSink obs.Sink
	sampler  *obs.Sampler
	now      engine.Time

	measuring      bool
	readNodeMisses int64
	slcMisses      int64
	busOcc         [3]engine.Time
	writeBacks     int64
	dirtyPurges    int64
	// latency is the read-latency histogram; its Total is the read count.
	latency stats.Hist

	// Adaptive fidelity (fidelity.go). ff is nil in exact mode, so the
	// exact path pays nothing beyond always-false branch checks:
	// counting gates the window-calibration sites (true only inside a
	// sampled measurement window), freeflow makes resource claims pass
	// through during fast-forward, waitAcc accumulates queueing delay
	// for the λ calibration. The fast-forward line memo lives on each
	// proc.
	ff       *ffState
	counting bool
	freeflow bool
	waitAcc  engine.Time
}

// New builds a machine with the paper's bus-based COMA memory system.
func New(p Params) (*Machine, error) { return NewWithMem(p, nil) }

// NewWithMem builds a machine with a custom memory system; buildMem
// receives the machine's purge and downgrade callbacks so the alternative
// system can keep the private caches coherent. A nil buildMem selects the
// COMA protocol.
func NewWithMem(p Params, buildMem func(purge func(node int, l addrspace.Line, evict bool), downgrade func(node int, l addrspace.Line)) MemSystem) (*Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		params:  p,
		locks:   make(map[uint32]*lockState),
		occDRAM: occupancy(DefaultDRAMTime, p.DRAMBandwidth),
		occNC:   occupancy(DefaultNCTime, p.NCBandwidth),
		occBus:  occupancy(DefaultBusPhase, p.BusBandwidth),
	}
	if p.Fidelity.Sampled() {
		m.ff = newFFState(p.Fidelity)
	}
	nodes := p.Nodes()
	amSets := oddSets(p.AMBytesPerProc*p.ProcsPerNode, p.AMWays)
	ring := p.Topology.Kind == TopologyRing
	if ring && buildMem != nil {
		return nil, fmt.Errorf("machine: ring topology requires the COMA memory system (its Txn holder masks drive ring routing)")
	}
	if buildMem == nil {
		if nodes < 2 {
			// A forced relocation must find another node to accept the
			// line (coma.Protocol.findReceiver).
			return nil, fmt.Errorf("machine: the COMA memory system needs at least 2 nodes, got %d (procs %d, %d per node)", nodes, p.Procs, p.ProcsPerNode)
		}
		var transition func(node int, l addrspace.Line, from, to cache.State)
		if ring {
			perCluster := nodes / p.Topology.Clusters
			m.hier = coma.NewHierarchy(nodes, p.Topology.Clusters, perCluster*amSets*p.AMWays)
			transition = m.hier.OnTransition
		}
		m.prot = coma.NewProtocol(coma.Config{
			Nodes:      nodes,
			SetsPerAM:  amSets,
			Ways:       p.AMWays,
			Policy:     p.Policy,
			PolicySet:  true,
			Purge:      m.onPurge,
			Downgrade:  m.onDowngrade,
			Transition: transition,
		})
		m.mem = comaMem{p: m.prot}
	} else {
		m.mem = buildMem(m.onPurge, m.onDowngrade)
	}
	if ring {
		m.ic = newRingFabric(m, p)
	} else {
		m.ic = newBusFabric(m)
	}
	m.nodes = make([]*nodeRes, nodes)
	for n := range m.nodes {
		m.nodes[n] = &nodeRes{
			nc:   engine.NewResource(fmt.Sprintf("nc%d", n)),
			dram: engine.NewResource(fmt.Sprintf("dram%d", n)),
		}
	}
	l1Sets := oddSets(p.L1Bytes, 1)
	slcSets := oddSets(p.SLCBytes, 4)
	m.procs = make([]*proc, p.Procs)
	for i := range m.procs {
		m.procs[i] = &proc{
			id:     i,
			node:   i / p.ProcsPerNode,
			l1:     cache.New(cache.Config{Name: fmt.Sprintf("l1-%d", i), Sets: l1Sets, Ways: 1}),
			slc:    cache.New(cache.Config{Name: fmt.Sprintf("slc-%d", i), Sets: slcSets, Ways: 4}),
			slcRes: engine.NewResource(fmt.Sprintf("slcres-%d", i)),
			wb:     make([]wbEntry, p.WriteBufferDepth),
		}
	}
	m.ready.init(m.procs)
	m.bar.arrived = make([]int, 0, p.Procs)
	m.bar.arriveAt = make([]engine.Time, 0, p.Procs)
	return m, nil
}

// Release returns the machine's pooled state (cache entry arrays) for
// reuse by later machines. The machine must not be used afterwards.
// Optional: an unreleased machine is simply collected by the GC.
func (m *Machine) Release() {
	for _, p := range m.procs {
		p.l1.Release()
		p.slc.Release()
	}
	if m.prot != nil {
		m.prot.Release()
	}
}

// Protocol exposes the protocol for tests and tools.
func (m *Machine) Protocol() *coma.Protocol { return m.prot }

// Interconnect exposes the fabric joining the nodes.
func (m *Machine) Interconnect() Interconnect { return m.ic }

// Hierarchy exposes the two-level directory, or nil on non-hierarchical
// topologies.
func (m *Machine) Hierarchy() *coma.Hierarchy { return m.hier }

// SetSink installs an observability sink receiving machine-level events
// (bus grants, write-buffer stalls, sync arrivals) and, when the COMA
// protocol is in use, protocol-level events (state transitions,
// replacements). A nil sink disables instrumentation; the disabled path
// costs nothing. Install before Run.
func (m *Machine) SetSink(s obs.Sink) {
	m.userSink = s
	m.rewire()
}

// EnableSampling attaches a windowed sampler: the run's counter deltas
// are binned into windows of the given simulated width and surfaced as
// Result.Timeline. Sampling is a pure observer (the timing model is
// untouched) and composes with SetSink in either order. Enable before
// Run; the default (no sampler) costs one predictable branch per
// reference.
func (m *Machine) EnableSampling(window engine.Time) {
	m.sampler = obs.NewSampler(int64(window))
	m.rewire()
}

// rewire recomputes the effective event sink from the installed user
// sink and sampler, and points the protocol's emission path at it.
func (m *Machine) rewire() {
	var s obs.Sink
	switch {
	case m.sampler != nil && m.userSink != nil:
		s = obs.Tee{m.sampler, m.userSink}
	case m.sampler != nil:
		s = m.sampler
	default:
		s = m.userSink
	}
	m.rec = obs.NewRecorder(s)
	if m.prot != nil {
		m.prot.SetSink(s)
		m.prot.SetClock(func() int64 { return int64(m.now) })
	}
}

// onPurge keeps private caches included in the AM: any AM line loss purges
// the node's L1s and SLCs, except replacement evictions in the
// non-inclusive variant. A purged dirty SLC line is flushed with the
// departing AM line (counted; its data rides the replacement transaction).
func (m *Machine) onPurge(node int, l addrspace.Line, evict bool) {
	if evict && !m.params.Inclusive {
		return
	}
	first := node * m.params.ProcsPerNode
	for i := first; i < first+m.params.ProcsPerNode; i++ {
		m.procs[i].l1.Invalidate(l)
		if st, ok := m.procs[i].slc.Lookup(l); ok && st == cacheDirty {
			m.dirtyPurges++
		}
		m.procs[i].slc.Invalidate(l)
		if m.ff != nil {
			m.procs[i].ffDrop(l)
		}
	}
}

// onDowngrade revokes write permission in the supplying node's private
// caches when its Exclusive AM line becomes Owner.
func (m *Machine) onDowngrade(node int, l addrspace.Line) {
	first := node * m.params.ProcsPerNode
	for i := first; i < first+m.params.ProcsPerNode; i++ {
		if st, ok := m.procs[i].slc.Lookup(l); ok && st == cacheDirty {
			m.procs[i].slc.SetState(l, cacheValid)
		}
		if m.ff != nil {
			m.procs[i].ffDrop(l)
		}
	}
}

// Run simulates the trace to completion and returns the measured-section
// result. The machine is single-use: Run may only be called once.
func (m *Machine) Run(tr *trace.Trace) (*Result, error) {
	return m.RunContext(context.Background(), tr)
}

// cancelCheckInterval is how many scheduler iterations pass between
// context-cancellation checks in RunContext. A channel poll costs a few
// nanoseconds; amortized over this many steps it is invisible next to the
// ~80 ns/ref simulation cost, while still bounding cancellation latency
// to well under a millisecond of wall clock.
const cancelCheckInterval = 4096

// RunContext is Run with cooperative cancellation: when ctx is cancelled
// (deadline, timeout, client disconnect) the simulation stops between
// scheduler steps and returns ctx's error. A context that can never be
// cancelled (context.Background) costs nothing extra.
func (m *Machine) RunContext(ctx context.Context, tr *trace.Trace) (*Result, error) {
	if tr.Procs != m.params.Procs {
		return nil, fmt.Errorf("machine: trace has %d procs, machine %d", tr.Procs, m.params.Procs)
	}
	for i, p := range m.procs {
		p.refs = &tr.Streams[i]
		m.ready.touch(int32(i))
	}
	done := ctx.Done() // nil when ctx can never be cancelled
	steps := 0
	// Step the (clock, id)-minimum processor in place. The order is a
	// strict total order, so while a step leaves p's clock unchanged —
	// L1-hit loads, stores absorbed by the write buffer — p is still the
	// unique minimum and can keep stepping with no heap work at all:
	// every path that wakes another processor (release, barrier exit)
	// also advances p's clock, so no other key can have moved meanwhile.
	// In sampled fidelity a pick in a fast-forward phase instead runs a
	// burst (ffSlice): p alone, up to the next detailed boundary or a
	// synchronization record, which is what keeps the line memo exact.
	for {
		if done != nil {
			if steps++; steps >= cancelCheckInterval {
				steps = 0
				select {
				case <-done:
					return nil, ctx.Err()
				default:
				}
			}
		}
		id, ok := m.ready.peek()
		if !ok {
			break
		}
		p := m.procs[id]
		m.now = p.t
		if m.sampler != nil {
			// Scheduler time is non-decreasing (the heap steps the global
			// (clock, id) minimum), so this closes every window the clock
			// passed.
			m.sampler.Advance(int64(p.t))
		}
		limit := p.t + 1 // detailed: run while p's clock stands still
		if m.ff != nil {
			m.ffSync(p.t)
			if m.ff.fastAt(p.t) {
				limit = m.ff.burstEnd(p.t)
				m.freeflow = true
				// Valid (L1-residency) memo bits persist across bursts —
				// the drop hooks keep them exact — but writable claims
				// must be re-proved: another processor may have become a
				// sharer since the last burst.
				p.ffWritable = 0
			}
		}
		m.step(p, limit)
		m.freeflow = false
		if p.done || p.blocked {
			m.ready.remove(id)
		} else {
			m.ready.fix(id)
		}
	}
	for _, p := range m.procs {
		if !p.done {
			return nil, fmt.Errorf("machine: deadlock — proc %d blocked at pc %d (%s)",
				p.id, p.pc, refAt(p))
		}
	}
	if !m.measuring {
		return nil, fmt.Errorf("machine: trace never reached MeasureStart")
	}
	return m.result(), nil
}

func refAt(p *proc) string {
	if p.refs != nil && p.pc < p.refs.Len() {
		return p.refs.Kind(p.pc).String()
	}
	return "end"
}

// step runs p's trace records until its clock reaches limit, it blocks
// or finishes, or it executes a synchronization record. Synchronization
// ends a fast-forward burst (its charges run contention-free under
// freeflow): lock handoffs and barrier releases move other processors'
// clocks, so the scheduler must re-pick its minimum.
func (m *Machine) step(p *proc, limit engine.Time) {
	refs := p.refs
	for p.pc < refs.Len() {
		r := refs.At(p.pc)
		p.pc++
		sync := false
		switch r.Kind {
		case trace.Compute:
			if m.measuring {
				p.st.Busy += r.Dur
			}
			p.t += r.Dur
		case trace.Read:
			m.read(p, r.Addr)
		case trace.Write:
			m.write(p, r.Addr)
		case trace.Acquire:
			if !m.doAcquire(p, r) {
				p.pc-- // blocked; retry the same record when woken
				return
			}
			sync = true
		case trace.Release:
			m.doRelease(p, r)
			sync = true
		case trace.Barrier, trace.MeasureStart:
			m.doBarrier(p, r)
			sync = true
		default:
			panic(fmt.Sprintf("machine: unknown ref kind %d", r.Kind))
		}
		if sync || p.blocked || p.t >= limit {
			break
		}
	}
	if !p.blocked && p.pc >= refs.Len() {
		// Includes a processor released from a final barrier with
		// nothing left to run.
		m.finish(p)
	}
}

// finish marks a processor complete, folding outstanding write-buffer
// drains into its finish time.
func (m *Machine) finish(p *proc) {
	p.done = true
	p.finished = engine.Max(p.t, p.wbLast)
	if m.measuring {
		p.st.Finish = p.finished - p.start
	}
}

// chargeAsync accounts an off-critical-path memory-system action (e.g. a
// dirty write-back) starting around time at: resources are occupied but no
// processor waits.
func (m *Machine) chargeAsync(node int, eff coma.Effect, at engine.Time) {
	w := m.waitAcc // off the critical path: keep its queueing out of λ calibration
	if len(eff.Txns) == 0 {
		// Node-local: controller plus DRAM.
		nr := m.nodes[node]
		start := m.claimRes(nr.nc, at, m.occNC)
		m.claimRes(nr.dram, start+DefaultNCTime, m.occDRAM)
		m.waitAcc = w
		return
	}
	for _, txn := range eff.Txns {
		var arr engine.Time
		switch {
		case txn.Data && txn.Remote >= 0:
			arr = m.ic.Inject(node, txn.Remote, txn.Line, at, txn.Class)
		case txn.Data:
			arr = m.ic.DataBroadcast(node, txn.Mask, txn.Line, at, txn.Class)
		case txn.Remote >= 0:
			arr = m.ic.Request(node, txn.Remote, txn.Line, at, txn.Class)
		default:
			arr = m.ic.Broadcast(node, txn.Mask, txn.Line, at, txn.Class)
		}
		if txn.Remote >= 0 {
			rn := m.nodes[txn.Remote]
			s2 := m.claimRes(rn.nc, arr, m.occNC)
			m.claimRes(rn.dram, s2+DefaultNCTime, m.occDRAM)
		}
	}
	m.waitAcc = w
}

// drainAll blocks p until its write buffer is empty (release semantics),
// charging the wait to Sync.
func (m *Machine) drainAll(p *proc) {
	if p.wbLast > p.t {
		if m.measuring {
			p.st.Sync += p.wbLast - p.t
		}
		p.t = p.wbLast
	}
	p.wbHead = 0
	p.wbLen = 0
}

// charge walks an attraction-memory access through the timing model,
// claiming resource occupancy, and returns the completion time plus the
// stall class (AM for node-local service, Remote when the bus supplied
// data on the critical path).
//
// Contention-free latencies reproduce the paper's: AM hit 24+24+100 =
// 148 ns; remote 24+24+20+24+100+20+100+20 = 332 ns with the bus occupied
// 2x20 ns.
func (m *Machine) charge(node int, slcRes *engine.Resource, at engine.Time, eff coma.Effect) (engine.Time, StallClass) {
	nr := m.nodes[node]
	// SLC miss detection / update.
	start := m.claimRes(slcRes, at, DefaultSLCMissDetect)
	t := start + DefaultSLCMissDetect
	// Local node controller: state & tag check.
	start = m.claimRes(nr.nc, t, m.occNC)
	t = start + DefaultNCTime

	remote := false
	for _, txn := range eff.Txns {
		switch {
		case txn.Class == coma.TxnReplace:
			// Replacements ride buffers off the critical path; they
			// occupy the interconnect and the receiver's resources.
			m.chargeReplace(node, txn, t)
		case txn.Data && txn.Remote < 0:
			// Data broadcast (update-policy write): one transfer,
			// absorbed by the holders.
			remote = true
			t = m.ic.DataBroadcast(node, txn.Mask, txn.Line, t, txn.Class)
		case txn.Data:
			// Request/response data transfer on the critical path.
			remote = true
			t = m.ic.Request(node, txn.Remote, txn.Line, t, txn.Class)
			rn := m.nodes[txn.Remote]
			start = m.claimRes(rn.nc, t, m.occNC)
			t = start + DefaultNCTime
			start = m.claimRes(rn.dram, t, m.occDRAM)
			t = start + DefaultDRAMTime
			t = m.ic.Response(txn.Remote, node, txn.Line, t, txn.Class)
		default:
			// Address-only invalidation broadcast on the critical path.
			t = m.ic.Broadcast(node, txn.Mask, txn.Line, t, txn.Class)
		}
	}
	// Local DRAM: data read on a hit, line insertion on a fill, data
	// store on a write. A memory system without local installation
	// (CC-NUMA remote fetches) skips this stage.
	if !eff.NoLocalFill {
		start = m.claimRes(nr.dram, t, m.occDRAM)
		t = start + DefaultDRAMTime
	}
	if remote {
		t += DefaultRemotePad
		return t, StallRemote
	}
	return t, StallAM
}

// chargeReplace accounts a replacement transaction starting around time t:
// injections move a data line (an address+data transfer, receiver NC +
// DRAM); ownership promotions are a single address-only request to the
// heir.
func (m *Machine) chargeReplace(node int, txn coma.Txn, t engine.Time) {
	w := m.waitAcc // off the critical path: keep its queueing out of λ calibration
	if !txn.Data {
		m.ic.Request(node, txn.Remote, txn.Line, t, coma.TxnReplace)
		m.waitAcc = w
		return
	}
	arr := m.ic.Inject(node, txn.Remote, txn.Line, t, coma.TxnReplace)
	rn := m.nodes[txn.Remote]
	start := m.claimRes(rn.nc, arr, m.occNC)
	m.claimRes(rn.dram, start+DefaultNCTime, m.occDRAM)
	m.waitAcc = w
}

// claimRes arbitrates a timing resource. Detailed execution claims for
// real; in fast-forward (freeflow) the claim passes through at its
// request time without occupying anything — contention re-enters through
// the calibrated λ factor instead, and busy time is extrapolated from
// the windows (ffFinalize). Inside a measurement window the queueing
// delay feeds the λ calibration via waitAcc. In exact mode both flags
// are permanently false and this is exactly Resource.Claim.
func (m *Machine) claimRes(r *engine.Resource, at, occ engine.Time) engine.Time {
	if m.freeflow {
		return at
	}
	start := r.Claim(at, occ)
	if m.counting {
		m.waitAcc += start - at
	}
	return start
}

func (m *Machine) traffic(c coma.TxnClass, occ engine.Time) {
	if m.measuring {
		m.busOcc[c] += occ
	}
}

func (m *Machine) lock(id uint32) *lockState {
	lk, ok := m.locks[id]
	if !ok {
		lk = &lockState{holder: -1}
		m.locks[id] = lk
	}
	return lk
}

// stall charges a synchronization record's memory access to its class.
func (m *Machine) stall(p *proc, c StallClass, d engine.Time) {
	if m.measuring && d > 0 {
		p.st.Stall[c] += d
	}
}

// doAcquire attempts to take the lock; returns false if p blocked.
func (m *Machine) doAcquire(p *proc, r trace.Ref) bool {
	lk := m.lock(r.ID)
	if lk.held {
		if m.rec.Enabled() {
			m.rec.Emit(obs.Event{
				Kind:  obs.KindSyncArrive,
				At:    int64(p.t),
				Node:  int32(p.id),
				Peer:  int32(lk.holder),
				Class: obs.SyncLockWait,
				Line:  uint64(r.ID),
			})
		}
		lk.waiters = append(lk.waiters, p.id)
		p.blocked = true
		p.blockAt = p.t
		if m.params.SpinLocks {
			// The spinner's test load misses once when the holder's
			// acquisition invalidated its copy, then spins locally;
			// charge that one coherence read now.
			eff := m.mem.Read(p.node, addrspace.LineOf(r.Addr))
			m.charge(p.node, p.slcRes, p.t, eff)
		}
		return false
	}
	if lk.freeAt > p.t {
		if m.measuring {
			p.st.Sync += lk.freeAt - p.t
		}
		p.t = lk.freeAt
	}
	// The test&set is a read-modify-write that must reach the coherence
	// point: a blocking write-access on the lock's line. Lock lines
	// migrate between attraction memories, so a lock last held within
	// the node is cheap — one of the sharing effects under study.
	t0 := p.t
	l := addrspace.LineOf(r.Addr)
	eff := m.mem.Write(p.node, l)
	done, class := m.charge(p.node, p.slcRes, p.t, eff)
	p.t = done
	m.stall(p, class, p.t-t0)
	lk.held = true
	lk.holder = p.id
	return true
}

// doRelease drains the write buffer, frees the lock and wakes the first
// waiter (FIFO handoff).
func (m *Machine) doRelease(p *proc, r trace.Ref) {
	m.drainAll(p)
	l := addrspace.LineOf(r.Addr)
	eff := m.mem.Write(p.node, l)
	done, class := m.charge(p.node, p.slcRes, p.t, eff)
	m.stall(p, class, done-p.t)
	p.t = done
	lk := m.lock(r.ID)
	if !lk.held || lk.holder != p.id {
		panic(fmt.Sprintf("machine: proc %d releases lock %d it does not hold", p.id, r.ID))
	}
	lk.held = false
	lk.holder = -1
	lk.freeAt = p.t
	if len(lk.waiters) == 0 {
		return
	}
	if m.params.SpinLocks {
		// Test&test&set: the release invalidates every spinner's cached
		// copy; they all re-read the line in a burst before one wins.
		for _, id := range lk.waiters {
			w := m.procs[id]
			eff := m.mem.Read(w.node, l)
			m.charge(w.node, w.slcRes, p.t, eff)
		}
	}
	w := m.procs[lk.waiters[0]]
	lk.waiters = lk.waiters[1:]
	if m.measuring && p.t > w.t {
		w.st.Sync += p.t - w.t
	}
	w.t = engine.Max(w.t, p.t)
	w.blocked = false
	m.ready.touch(int32(w.id))
}

// doBarrier implements global barriers and the measured-section marker.
func (m *Machine) doBarrier(p *proc, r trace.Ref) {
	m.drainAll(p)
	b := &m.bar
	if !b.active {
		b.active = true
		b.id = r.ID
		b.measure = r.Kind == trace.MeasureStart
		b.arrived = b.arrived[:0]
		b.arriveAt = b.arriveAt[:0]
	} else if b.id != r.ID || b.measure != (r.Kind == trace.MeasureStart) {
		panic(fmt.Sprintf("machine: proc %d at barrier %d while barrier %d in flight", p.id, r.ID, b.id))
	}
	if m.rec.Enabled() {
		m.rec.Emit(obs.Event{
			Kind:  obs.KindSyncArrive,
			At:    int64(p.t),
			Node:  int32(p.id),
			Peer:  -1,
			Class: obs.SyncBarrier,
			Line:  uint64(r.ID),
		})
	}
	b.arrived = append(b.arrived, p.id)
	b.arriveAt = append(b.arriveAt, p.t)
	p.blocked = true
	p.blockAt = p.t
	if len(b.arrived) < m.params.Procs {
		return
	}
	// Last arrival: release everyone.
	var tmax engine.Time
	for _, at := range b.arriveAt {
		tmax = engine.Max(tmax, at)
	}
	tmax += DefaultBarrierTime
	for i, id := range b.arrived {
		q := m.procs[id]
		q.blocked = false
		if m.measuring {
			q.st.Sync += tmax - b.arriveAt[i]
		}
		q.t = tmax
		m.ready.touch(int32(q.id))
	}
	b.active = false
	if b.measure {
		m.beginMeasure(tmax)
	}
}

// beginMeasure resets all statistics at the start of the measured section.
func (m *Machine) beginMeasure(at engine.Time) {
	m.measuring = true
	m.readNodeMisses = 0
	m.slcMisses = 0
	m.busOcc = [3]engine.Time{}
	m.writeBacks = 0
	m.dirtyPurges = 0
	m.latency = stats.NewHist(latBounds)
	m.mem.ResetStats()
	m.ic.Reset()
	for _, n := range m.nodes {
		n.nc.Reset()
		n.dram.Reset()
	}
	for _, p := range m.procs {
		p.st = ProcStats{}
		p.start = at
		p.slcRes.Reset()
	}
	if m.ff != nil {
		m.ffBegin(at)
	}
}

func (m *Machine) result() *Result {
	res := &Result{
		Procs:          make([]ProcStats, len(m.procs)),
		Reads:          m.latency.Total(),
		ReadNodeMisses: m.readNodeMisses,
		SLCMisses:      m.slcMisses,
		WriteBacks:     m.writeBacks,
		DirtyPurges:    m.dirtyPurges,
		ReadLatency:    m.latency,
		Protocol:       m.mem.Stats(),
	}
	if m.sampler != nil {
		res.Timeline = m.sampler.Timeline()
	}
	for _, r := range m.ic.Resources() {
		res.Resources = append(res.Resources, resUse(r))
	}
	for _, nr := range m.nodes {
		res.Resources = append(res.Resources, resUse(nr.nc), resUse(nr.dram))
	}
	for _, p := range m.procs {
		res.Resources = append(res.Resources, resUse(p.slcRes))
	}
	for c := range m.busOcc {
		res.BusOccupancy[c] = m.busOcc[c]
	}
	for i, p := range m.procs {
		res.Procs[i] = p.st
		res.ExecTime = engine.Max(res.ExecTime, p.st.Finish)
	}
	if res.ExecTime > 0 {
		dur := float64(res.ExecTime)
		res.BusUtilization = m.ic.Utilization(dur)
		res.NodeUtilization = make([]NodeUtil, len(m.nodes))
		for n, nr := range m.nodes {
			res.NodeUtilization[n] = NodeUtil{
				NC:   float64(nr.nc.BusyTotal()) / dur,
				DRAM: float64(nr.dram.BusyTotal()) / dur,
			}
		}
	}
	if m.ff != nil {
		m.ffFinalize(res)
	}
	return res
}

func resUse(r *engine.Resource) ResUse {
	return ResUse{
		Name:   r.Name(),
		BusyNs: int64(r.BusyTotal()),
		Claims: r.Claims(),
		WaitNs: int64(r.WaitTotal()),
		Waits:  r.Waits(),
	}
}
