package machine

import (
	"repro/internal/addrspace"
	"repro/internal/cache"
	"repro/internal/coma"
	"repro/internal/engine"
	"repro/internal/obs"
)

// The data-reference path (DESIGN.md §7). One read path and one write
// path serve both fidelities; each runs a reference in three steps:
//
//   - resolve: the functional L1 → SLC → MemSystem walk. In fast-forward
//     (m.freeflow) the line memo answers first.
//   - time: detailed execution claims the real resources; fast-forward
//     walks them contention-free (claims pass through) and adds the
//     calibrated mean wait of the access's class. The write-buffer ring
//     and its full-buffer stall are common to both.
//   - account: the outcome goes to account, the one place that keeps the
//     books on data references.
//
// Cache fills land between time and account, because a displaced dirty
// SLC victim's write-back is charged at the reference's completion time.

// outcome is what one data reference did, as account needs it.
type outcome struct {
	write bool
	// class and lat are a load's stall class and latency (zero for an L1
	// hit); for a store, the class and service time of the drain it
	// issued. cf is lat's contention-free component.
	class   StallClass
	lat, cf engine.Time
	// miss is how far the reference went past the private caches.
	miss missLevel
	// wbStall is a store's wait for a full write buffer, charged to
	// wbClass, the class of the drain it waited for.
	wbStall engine.Time
	wbClass StallClass
}

// missLevel says how far a reference went past the private caches.
type missLevel uint8

const (
	missNone missLevel = iota // served by the L1 or SLC
	missSLC                   // served by the memory system
	missNode                  // ... with a global transaction
)

// missOf classifies a memory-system access: a node miss when the local
// attraction memory needed a global transaction.
func missOf(eff coma.Effect) missLevel {
	if !eff.Hit && !eff.Cold {
		return missNode
	}
	return missSLC
}

// read services a blocking load.
func (m *Machine) read(p *proc, a addrspace.Addr) {
	l := addrspace.LineOf(a)
	// Resolve. In fast-forward the memo answers before the L1: exactly,
	// because the L1 is direct-mapped and no other processor interleaves
	// within a burst.
	if m.freeflow && p.memoHas(l, p.ffValid) {
		m.account(p, &outcome{}) // L1 hit: 0 ns (paper)
		return
	}
	if _, ok := p.l1.Touch(l); ok {
		if m.freeflow {
			p.memo(l, true, false)
		}
		m.account(p, &outcome{})
		return
	}
	t0 := p.t
	if _, ok := p.slc.Touch(l); ok {
		if m.freeflow {
			p.t += m.ff.scale(p, DefaultSLCHit, StallSLC)
		} else {
			p.t = p.slcRes.Claim(p.t, DefaultSLCHit) + DefaultSLCHit
		}
		m.l1Insert(p, l)
		m.account(p, &outcome{class: StallSLC, lat: p.t - t0, cf: DefaultSLCHit})
		return
	}
	eff := m.mem.Read(p.node, l)
	done, class, cf := m.service(p, t0, eff, false)
	p.t = done
	m.l1Insert(p, l)
	m.slcInsert(p, l, cacheValid)
	m.account(p, &outcome{class: class, lat: done - t0, cf: cf, miss: missOf(eff)})
}

// write retires a store. A store whose line is already writable (SLC
// dirty, AM Exclusive) completes in the SLC; otherwise it needs an
// AM-level action (allocate/upgrade/fetch-exclusive) which drains through
// the write buffer — the processor stalls only when the buffer is full
// (release consistency).
func (m *Machine) write(p *proc, a addrspace.Addr) {
	l := addrspace.LineOf(a)
	// Resolve. A memo-writable line skips the L1 touch, the port claim
	// and the sibling invalidations (idempotent within a burst), but
	// still refreshes the SLC recency stream so later replacements match
	// detailed execution.
	if m.freeflow && p.memoHas(l, p.ffWritable) {
		p.slc.Touch(l)
		m.account(p, &outcome{write: true})
		return
	}
	_, inL1 := p.l1.Touch(l) // the L1 is write-through into the SLC
	if st, ok := p.slc.Touch(l); ok && st == cacheDirty {
		if !m.freeflow {
			p.slcRes.Claim(p.t, DefaultSLCWrite) // write-port pressure only
		}
		if !m.params.Policy.WriteUpdate {
			m.invalidateSiblings(p, l)
		}
		if m.freeflow {
			p.memo(l, inL1, true)
		}
		m.account(p, &outcome{write: true})
		return
	}
	eff := m.mem.Write(p.node, l)
	o := outcome{write: true, miss: missOf(eff)}
	// Retire completed drains, then stall if still full.
	p.retireDrains()
	if p.wbLen >= m.params.WriteBufferDepth {
		head := p.wb[p.wbHead]
		o.wbStall, o.wbClass = head.done-p.t, head.class
		p.t = head.done
		p.retireDrains()
	}
	// Drains are FIFO, so this one's service is computed eagerly, from its
	// scheduled start rather than the store's issue time.
	start := engine.Max(p.t, p.wbLast)
	done, class, cf := m.service(p, start, eff, true)
	o.class, o.lat, o.cf = class, done-start, cf
	p.wbLast = done
	slot := p.wbHead + p.wbLen
	if slot >= len(p.wb) {
		slot -= len(p.wb)
	}
	p.wb[slot] = wbEntry{done: done, class: class}
	p.wbLen++
	// Write-allocate; the SLC copy is writable only when the memory
	// system granted exclusivity (always under invalidation; only for
	// sole copies under the update policy).
	st := cacheValid
	if eff.Writable {
		st = cacheDirty
	}
	m.slcInsert(p, l, st)
	m.l1Insert(p, l)
	if !m.params.Policy.WriteUpdate {
		// Update-policy stores refresh sibling copies in place; the
		// invalidation protocol kills them.
		m.invalidateSiblings(p, l)
	}
	if m.freeflow && eff.Writable {
		p.memo(l, true, true)
	}
	m.account(p, &o)
}

// service times a memory-system access issued at `at` and returns its
// completion, stall class and contention-free duration. Detailed
// execution claims the real resources; the queueing delay is what the
// claims added to waitAcc. Fast-forward walks the same resources
// contention-free and adds the calibrated mean wait of the read's class,
// or of write drains.
func (m *Machine) service(p *proc, at engine.Time, eff coma.Effect, drain bool) (engine.Time, StallClass, engine.Time) {
	w0 := m.waitAcc
	done, class := m.charge(p.node, p.slcRes, at, eff)
	cf := done - at - (m.waitAcc - w0)
	switch {
	case !m.freeflow:
	case drain:
		done = at + m.ff.scaleW(p, cf)
	default:
		done = at + m.ff.scale(p, cf, class)
	}
	return done, class, cf
}

// account keeps the books on one data reference, in both fidelities: the
// measured-section counters, the read-latency histogram, stall time, the
// windowed sampler, the fast-forward reference count and window
// calibration, and the write-buffer-stall event.
func (m *Machine) account(p *proc, o *outcome) {
	if m.measuring {
		if o.write {
			p.st.Writes++
		} else {
			p.st.Reads++
			m.latency.Add(int64(o.lat))
			if o.lat > 0 {
				p.st.Stall[o.class] += o.lat
			}
			if o.miss == missNode {
				m.readNodeMisses++
			}
		}
		if o.miss != missNone {
			m.slcMisses++
		}
		if o.wbStall > 0 {
			p.st.Stall[o.wbClass] += o.wbStall
		}
	}
	if o.wbStall > 0 && m.rec.Enabled() {
		m.rec.Emit(obs.Event{
			Kind:  obs.KindWBStall,
			At:    int64(p.t - o.wbStall), // a store's clock moves only by its stall
			Node:  int32(p.id),
			Peer:  -1,
			Class: uint8(o.wbClass),
			Dur:   int64(o.wbStall),
		})
	}
	if m.sampler != nil {
		m.sampler.NoteAccess(o.write)
		if o.miss != missNone {
			m.sampler.NoteMiss(o.miss == missNode)
		}
	}
	if m.ff == nil {
		return
	}
	if m.freeflow {
		m.ff.fastRefs++
	}
	if m.counting && o.lat > 0 {
		// Window calibration. A drain's is measured from its scheduled
		// start so write-buffer backlog isn't double-counted as
		// contention; a reference the private caches absorbed outright
		// (zero latency) has no service to calibrate.
		if o.write {
			m.ff.noteDrain(o.lat, o.cf)
		} else {
			m.ff.noteRead(o.class, o.lat, o.cf)
		}
	}
}

// l1Insert fills p's L1 and, in sampled mode, records the line in p's
// fast-forward memo (the eviction drop keeps the memo's L1-residency
// claims exact).
func (m *Machine) l1Insert(p *proc, l addrspace.Line) {
	victim, evicted := p.l1.Insert(l, cacheValid)
	if m.ff == nil {
		return
	}
	if evicted {
		p.ffDrop(victim.Line)
	}
	p.memo(l, true, false)
}

// slcInsert fills the SLC, writing back a displaced dirty victim to the
// attraction memory (off the critical path) and keeping the L1 included.
func (m *Machine) slcInsert(p *proc, l addrspace.Line, st cache.State) {
	victim, evicted := p.slc.Insert(l, st)
	if !evicted {
		return
	}
	p.l1.Invalidate(victim.Line)
	if m.ff != nil {
		p.ffDrop(victim.Line)
	}
	if victim.State == cacheDirty {
		m.writeBacks++
		eff := m.mem.WriteBack(p.node, victim.Line)
		m.chargeAsync(p.node, eff, p.t)
	}
}

// invalidateSiblings models the free intra-node snoop: a store invalidates
// the line in the other same-node processors' private caches.
func (m *Machine) invalidateSiblings(p *proc, l addrspace.Line) {
	first := p.node * m.params.ProcsPerNode
	for i := first; i < first+m.params.ProcsPerNode; i++ {
		if i == p.id {
			continue
		}
		m.procs[i].l1.Invalidate(l)
		m.procs[i].slc.Invalidate(l)
		if m.ff != nil {
			m.procs[i].ffDrop(l)
		}
	}
}

func (p *proc) retireDrains() {
	for p.wbLen > 0 && p.wb[p.wbHead].done <= p.t {
		p.wbHead++
		if p.wbHead == len(p.wb) {
			p.wbHead = 0
		}
		p.wbLen--
	}
}

// memoHas reports whether l holds p's memo entry with its bit set in bits
// (p.ffValid or p.ffWritable).
func (p *proc) memoHas(l addrspace.Line, bits uint64) bool {
	i := uint64(l) & 63
	return bits&(1<<i) != 0 && p.ffLines[i] == l
}

// memo records l in p's fast-forward memo as L1-resident (valid) and as
// SLC-dirty with siblings already invalidated (writable).
func (p *proc) memo(l addrspace.Line, valid, writable bool) {
	i := uint64(l) & 63
	bit := uint64(1) << i
	p.ffLines[i] = l
	p.ffValid &^= bit
	p.ffWritable &^= bit
	if valid {
		p.ffValid |= bit
	}
	if writable {
		p.ffWritable |= bit
	}
}

// ffDrop evicts a line from p's fast-forward memo (its residency claim no
// longer holds).
func (p *proc) ffDrop(l addrspace.Line) {
	i := uint64(l) & 63
	if p.ffLines[i] == l {
		bit := uint64(1) << i
		p.ffValid &^= bit
		p.ffWritable &^= bit
	}
}
