package trace

import (
	"fmt"

	"repro/internal/addrspace"
	"repro/internal/engine"
)

// Builder accumulates per-processor streams while a workload kernel runs.
// Kernels are single-threaded generators: they iterate over logical
// processors and emit each processor's references for a phase, separated
// by barriers; the timing simulator later interleaves the streams. The
// builder emits the compact Stream form directly, so a generated trace
// never exists in the boxed []Ref representation.
type Builder struct {
	name      string
	procs     int
	streams   []Stream
	barrierID uint32
	measured  bool
}

// NewBuilder returns a builder for a workload with the given processor
// count.
func NewBuilder(name string, procs int) *Builder {
	if procs <= 0 {
		panic("trace: non-positive processor count")
	}
	return &Builder{name: name, procs: procs, streams: make([]Stream, procs)}
}

// Procs returns the processor count.
func (b *Builder) Procs() int { return b.procs }

// Read records a load by processor p.
func (b *Builder) Read(p int, a addrspace.Addr) {
	if uint64(a) <= opPayloadMask {
		b.streams[p].push(uint64(Read)<<opKindShift | uint64(a))
		return
	}
	b.streams[p].Append(Ref{Kind: Read, Addr: a})
}

// Write records a store by processor p.
func (b *Builder) Write(p int, a addrspace.Addr) {
	if uint64(a) <= opPayloadMask {
		b.streams[p].push(uint64(Write)<<opKindShift | uint64(a))
		return
	}
	b.streams[p].Append(Ref{Kind: Write, Addr: a})
}

// Compute charges d nanoseconds of busy execution to processor p.
// Successive computes are coalesced to keep traces compact.
func (b *Builder) Compute(p int, d engine.Time) {
	if d <= 0 {
		return
	}
	if !b.streams[p].addCompute(d) {
		b.streams[p].Append(Ref{Kind: Compute, Dur: d})
	}
}

// Acquire records lock acquisition by p on lock id homed at address a.
func (b *Builder) Acquire(p int, id uint32, a addrspace.Addr) {
	b.streams[p].Append(Ref{Kind: Acquire, Addr: a, ID: id})
}

// Release records release by p of lock id homed at address a.
func (b *Builder) Release(p int, id uint32, a addrspace.Addr) {
	b.streams[p].Append(Ref{Kind: Release, Addr: a, ID: id})
}

// Barrier emits a global barrier record to every processor's stream.
func (b *Builder) Barrier() {
	id := b.barrierID
	b.barrierID++
	for p := range b.streams {
		b.streams[p].Append(Ref{Kind: Barrier, ID: id})
	}
}

// MeasureStart emits the measured-section marker to every stream. It must
// be called exactly once per workload, after initialization phases.
func (b *Builder) MeasureStart() {
	if b.measured {
		panic(fmt.Sprintf("trace %s: MeasureStart called twice", b.name))
	}
	b.measured = true
	for p := range b.streams {
		b.streams[p].Append(Ref{Kind: MeasureStart})
	}
}

// Build finalizes the trace, trimming each stream's last block to its
// used length. workingSet is the application footprint in bytes
// (normally Space.Allocated()).
func (b *Builder) Build(workingSet uint64) *Trace {
	if !b.measured {
		panic(fmt.Sprintf("trace %s: built without MeasureStart", b.name))
	}
	for p := range b.streams {
		b.streams[p].trim()
	}
	return &Trace{Name: b.name, Procs: b.procs, WorkingSet: workingSet, Streams: b.streams}
}
