package trace

import (
	"repro/internal/addrspace"
	"repro/internal/engine"
)

// Stream is one processor's reference stream in compact form: one 64-bit
// word per record (a 3-bit kind tag and a 61-bit payload) instead of a
// 32-byte Ref struct. Read/Write carry the address inline, Compute the
// duration, Barrier/MeasureStart the id; records that need more than one
// field (Acquire/Release carry both an address and a lock id) spill to a
// small side table of full Refs. Workload traces are dominated by reads
// and writes, so the compact form is ~4x smaller than []Ref.
//
// The op words live in a list of fixed blocks of blockLen records, so
// appending never copies what is already there: a full block is followed
// by a new one. Every block but the last is full; Builder.Build and
// DecodeCompact trim the last to its used length, so a finished stream
// holds exactly 8 bytes per record.
type Stream struct {
	blocks [][]uint64
	n      int
	side   []Ref
}

// Block geometry: 8192 records (64 KiB) per block.
const (
	blockShift = 13
	blockLen   = 1 << blockShift
	blockMask  = blockLen - 1
)

// Record encoding: kind tag in the top 3 bits, payload in the low 61.
// Kind values 0..6 are the Ref kinds; tag 7 marks an indirect record
// whose payload indexes the side table.
const (
	opKindShift            = 61
	opPayloadMask   uint64 = 1<<opKindShift - 1
	opIndirect      uint64 = 7
	opIndirectShift        = opIndirect << opKindShift
)

// Len returns the number of records in the stream.
func (s *Stream) Len() int { return s.n }

// op returns record i's op word.
func (s *Stream) op(i int) uint64 { return s.blocks[i>>blockShift][i&blockMask] }

// At decodes record i. The Ref is reconstructed by value; mutating it
// does not affect the stream.
func (s *Stream) At(i int) Ref { return s.decode(s.op(i)) }

// decode reconstructs the Ref that op word op stands for.
func (s *Stream) decode(op uint64) Ref {
	pl := op & opPayloadMask
	switch k := Kind(op >> opKindShift); k {
	case Read, Write:
		return Ref{Kind: k, Addr: addrspace.Addr(pl)}
	case Compute:
		return Ref{Kind: Compute, Dur: engine.Time(pl)}
	case Barrier, MeasureStart:
		return Ref{Kind: k, ID: uint32(pl)}
	default:
		return s.side[pl]
	}
}

// Kind returns record i's kind without decoding the rest of the record.
func (s *Stream) Kind(i int) Kind {
	op := s.op(i)
	if op >= opIndirectShift {
		return s.side[op&opPayloadMask].Kind
	}
	return Kind(op >> opKindShift)
}

// block returns the used records of block b.
func (s *Stream) block(b int) []uint64 {
	blk := s.blocks[b]
	if rest := s.n - b<<blockShift; rest < len(blk) {
		blk = blk[:rest]
	}
	return blk
}

// push appends one op word, starting a new block when the last is full.
func (s *Stream) push(op uint64) {
	off := s.n & blockMask
	if off == 0 {
		s.blocks = append(s.blocks, make([]uint64, blockLen))
	}
	blk := s.blocks[len(s.blocks)-1]
	if off >= len(blk) {
		// Appending to a trimmed stream: widen its tail back to a block.
		blk = make([]uint64, blockLen)
		copy(blk, s.blocks[len(s.blocks)-1])
		s.blocks[len(s.blocks)-1] = blk
	}
	blk[off] = op
	s.n++
}

// trim shrinks the last block and the side table to their used lengths,
// so MemBytes counts records, not spare capacity.
func (s *Stream) trim() {
	if last := len(s.blocks) - 1; last >= 0 {
		if used := s.block(last); len(used) < len(s.blocks[last]) {
			s.blocks[last] = make([]uint64, len(used))
			copy(s.blocks[last], used)
		}
	}
	if len(s.side) < cap(s.side) {
		side := make([]Ref, len(s.side))
		copy(side, s.side)
		s.side = side
	}
}

// Append adds r to the stream.
func (s *Stream) Append(r Ref) {
	if op, ok := inlineOp(r); ok {
		s.push(op)
		return
	}
	s.push(opIndirectShift | uint64(len(s.side)))
	s.side = append(s.side, r)
}

// inlineOp packs r into a single op word when it is in canonical form
// for its kind (unused fields zero, payload within 61 bits). Refs that
// don't fit — always Acquire/Release, and any denormal record such as a
// Read with a stray Dur — go through the side table instead so that
// At(i) reproduces the original Ref exactly.
func inlineOp(r Ref) (uint64, bool) {
	switch r.Kind {
	case Read, Write:
		if r.ID == 0 && r.Dur == 0 && uint64(r.Addr) <= opPayloadMask {
			return uint64(r.Kind)<<opKindShift | uint64(r.Addr), true
		}
	case Compute:
		if r.ID == 0 && r.Addr == 0 && r.Dur >= 0 && uint64(r.Dur) <= opPayloadMask {
			return uint64(Compute)<<opKindShift | uint64(r.Dur), true
		}
	case Barrier, MeasureStart:
		if r.Addr == 0 && r.Dur == 0 {
			return uint64(r.Kind)<<opKindShift | uint64(r.ID), true
		}
	}
	return 0, false
}

// addCompute extends the trailing Compute record by d and reports whether
// it could (the builder's coalescing fast path).
func (s *Stream) addCompute(d engine.Time) bool {
	if s.n == 0 {
		return false
	}
	last := &s.blocks[(s.n-1)>>blockShift][(s.n-1)&blockMask]
	if *last>>opKindShift != uint64(Compute) {
		return false
	}
	sum := *last&opPayloadMask + uint64(d)
	if sum > opPayloadMask {
		return false
	}
	*last = uint64(Compute)<<opKindShift | sum
	return true
}

// Refs materializes the stream as the old boxed form. For tools and
// tests; the simulator iterates with At.
func (s *Stream) Refs() []Ref {
	out := make([]Ref, s.n)
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// MemBytes is the approximate heap footprint of the stream's backing
// arrays, for cache-size accounting.
func (s *Stream) MemBytes() int {
	n := 32 * cap(s.side)
	for _, blk := range s.blocks {
		n += 8 * cap(blk)
	}
	return n
}

// FromRefs builds a Trace from old-form per-processor []Ref slices.
// Intended for tests and migration of externally built traces.
func FromRefs(name string, workingSet uint64, streams [][]Ref) *Trace {
	t := &Trace{
		Name:       name,
		Procs:      len(streams),
		WorkingSet: workingSet,
		Streams:    make([]Stream, len(streams)),
	}
	for p, st := range streams {
		for _, r := range st {
			t.Streams[p].Append(r)
		}
		t.Streams[p].trim()
	}
	return t
}
