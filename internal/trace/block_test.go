package trace

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/addrspace"
)

// edgeRefs returns a valid n-record stream whose inline and side-table
// records sit on both sides of every block edge. Record 0 is the
// MeasureStart; after it the pattern repeats every three records (inline
// read, side-table read carrying a stray Dur, inline write or compute),
// so the first edge has a side record before it and an inline one after,
// the second the reverse. An acquire/release pair straddles the first
// edge when the stream reaches past it.
func edgeRefs(n int) []Ref {
	refs := make([]Ref, n)
	for i := range refs {
		a := addrspace.Addr(0x1000 + 64*i)
		switch i % 3 {
		case 0:
			refs[i] = Ref{Kind: Read, Addr: a}
		case 1:
			refs[i] = Ref{Kind: Read, Addr: a, Dur: 1}
		case 2:
			if i%2 == 0 {
				refs[i] = Ref{Kind: Write, Addr: a}
			} else {
				refs[i] = Ref{Kind: Compute, Dur: 3}
			}
		}
	}
	if n > 0 {
		refs[0] = Ref{Kind: MeasureStart}
	}
	if n > blockLen+2 {
		refs[blockLen-1] = Ref{Kind: Acquire, ID: 4, Addr: 0x800}
		refs[blockLen+2] = Ref{Kind: Release, ID: 4, Addr: 0x800}
	}
	return refs
}

// checkStream asserts that s holds exactly want and is trimmed: its
// footprint is 8 bytes per record plus 32 per side-table entry.
func checkStream(t *testing.T, s *Stream, want []Ref) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("Len %d, want %d", s.Len(), len(want))
	}
	for i, r := range want {
		if got := s.At(i); got != r {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, r)
		}
		if got := s.Kind(i); got != r.Kind {
			t.Fatalf("Kind(%d) = %v, want %v", i, got, r.Kind)
		}
	}
	if got, exact := s.MemBytes(), 8*s.Len()+32*len(s.side); got != exact {
		t.Fatalf("MemBytes %d, want exactly %d", got, exact)
	}
}

func TestStreamBlockBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, blockLen - 1, blockLen, blockLen + 1, 3*blockLen + 5} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			src := edgeRefs(n)
			tr := FromRefs("edge", addrspace.PageSize, [][]Ref{src})
			checkStream(t, &tr.Streams[0], src)
			if n == 0 {
				return // a stream without MeasureStart is not a valid trace
			}
			enc := tr.EncodeCompact()
			got, err := DecodeCompact(enc)
			if err != nil {
				t.Fatalf("DecodeCompact: %v", err)
			}
			checkStream(t, &got.Streams[0], src)
			if !bytes.Equal(got.EncodeCompact(), enc) {
				t.Fatal("re-encode differs from original bytes")
			}
		})
	}
}

// Appending to a trimmed stream widens its tail again instead of
// writing past it.
func TestStreamAppendAfterTrim(t *testing.T) {
	src := edgeRefs(blockLen + 3)
	tr := FromRefs("edge", addrspace.PageSize, [][]Ref{src})
	st := &tr.Streams[0]
	more := Ref{Kind: Write, Addr: 0x40}
	st.Append(more)
	if got := st.At(blockLen + 3); got != more || st.Len() != blockLen+4 {
		t.Fatalf("after append: Len %d, last %+v", st.Len(), got)
	}
	for i, r := range src {
		if st.At(i) != r {
			t.Fatalf("record %d changed to %+v", i, st.At(i))
		}
	}
}

// Builder.Compute coalesces into the last slot of a full block rather
// than starting a new block, and Build trims what is left.
func TestBuilderComputeCoalescesAtBlockEdge(t *testing.T) {
	b := NewBuilder("edge", 1)
	b.MeasureStart()
	for i := 1; i < blockLen-1; i++ {
		b.Read(0, addrspace.Addr(64*i))
	}
	b.Compute(0, 5) // the block's last slot: the block is now full
	b.Compute(0, 7) // coalesces into that slot
	st := &b.streams[0]
	if st.Len() != blockLen || len(st.blocks) != 1 {
		t.Fatalf("after coalescing: Len %d in %d blocks, want %d in 1", st.Len(), len(st.blocks), blockLen)
	}
	b.Read(0, 0x40) // opens the second block
	b.Compute(0, 3) // cannot coalesce across the read
	b.Acquire(0, 1, 0x80)
	b.Release(0, 1, 0x80)
	tr := b.Build(addrspace.PageSize)
	want := []Ref{
		{Kind: Compute, Dur: 12},
		{Kind: Read, Addr: 0x40},
		{Kind: Compute, Dur: 3},
		{Kind: Acquire, ID: 1, Addr: 0x80},
		{Kind: Release, ID: 1, Addr: 0x80},
	}
	st = &tr.Streams[0]
	if st.Len() != blockLen+4 {
		t.Fatalf("Len %d, want %d", st.Len(), blockLen+4)
	}
	for i, r := range want {
		if got := st.At(blockLen - 1 + i); got != r {
			t.Fatalf("At(%d) = %+v, want %+v", blockLen-1+i, got, r)
		}
	}
	all := st.Refs()
	checkStream(t, st, all)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tr.ValidateSync(); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderAllocatesRecordsOnce gates the block layout's point: a
// builder writes each record once. Building N records over P streams may
// allocate the records themselves, at most one block per stream of
// unused tail (the trimmed copy of a partly filled last block is smaller
// than the block it replaces), and a little bookkeeping. Growing a flat
// slice by copying allocates about twice the records and fails.
func TestBuilderAllocatesRecordsOnce(t *testing.T) {
	const procs = 4
	const perProc = 5*blockLen + 100
	const slack = 16 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b := NewBuilder("allocs", procs)
	b.MeasureStart()
	for i := 0; i < perProc; i++ {
		for p := 0; p < procs; p++ {
			a := addrspace.Addr(64 * (1 + i))
			switch i % 3 {
			case 0:
				b.Read(p, a)
			case 1:
				b.Write(p, a)
			case 2:
				b.Compute(p, 2)
			}
		}
	}
	for p := 0; p < procs; p++ {
		b.Acquire(p, uint32(p), 0x40)
		b.Release(p, uint32(p), 0x40)
	}
	b.Barrier()
	tr := b.Build(addrspace.PageSize)
	runtime.ReadMemStats(&after)
	var records int
	for p := range tr.Streams {
		records += tr.Streams[p].Len()
	}
	limit := uint64(8*records + procs*8*blockLen + slack)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("building %d records over %d streams allocated %d bytes, limit %d", records, procs, got, limit)
	}
}

// Summarize must tell processors apart beyond 32: processor 0 and
// processor 32 (at 33) or 96 (at 128) touching one line share it, and a
// line one processor touches twice is not shared.
func TestSummarizeSharedLinesManyProcs(t *testing.T) {
	for _, procs := range []int{33, 128} {
		other := 32 * ((procs - 1) / 32)
		streams := make([][]Ref, procs)
		streams[0] = []Ref{{Kind: Read, Addr: 0x1000}}
		streams[other] = []Ref{
			{Kind: Write, Addr: 0x1008},
			{Kind: Read, Addr: 0x2000},
			{Kind: Write, Addr: 0x2010},
		}
		s := FromRefs("wide", addrspace.PageSize, streams).Summarize()
		if s.DistinctLines != 2 || s.SharedLines != 1 {
			t.Fatalf("%d procs, 0 and %d on one line: distinct=%d shared=%d, want 2 and 1",
				procs, other, s.DistinctLines, s.SharedLines)
		}
	}
}
