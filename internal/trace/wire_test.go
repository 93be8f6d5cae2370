package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/addrspace"
)

// wireSample builds a small but fully featured trace: inline reads,
// writes, computes and barriers plus side-table acquire/release pairs.
func wireSample() *Trace {
	b := NewBuilder("wire-sample", 3)
	for p := 0; p < 3; p++ {
		b.Write(p, addrspace.Addr(0x1000+64*p))
		b.Compute(p, 10)
	}
	b.Barrier()
	b.MeasureStart()
	for p := 0; p < 3; p++ {
		b.Read(p, addrspace.Addr(0x2000+64*p))
		b.Acquire(p, 1, 0x3000)
		b.Write(p, 0x3040)
		b.Release(p, 1, 0x3000)
		b.Compute(p, 25)
	}
	b.Barrier()
	return b.Build(addrspace.PageSize)
}

func TestCompactRoundTrip(t *testing.T) {
	tr := wireSample()
	enc := tr.EncodeCompact()
	got, err := DecodeCompact(enc)
	if err != nil {
		t.Fatalf("DecodeCompact: %v", err)
	}
	if got.Name != tr.Name || got.Procs != tr.Procs || got.WorkingSet != tr.WorkingSet {
		t.Fatalf("header mismatch: %+v vs %+v", got, tr)
	}
	for p := range tr.Streams {
		want := tr.Streams[p].Refs()
		have := got.Streams[p].Refs()
		if len(want) != len(have) {
			t.Fatalf("proc %d: %d refs decoded, want %d", p, len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("proc %d ref %d: %+v != %+v", p, i, have[i], want[i])
			}
		}
	}
	// The stream arrays pass through verbatim, so re-encoding must
	// reproduce the input bytes exactly — the property the trace digest
	// and TRACES.md's worked example rely on.
	if !bytes.Equal(got.EncodeCompact(), enc) {
		t.Fatal("re-encode differs from original bytes")
	}
}

// corrupt returns enc with the byte at off overwritten.
func corrupt(enc []byte, off int, b byte) []byte {
	out := append([]byte(nil), enc...)
	out[off] = b
	return out
}

func TestDecodeCompactRejects(t *testing.T) {
	enc := wireSample().EncodeCompact()
	// Offsets into the sample's header: magic [0,8), nameLen [8,12),
	// name [12,23), procs [23,27), workingSet [27,35), stream 0 counts
	// [35,43).
	nameEnd := 12 + len("wire-sample")
	cases := []struct {
		name string
		data []byte
		want string // substring of the error
	}{
		{"empty", nil, "reading magic"},
		{"truncated magic", enc[:4], "reading magic"},
		{"bad magic", corrupt(enc, 0, 'X'), "bad magic"},
		{"old version", corrupt(enc, 7, '1'), "bad magic"},
		{"future version", corrupt(enc, 7, '3'), "bad magic"},
		{"truncated header", enc[:10], "name length"},
		{"huge name", corrupt(enc, 10, 0xff), "implausible name length"},
		{"zero procs", corrupt(enc, nameEnd, 0), "processor count"},
		{"huge procs", corrupt(enc, nameEnd+2, 0xff), "implausible processor count"},
		{"zero working set", append(append(append([]byte{}, enc[:nameEnd+4]...), make([]byte, 8)...), enc[nameEnd+12:]...), "working set"},
		{"truncated stream", enc[:len(enc)-5], ""},
		{"trailing bytes", append(append([]byte(nil), enc...), 0xaa), "trailing bytes"},
		// Stream 0's op count inflated far beyond the remaining input:
		// the decoder must reject before allocating.
		{"oversized ops", corrupt(enc, nameEnd+15, 0x7f), ""},
		{"oversized side table", corrupt(enc, nameEnd+19, 0x7f), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeCompact(tc.data)
			if err == nil {
				t.Fatalf("decoded successfully: %+v", got)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// setOp overwrites record i's op word in place, bypassing the encoder.
func setOp(s *Stream, i int, op uint64) { s.block(i >> blockShift)[i&blockMask] = op }

// TestDecodeCompactRejectsBadOps corrupts individual op words and side
// records, the cases where a naive decoder would panic later in
// Stream.At or the machine's sync handlers.
func TestDecodeCompactRejectsBadOps(t *testing.T) {
	mk := func(mut func(tr *Trace)) []byte {
		tr := wireSample()
		mut(tr)
		return tr.EncodeCompact()
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"inline acquire", mk(func(tr *Trace) {
			setOp(&tr.Streams[0], 0, uint64(Acquire)<<opKindShift|0x3000)
		}), "must spill"},
		{"inline release", mk(func(tr *Trace) {
			setOp(&tr.Streams[0], 0, uint64(Release)<<opKindShift|0x3000)
		}), "must spill"},
		{"indirect out of range", mk(func(tr *Trace) {
			setOp(&tr.Streams[0], 0, opIndirectShift|99)
		}), "outside side table"},
		{"barrier id overflow", mk(func(tr *Trace) {
			setOp(&tr.Streams[0], 0, uint64(Barrier)<<opKindShift|1<<40)
		}), "overflows uint32"},
		{"bad side kind", mk(func(tr *Trace) {
			tr.Streams[0].side[0].Kind = 200
		}), "unknown kind"},
		{"zero address read", mk(func(tr *Trace) {
			setOp(&tr.Streams[0], 0, uint64(Read)<<opKindShift)
		}), "zero address"},
		{"double measure start", mk(func(tr *Trace) {
			setOp(&tr.Streams[0], 0, uint64(MeasureStart)<<opKindShift)
		}), "MeasureStart"},
		{"release without acquire", mk(func(tr *Trace) {
			// Swap proc 0's acquire/release side records.
			tr.Streams[0].side[0], tr.Streams[0].side[1] = tr.Streams[0].side[1], tr.Streams[0].side[0]
		}), "does not hold"},
		{"mismatched barriers", mk(func(tr *Trace) {
			setOp(&tr.Streams[0], 2, uint64(Barrier)<<opKindShift|7)
		}), "barrier record"},
		{"ends holding lock", mk(func(tr *Trace) {
			// Turn proc 0's release into a read so the acquire dangles.
			tr.Streams[0].side[1] = Ref{Kind: Read, Addr: 0x3000}
		}), "ends holding"},
		{"ends holding two locks", mk(func(tr *Trace) {
			// Turn proc 0's release into a second acquire: the lowest
			// held id is named, whatever the map order.
			tr.Streams[0].side[1] = Ref{Kind: Acquire, ID: 0, Addr: 0x3080}
		}), "proc 0 ends holding lock 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeCompact(tc.data)
			if err == nil {
				t.Fatal("decoded successfully")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateSyncAcceptsBuilderTraces pins the guarantee ValidateSync's
// doc comment makes: every Builder-made trace passes.
func TestValidateSyncAcceptsBuilderTraces(t *testing.T) {
	if err := wireSample().ValidateSync(); err != nil {
		t.Fatalf("ValidateSync on builder trace: %v", err)
	}
}

// FuzzStreamDecode drives DecodeCompact with arbitrary bytes: it must
// never panic and never allocate past a small multiple of the input
// (enforced structurally: array lengths are checked against remaining
// input before allocation). Accepted inputs must round-trip.
func FuzzStreamDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(CompactMagic))
	sample := wireSample().EncodeCompact()
	f.Add(sample)
	f.Add(sample[:len(sample)-3])
	// A header claiming a huge op count with no backing bytes.
	huge := append([]byte(CompactMagic), make([]byte, 32)...)
	binary.LittleEndian.PutUint32(huge[8:], 0)     // empty name
	binary.LittleEndian.PutUint32(huge[12:], 1)    // one proc
	binary.LittleEndian.PutUint64(huge[16:], 4096) // working set
	binary.LittleEndian.PutUint32(huge[24:], 1<<31)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeCompact(data)
		if err != nil {
			return
		}
		enc := tr.EncodeCompact()
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted input does not round-trip: %d bytes in, %d out", len(data), len(enc))
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace fails Validate: %v", err)
		}
	})
}
