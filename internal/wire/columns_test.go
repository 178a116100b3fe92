package wire

import (
	"encoding/binary"
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// wireTestAccesses draws a batch mixing strided runs, random jumps and
// the full size/kind alphabet — the shapes the column encodings must
// round-trip and the corruption checks must survive.
func wireTestAccesses(seed uint64, n int) []mem.Access {
	rng := stats.NewRNG(seed)
	sizes := []uint8{1, 2, 4, 8}
	accs := make([]mem.Access, n)
	addr := mem.Addr(rng.Uint64n(1 << 40))
	for i := range accs {
		if rng.Uint64n(8) == 0 {
			addr = mem.Addr(rng.Uint64())
		} else {
			addr += 64
		}
		accs[i] = mem.Access{
			Addr: addr,
			PC:   0x400000 + mem.Addr(rng.Uint64n(1<<10))*4,
			Size: sizes[rng.Uint64n(4)],
			Kind: mem.Kind(rng.Uint64n(2)),
		}
	}
	return accs
}

// TestEncodeColumnsRoundTrip: encode → decode must reproduce the batch
// and sequence number bit-exactly, for many batch shapes.
func TestEncodeColumnsRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, 4096, 10000} {
		accs := wireTestAccesses(uint64(n)+3, n)
		var cols trace.Columns
		cols.AppendBatch(accs)
		payload, err := EncodeColumns(nil, uint64(n)*7+1, &cols)
		if err != nil {
			t.Fatalf("n=%d: encode: %v", n, err)
		}

		var back trace.Columns
		seq, err := DecodeColumnsInto(&back, payload)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if seq != uint64(n)*7+1 {
			t.Fatalf("n=%d: seq = %d", n, seq)
		}
		got := back.AppendTo(nil)
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d accesses", n, len(got))
		}
		for i := range got {
			if got[i] != accs[i] {
				t.Fatalf("n=%d: access %d changed: %v -> %v", n, i, accs[i], got[i])
			}
		}
	}
}

// TestEncodeColumnsReuse: steady-state encode and decode into reused
// scratch must not corrupt earlier results and must stay exact.
func TestEncodeColumnsReuse(t *testing.T) {
	var cols, back trace.Columns
	var payload []byte
	for round := 0; round < 5; round++ {
		accs := wireTestAccesses(uint64(round)+77, 3000)
		cols.Reset()
		cols.AppendBatch(accs)
		var err error
		payload, err = EncodeColumns(payload, uint64(round), &cols)
		if err != nil {
			t.Fatal(err)
		}
		back.Reset()
		seq, err := DecodeColumnsInto(&back, payload)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if seq != uint64(round) {
			t.Fatalf("round %d: seq %d", round, seq)
		}
		for i, a := range back.AppendTo(nil) {
			if a != accs[i] {
				t.Fatalf("round %d: access %d changed", round, i)
			}
		}
	}
}

// TestDecodeColumnsCorruption: every flipped byte must be caught by a
// column checksum (or a structural check) — never decode to different
// accesses, never panic.
func TestDecodeColumnsCorruption(t *testing.T) {
	accs := wireTestAccesses(5, 512)
	var cols trace.Columns
	cols.AppendBatch(accs)
	payload, err := EncodeColumns(nil, 9, &cols)
	if err != nil {
		t.Fatal(err)
	}

	// Flipping any byte after the seq prefix must fail decode: count and
	// section headers are covered by structural checks and the column
	// CRCs cover tag + data. (Seq bytes are protected by the outer frame
	// CRC in transit, not by the payload itself.)
	for off := batchSeqBytes; off < len(payload); off++ {
		mut := append([]byte(nil), payload...)
		mut[off] ^= 0x40
		var back trace.Columns
		if _, err := DecodeColumnsInto(&back, mut); err == nil {
			t.Fatalf("flipped byte %d accepted", off)
		}
	}
	// Truncation anywhere must fail.
	for cut := 0; cut < len(payload); cut++ {
		var back trace.Columns
		if _, err := DecodeColumnsInto(&back, payload[:cut]); err == nil {
			t.Fatalf("truncation at byte %d accepted", cut)
		}
	}
	// Trailing garbage must fail.
	var back trace.Columns
	if _, err := DecodeColumnsInto(&back, append(append([]byte(nil), payload...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestDecodeColumnsCountBound: a header declaring an absurd count must
// be refused before any column scratch is grown.
func TestDecodeColumnsCountBound(t *testing.T) {
	var payload [columnsHdrBytes]byte
	binary.BigEndian.PutUint32(payload[batchSeqBytes:], MaxColumnBatch+1)
	var back trace.Columns
	if _, err := DecodeColumnsInto(&back, payload[:]); err == nil {
		t.Fatal("oversized count accepted")
	}
}

// TestColumnsPoolRecirculates: Get/Put must hand back reusable scratch.
func TestColumnsPoolRecirculates(t *testing.T) {
	c := GetColumns()
	c.AppendBatch(wireTestAccesses(1, 100))
	PutColumns(c)
	c2 := GetColumns()
	defer PutColumns(c2)
	if c2.Len() != 0 {
		t.Fatalf("pooled columns not reset: len %d", c2.Len())
	}
	PutColumns(nil) // no-op
}

// FuzzDecodeColumns throws arbitrary bytes at the batch decoder:
// malformed headers, lying section lengths, corrupt column data and
// truncation must all return errors, never panic; a payload that
// decodes must round-trip bit-exactly through the encoder.
func FuzzDecodeColumns(f *testing.F) {
	var cols trace.Columns
	cols.AppendBatch(wireTestAccesses(2, 64))
	seed, err := EncodeColumns(nil, 3, &cols)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:columnsHdrBytes])
	f.Add(seed[:len(seed)-3])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		t.Helper()
		var c trace.Columns
		seq, err := DecodeColumnsInto(&c, data)
		if err != nil {
			return
		}
		re, err := EncodeColumns(nil, seq, &c)
		if err != nil {
			t.Fatalf("decoded batch fails to re-encode: %v", err)
		}
		var c2 trace.Columns
		seq2, err := DecodeColumnsInto(&c2, re)
		if err != nil || seq2 != seq || c2.Len() != c.Len() {
			t.Fatalf("batch does not round-trip: %v", err)
		}
		for i := 0; i < c.Len(); i++ {
			if c.Access(i) != c2.Access(i) {
				t.Fatalf("access %d changed across round-trip", i)
			}
		}
	})
}
