package trace

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
)

// randomAccesses draws a mixed batch: strided runs, random jumps, the
// full size/kind alphabet, and extreme addresses that stress the
// zig-zag delta encoding.
func randomAccesses(seed uint64, n int) []mem.Access {
	rng := stats.NewRNG(seed)
	sizes := []uint8{1, 2, 4, 8}
	accs := make([]mem.Access, n)
	addr := mem.Addr(rng.Uint64n(1 << 40))
	pc := mem.Addr(0x400000)
	for i := range accs {
		switch rng.Uint64n(8) {
		case 0: // random jump, occasionally to an extreme
			if rng.Uint64n(16) == 0 {
				addr = mem.Addr(rng.Uint64())
			} else {
				addr = mem.Addr(rng.Uint64n(1 << 44))
			}
			pc = 0x400000 + mem.Addr(rng.Uint64n(1<<12))*4
		case 1:
			addr -= 64
		default: // strided run
			addr += 64
		}
		accs[i] = mem.Access{
			Addr: addr,
			PC:   pc,
			Size: sizes[rng.Uint64n(4)],
			Kind: mem.Kind(rng.Uint64n(2)),
		}
	}
	return accs
}

// TestColumnsRoundTrip: batch -> columns -> column encodings -> decode
// must reproduce the accesses bit-exactly, for batches of many shapes.
func TestColumnsRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 4096} {
		accs := randomAccesses(uint64(n)+1, n)
		var c Columns
		c.AppendBatch(accs)
		if c.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, c.Len())
		}

		for _, enc := range []string{"delta", "dod"} {
			var addrCol, pcCol []byte
			if enc == "delta" {
				addrCol = AppendDeltaColumn(nil, c.Addrs)
				pcCol = AppendDeltaColumn(nil, c.PCs)
			} else {
				addrCol = AppendDoDColumn(nil, c.Addrs)
				pcCol = AppendDoDColumn(nil, c.PCs)
			}
			metaCol := AppendRLEColumn(nil, c.Meta)

			decode := func(col []byte) ([]mem.Addr, error) {
				if enc == "delta" {
					return DecodeDeltaColumn(nil, col, n)
				}
				return DecodeDoDColumn(nil, col, n)
			}
			addrs, err := decode(addrCol)
			if err != nil {
				t.Fatalf("n=%d %s: addr column: %v", n, enc, err)
			}
			pcs, err := decode(pcCol)
			if err != nil {
				t.Fatalf("n=%d %s: pc column: %v", n, enc, err)
			}
			meta, err := DecodeRLEColumn(nil, metaCol, n)
			if err != nil {
				t.Fatalf("n=%d %s: meta column: %v", n, enc, err)
			}
			back := Columns{Addrs: addrs, PCs: pcs, Meta: meta}
			got := back.AppendTo(nil)
			if len(got) != n {
				t.Fatalf("n=%d %s: decoded %d accesses", n, enc, len(got))
			}
			for i := range got {
				if got[i] != accs[i] {
					t.Fatalf("n=%d %s: access %d changed: %v -> %v", n, enc, i, accs[i], got[i])
				}
			}
		}
	}
}

// TestColumnsZigzagExtremes: deltas at the int64 boundaries must
// survive the zig-zag mapping.
func TestColumnsZigzagExtremes(t *testing.T) {
	vals := []mem.Addr{0, math.MaxUint64, 0, 1 << 63, 42, math.MaxInt64, 0}
	col := AppendDeltaColumn(nil, vals)
	got, err := DecodeDeltaColumn(nil, col, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("delta value %d: %#x -> %#x", i, uint64(vals[i]), uint64(got[i]))
		}
	}
	dod := AppendDoDColumn(nil, vals)
	got, err = DecodeDoDColumn(nil, dod, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("dod value %d: %#x -> %#x", i, uint64(vals[i]), uint64(got[i]))
		}
	}
}

// TestDecodeColumnCorruption: malformed columns fail descriptively.
func TestDecodeColumnCorruption(t *testing.T) {
	vals := []mem.Addr{1, 2, 3}
	col := AppendDeltaColumn(nil, vals)
	if _, err := DecodeDeltaColumn(nil, col[:len(col)-1], len(vals)); err == nil {
		t.Error("truncated delta column accepted")
	}
	if _, err := DecodeDeltaColumn(nil, append(append([]byte(nil), col...), 0), len(vals)); err == nil {
		t.Error("delta column with trailing byte accepted")
	}
	if _, err := DecodeDeltaColumn(nil, bytes.Repeat([]byte{0x80}, 11), 1); err == nil {
		t.Error("overlong varint accepted")
	}

	dod := AppendDoDColumn(nil, []mem.Addr{1, 2, 100, 3})
	if _, err := DecodeDoDColumn(nil, dod[:len(dod)-1], 4); err == nil {
		t.Error("truncated dod column accepted")
	}
	if _, err := DecodeDoDColumn(nil, append(append([]byte(nil), dod...), 0), 4); err == nil {
		t.Error("dod column with trailing byte accepted")
	}
	if _, err := DecodeDoDColumn(nil, []byte{9}, 3); err == nil {
		t.Error("dod zero-run past count accepted")
	}

	meta := AppendRLEColumn(nil, []byte{5, 5, 5, 7})
	if _, err := DecodeRLEColumn(nil, meta, 3); err == nil {
		t.Error("RLE column running past count accepted")
	}
	if _, err := DecodeRLEColumn(nil, meta[:1], 4); err == nil {
		t.Error("RLE column cut inside a run accepted")
	}
	if _, err := DecodeRLEColumn(nil, []byte{5, 0}, 0); err == nil {
		t.Error("zero-length run with trailing bytes accepted")
	}
}

// TestColumnCompression pins the point of the layout: strided and
// sequential streams must collapse under the delta-of-delta encoding,
// far below RDT3's several bytes per access.
func TestColumnCompression(t *testing.T) {
	for _, tc := range []struct {
		name   string
		r      Reader
		budget float64 // bytes/access, all three columns
	}{
		{"sequential", Sequential(0, 1<<14, 64), 0.1},
		{"strided", Strided(0, 8, 1<<10, 64, 1<<14), 1.5},
	} {
		accs, err := Collect(tc.r)
		if err != nil {
			t.Fatal(err)
		}
		var c Columns
		c.AppendBatch(accs)
		pick := func(vals []mem.Addr) int {
			d := len(AppendDeltaColumn(nil, vals))
			dd := len(AppendDoDColumn(nil, vals))
			return min(d, dd)
		}
		total := pick(c.Addrs) + pick(c.PCs) + len(AppendRLEColumn(nil, c.Meta))
		perAccess := float64(total) / float64(len(accs))
		t.Logf("%s: %.3f bytes/access columnar", tc.name, perAccess)
		if perAccess > tc.budget {
			t.Errorf("%s stream encodes at %.3f bytes/access, want <= %.2f", tc.name, perAccess, tc.budget)
		}
	}
}
