package trace

import (
	"bytes"
	"testing"

	"repro/internal/mem"
)

// FuzzReader throws arbitrary bytes at the RDT3 file decoder: bad
// magic, corrupt records, overlong varints, truncation anywhere and
// bogus trailers must all return errors, never panic or loop. A stream
// that decodes must round-trip bit-exactly through NewWriter, and the
// re-encoding must be a fixed point of decode+encode.
func FuzzReader(f *testing.F) {
	var seed bytes.Buffer
	if _, err := Record(&seed, FromSlice([]mem.Access{
		{Addr: 0x1000, PC: 0x400000, Size: 8, Kind: mem.Load},
		{Addr: 1 << 40, PC: 0x400010, Size: 4, Kind: mem.Store},
		{Addr: 0x1040, PC: 0x400004, Size: 1, Kind: mem.Load},
	})); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()-1])
	f.Add([]byte("RDT3"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		accs, err := decodeAll(data)
		if err != nil {
			return
		}
		re := encodeAll(t, accs)
		back, err := decodeAll(re)
		if err != nil {
			t.Fatalf("re-encoded stream fails to decode: %v", err)
		}
		if len(back) != len(accs) {
			t.Fatalf("round-trip decoded %d accesses, want %d", len(back), len(accs))
		}
		for i := range back {
			if back[i] != accs[i] {
				t.Fatalf("access %d changed across round-trip: %v -> %v", i, accs[i], back[i])
			}
		}
		if again := encodeAll(t, back); !bytes.Equal(again, re) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}

func decodeAll(data []byte) ([]mem.Access, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return Collect(r)
}

func encodeAll(t *testing.T, accs []mem.Access) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Record(&buf, FromSlice(accs)); err != nil {
		t.Fatalf("decoded stream fails to re-encode: %v", err)
	}
	return buf.Bytes()
}
