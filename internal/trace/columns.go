package trace

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
)

// Columnar access batches.
//
// A Columns value holds one batch of accesses split by field — the
// layout behind the wire protocol's compressed batch frames and the
// engine's vectorized execute path. Splitting the stream into vectors
// exposes the structure delta encoding exploits: address streams are
// strided or clustered, PC streams cycle through a handful of code
// sites, and the kind/size metadata is near-constant, so each column
// compresses far better than the row-wise RDT3 record stream where the
// three interleave.
//
// Column encodings (shared by the wire layer and recorded traces):
//
//   - Addrs and PCs: either per-value delta against the previous value
//     (starting from 0), zig-zag mapped and varint encoded — the same
//     delta discipline as RDT3 — or zero-run delta-of-delta, where a
//     constant stride makes every second-order delta zero and a whole
//     run of accesses collapses to one run-length integer. The encoder
//     produces both and keeps the smaller, so irregular streams never
//     pay for the second-order model;
//   - Meta: one byte per access packing kind and size exactly like an
//     RDT3 record header (bit 0 kind, bits 1-4 size), either raw or
//     run-length encoded as (value, run length) pairs — real workloads
//     hold these constant for thousands of accesses.
//
// All Append*/Decode* helpers are allocation-free once dst has grown to
// its steady size, which is what lets the ingest pipeline stay at zero
// allocations per batch.

// Columns is one batch of accesses in columnar (struct-of-arrays) form.
// The three slices always have equal length.
type Columns struct {
	Addrs []mem.Addr
	PCs   []mem.Addr
	// Meta packs each access's kind and size into the RDT3 record
	// header byte: bit 0 kind (0 load, 1 store), bits 1-4 size.
	Meta []byte
}

// PackMeta packs an access's kind and size into a meta byte (the RDT3
// record-header packing).
func PackMeta(a mem.Access) byte {
	return byte(a.Kind&1) | byte(a.Size&0x0f)<<1
}

// MetaKind extracts the access kind from a meta byte.
func MetaKind(b byte) mem.Kind { return mem.Kind(b & 1) }

// MetaSize extracts the access size from a meta byte.
func MetaSize(b byte) uint8 { return b >> 1 & 0x0f }

// Len returns the number of accesses held.
func (c *Columns) Len() int { return len(c.Addrs) }

// Reset empties the columns, retaining capacity for reuse.
func (c *Columns) Reset() {
	c.Addrs = c.Addrs[:0]
	c.PCs = c.PCs[:0]
	c.Meta = c.Meta[:0]
}

// Append adds one access.
func (c *Columns) Append(a mem.Access) {
	c.Addrs = append(c.Addrs, a.Addr)
	c.PCs = append(c.PCs, a.PC)
	c.Meta = append(c.Meta, PackMeta(a))
}

// Grow ensures capacity for n more accesses, so the appends or column
// decodes that follow reallocate at most once per column instead of
// doubling their way up — the difference between ~3 and ~40 allocations
// when cold scratch meets its first full batch.
func (c *Columns) Grow(n int) {
	if need := len(c.Addrs) + n; cap(c.Addrs) < need {
		addrs := make([]mem.Addr, len(c.Addrs), need)
		copy(addrs, c.Addrs)
		c.Addrs = addrs
	}
	if need := len(c.PCs) + n; cap(c.PCs) < need {
		pcs := make([]mem.Addr, len(c.PCs), need)
		copy(pcs, c.PCs)
		c.PCs = pcs
	}
	if need := len(c.Meta) + n; cap(c.Meta) < need {
		meta := make([]byte, len(c.Meta), need)
		copy(meta, c.Meta)
		c.Meta = meta
	}
}

// AppendBatch adds a recorded batch of accesses — the columnar builder
// for streams that are already materialized row-wise.
func (c *Columns) AppendBatch(accs []mem.Access) {
	c.Grow(len(accs))
	for _, a := range accs {
		c.Append(a)
	}
}

// Access reconstructs the i-th access. It is a plain load of the three
// columns — no allocation — so event-delivery paths can materialize
// exactly the accesses they observe.
func (c *Columns) Access(i int) mem.Access {
	m := c.Meta[i]
	return mem.Access{
		Addr: c.Addrs[i],
		PC:   c.PCs[i],
		Size: MetaSize(m),
		Kind: MetaKind(m),
	}
}

// AppendTo materializes every access onto dst and returns the extended
// slice.
func (c *Columns) AppendTo(dst []mem.Access) []mem.Access {
	for i := range c.Addrs {
		dst = append(dst, c.Access(i))
	}
	return dst
}

// zigzag maps a signed delta onto an unsigned varint-friendly value
// (small magnitudes of either sign encode short).
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendDeltaColumn appends the delta + zig-zag varint encoding of vals
// to dst and returns the extended slice. The first value is encoded as
// a delta against 0.
func AppendDeltaColumn(dst []byte, vals []mem.Addr) []byte {
	var scratch [binary.MaxVarintLen64]byte
	var prev mem.Addr
	for _, v := range vals {
		n := binary.PutUvarint(scratch[:], zigzag(int64(v)-int64(prev)))
		dst = append(dst, scratch[:n]...)
		prev = v
	}
	return dst
}

// DecodeDeltaColumn decodes exactly count delta + zig-zag varint values
// from data, appending them to dst. Every byte of data must be
// consumed; short or over-long columns are corruption.
func DecodeDeltaColumn(dst []mem.Addr, data []byte, count int) ([]mem.Addr, error) {
	pos := 0
	var prev mem.Addr
	for i := 0; i < count; i++ {
		u, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return dst, deltaVarintErr(n, i)
		}
		pos += n
		prev = mem.Addr(int64(prev) + unzigzag(u))
		dst = append(dst, prev)
	}
	if pos != len(data) {
		return dst, fmt.Errorf("trace: delta column has %d trailing bytes after %d values", len(data)-pos, count)
	}
	return dst, nil
}

func deltaVarintErr(n, i int) error {
	if n == 0 {
		return fmt.Errorf("trace: delta column cut off at value %d: %w", i, ErrTruncated)
	}
	return fmt.Errorf("trace: delta column value %d: varint overflows 64 bits", i)
}

// AppendDoDColumn appends the zero-run delta-of-delta encoding of vals
// to dst: the column is a sequence of (zeros, dod) pairs, where zeros
// is a uvarint run length of values whose second-order delta is zero
// (the value continues the previous stride) and dod is the zig-zag
// varint of the next non-zero second-order delta. A trailing all-zero
// run is a bare final uvarint. Constant-stride streams — sequential
// sweeps, strided lane traversals — collapse to a handful of bytes
// regardless of length.
func AppendDoDColumn(dst []byte, vals []mem.Addr) []byte {
	dst, _ = AppendDoDColumnMax(dst, vals, -1)
	return dst
}

// AppendDoDColumnMax is AppendDoDColumn with an early abort: once the
// encoding would exceed limit bytes it gives up, truncates dst back to
// its input length and reports false. An encoder choosing between
// candidate encodings passes the size of the one it already holds, so
// streams where delta-of-delta loses (irregular address jumps) pay for
// only the losing prefix instead of the whole column. A negative limit
// never aborts.
func AppendDoDColumnMax(dst []byte, vals []mem.Addr, limit int) ([]byte, bool) {
	var scratch [binary.MaxVarintLen64]byte
	var prev, prevDelta int64
	var zeros uint64
	start := len(dst)
	for _, v := range vals {
		d := int64(v) - prev
		prev = int64(v)
		if d == prevDelta {
			zeros++
			continue
		}
		n := binary.PutUvarint(scratch[:], zeros)
		dst = append(dst, scratch[:n]...)
		n = binary.PutUvarint(scratch[:], zigzag(d-prevDelta))
		dst = append(dst, scratch[:n]...)
		zeros = 0
		prevDelta = d
		if limit >= 0 && len(dst)-start > limit {
			return dst[:start], false
		}
	}
	if zeros > 0 {
		n := binary.PutUvarint(scratch[:], zeros)
		dst = append(dst, scratch[:n]...)
	}
	if limit >= 0 && len(dst)-start > limit {
		return dst[:start], false
	}
	return dst, true
}

// DecodeDoDColumn decodes exactly count values of a zero-run
// delta-of-delta column from data, appending them to dst. Every byte
// must be consumed; runs past count and truncation are corruption.
func DecodeDoDColumn(dst []mem.Addr, data []byte, count int) ([]mem.Addr, error) {
	pos := 0
	var prev, prevDelta int64
	decoded := 0
	for decoded < count {
		zeros, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return dst, dodVarintErr(n, decoded)
		}
		pos += n
		if zeros > uint64(count-decoded) {
			return dst, fmt.Errorf("trace: delta-of-delta column runs past %d values", count)
		}
		for k := uint64(0); k < zeros; k++ {
			prev += prevDelta
			dst = append(dst, mem.Addr(prev))
		}
		decoded += int(zeros)
		if decoded == count {
			break
		}
		dod, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return dst, dodVarintErr(n, decoded)
		}
		pos += n
		prevDelta += unzigzag(dod)
		prev += prevDelta
		dst = append(dst, mem.Addr(prev))
		decoded++
	}
	if pos != len(data) {
		return dst, fmt.Errorf("trace: delta-of-delta column has %d trailing bytes after %d values", len(data)-pos, count)
	}
	return dst, nil
}

func dodVarintErr(n, i int) error {
	if n == 0 {
		return fmt.Errorf("trace: delta-of-delta column cut off at value %d: %w", i, ErrTruncated)
	}
	return fmt.Errorf("trace: delta-of-delta column value %d: varint overflows 64 bits", i)
}

// AppendRLEColumn appends the run-length encoding of vals — (value,
// run-length uvarint) pairs — to dst and returns the extended slice.
func AppendRLEColumn(dst []byte, vals []byte) []byte {
	var scratch [binary.MaxVarintLen64]byte
	for i := 0; i < len(vals); {
		v := vals[i]
		j := i + 1
		for j < len(vals) && vals[j] == v {
			j++
		}
		dst = append(dst, v)
		n := binary.PutUvarint(scratch[:], uint64(j-i))
		dst = append(dst, scratch[:n]...)
		i = j
	}
	return dst
}

// DecodeRLEColumn decodes a run-length encoded column of exactly count
// bytes from data, appending them to dst. Zero-length runs, a total
// other than count, and trailing bytes are corruption.
func DecodeRLEColumn(dst []byte, data []byte, count int) ([]byte, error) {
	pos := 0
	total := 0
	for total < count {
		if pos >= len(data) {
			return dst, fmt.Errorf("trace: RLE column ends after %d of %d values: %w", total, count, ErrTruncated)
		}
		v := data[pos]
		pos++
		run, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			if n == 0 {
				return dst, fmt.Errorf("trace: RLE column cut off inside a run length: %w", ErrTruncated)
			}
			return dst, fmt.Errorf("trace: RLE column run length overflows 64 bits")
		}
		pos += n
		if run == 0 {
			return dst, fmt.Errorf("trace: RLE column contains a zero-length run")
		}
		if run > uint64(count-total) {
			return dst, fmt.Errorf("trace: RLE column runs past %d values", count)
		}
		for k := uint64(0); k < run; k++ {
			dst = append(dst, v)
		}
		total += int(run)
	}
	if pos != len(data) {
		return dst, fmt.Errorf("trace: RLE column has %d trailing bytes after %d values", len(data)-pos, count)
	}
	return dst, nil
}
