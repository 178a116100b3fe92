// Package trace defines the memory-access-stream abstraction that every
// profiler in this repository consumes, together with a library of
// synthetic stream generators and a compact binary record/replay format.
//
// A trace is read in batches through the Reader interface, mirroring
// io.Reader: generators produce accesses on the fly (no trace needs to be
// materialized to run a simulation), while recorded traces can be saved
// to disk and replayed bit-exactly.
package trace

import (
	"errors"
	"io"
	"sync"

	"repro/internal/mem"
)

// Reader is a stream of memory accesses. Read fills dst with up to
// len(dst) accesses and returns how many were written. It returns io.EOF
// (possibly alongside a final short batch) when the stream is exhausted.
type Reader interface {
	Read(dst []mem.Access) (int, error)
}

// DefaultBatchSize is the default batch used by helpers that drain a
// Reader and by the simulated core's batched execution engine. Large
// enough to amortize Read dispatch, small enough to stay cache-resident
// (4096 accesses × 16 bytes = 64 KiB).
const DefaultBatchSize = 4096

// batchSize is the default batch used by helpers that drain a Reader.
const batchSize = DefaultBatchSize

// ErrShortTrace is returned by readers that require a minimum length.
var ErrShortTrace = errors.New("trace: stream shorter than required")

// accessBufPool recycles DefaultBatchSize access buffers across the
// drain helpers and the execution engine. The pool stores fixed-size
// array pointers, so neither Get nor Put boxes a slice header — both
// directions are allocation-free.
var accessBufPool = sync.Pool{
	New: func() any { return new([DefaultBatchSize]mem.Access) },
}

// BatchBuf borrows a DefaultBatchSize access buffer from the package
// pool; return it with ReleaseBatchBuf once nothing references its
// contents. Profilers and drain helpers read streams through these so
// repeated runs reuse one 64 KiB buffer instead of allocating each.
func BatchBuf() []mem.Access {
	return accessBufPool.Get().(*[DefaultBatchSize]mem.Access)[:]
}

// ReleaseBatchBuf returns a BatchBuf buffer to the pool. Buffers of any
// other capacity are ignored, so callers may pass their own slices
// through code that releases unconditionally.
func ReleaseBatchBuf(buf []mem.Access) {
	if cap(buf) != DefaultBatchSize {
		return
	}
	accessBufPool.Put((*[DefaultBatchSize]mem.Access)(buf[:DefaultBatchSize]))
}

// ForEach drains r, invoking fn for every access in order. It stops early
// and returns nil if fn returns false, and propagates any non-EOF error.
func ForEach(r Reader, fn func(mem.Access) bool) error {
	buf := BatchBuf()
	defer ReleaseBatchBuf(buf)
	for {
		n, err := r.Read(buf)
		for i := 0; i < n; i++ {
			if !fn(buf[i]) {
				return nil
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Count drains r and returns the total number of accesses.
func Count(r Reader) (uint64, error) {
	var n uint64
	err := ForEach(r, func(mem.Access) bool { n++; return true })
	return n, err
}

// Collect drains r into a slice. Intended for tests and small traces.
func Collect(r Reader) ([]mem.Access, error) {
	var out []mem.Access
	err := ForEach(r, func(a mem.Access) bool { out = append(out, a); return true })
	return out, err
}

// FromSlice returns a Reader over a fixed slice of accesses.
func FromSlice(accs []mem.Access) Reader {
	return &sliceReader{accs: accs}
}

type sliceReader struct {
	accs []mem.Access
	pos  int
}

func (s *sliceReader) Read(dst []mem.Access) (int, error) {
	if s.pos >= len(s.accs) {
		return 0, io.EOF
	}
	n := copy(dst, s.accs[s.pos:])
	s.pos += n
	if s.pos >= len(s.accs) {
		return n, io.EOF
	}
	return n, nil
}

// Concat returns a Reader that plays each input reader to exhaustion in
// order.
func Concat(rs ...Reader) Reader {
	return &concatReader{rs: rs}
}

type concatReader struct {
	rs []Reader
}

func (c *concatReader) Read(dst []mem.Access) (int, error) {
	for len(c.rs) > 0 {
		n, err := c.rs[0].Read(dst)
		if err == io.EOF {
			c.rs = c.rs[1:]
			if n > 0 {
				if len(c.rs) == 0 {
					return n, io.EOF
				}
				return n, nil
			}
			continue
		}
		return n, err
	}
	return 0, io.EOF
}

// Limit returns a Reader that yields at most n accesses from r.
func Limit(r Reader, n uint64) Reader {
	return &limitReader{r: r, left: n}
}

type limitReader struct {
	r    Reader
	left uint64
}

func (l *limitReader) Read(dst []mem.Access) (int, error) {
	if l.left == 0 {
		return 0, io.EOF
	}
	if uint64(len(dst)) > l.left {
		dst = dst[:l.left]
	}
	n, err := l.r.Read(dst)
	l.left -= uint64(n)
	if l.left == 0 {
		err = io.EOF
	}
	return n, err
}

// Repeat returns a Reader that replays the generator produced by mk
// `times` times in sequence. mk must return a fresh Reader on each call
// (generators are single-use).
func Repeat(times int, mk func() Reader) Reader {
	return &repeatReader{mk: mk, left: times}
}

type repeatReader struct {
	mk   func() Reader
	cur  Reader
	left int
}

func (r *repeatReader) Read(dst []mem.Access) (int, error) {
	for {
		if r.cur == nil {
			if r.left == 0 {
				return 0, io.EOF
			}
			r.left--
			r.cur = r.mk()
		}
		n, err := r.cur.Read(dst)
		if err == io.EOF {
			r.cur = nil
			if n > 0 {
				if r.left == 0 {
					return n, io.EOF
				}
				return n, nil
			}
			continue
		}
		return n, err
	}
}

// Func adapts a per-access generator function to a Reader. gen must
// return the next access and true, or false when the stream ends.
func Func(gen func() (mem.Access, bool)) Reader {
	return &funcReader{gen: gen}
}

type funcReader struct {
	gen  func() (mem.Access, bool)
	done bool
}

func (f *funcReader) Read(dst []mem.Access) (int, error) {
	if f.done {
		return 0, io.EOF
	}
	for i := range dst {
		a, ok := f.gen()
		if !ok {
			f.done = true
			return i, io.EOF
		}
		dst[i] = a
	}
	return len(dst), nil
}
