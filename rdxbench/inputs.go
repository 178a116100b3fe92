package main

import (
	"fmt"
	"io"
	"time"

	rdx "repro"
	"repro/internal/mem"
	"repro/internal/trace"
)

// stream is one pre-materialised access stream. It lives on the Go
// heap, as a profiled program's own data would, so the collector paces
// itself against a heap of realistic size.
type stream struct {
	name string
	accs []mem.Access
}

// newStream allocates room for n accesses.
func newStream(name string, n int) *stream {
	return &stream{name: name, accs: make([]mem.Access, n)}
}

// fill materialises r into the stream and trims the stream
// to the accesses r produced. A suite workload may end an access short
// of the length asked for, so the length is taken as generated; a
// stream that does not fit, or comes out less than half full, is an
// error.
func (s *stream) fill(r trace.Reader) error {
	all := s.accs[:cap(s.accs)]
	n := 0
	for n < len(all) {
		k, err := r.Read(all[n:])
		n += k
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("generating %s: %w", s.name, err)
		}
	}
	if n == len(all) {
		var probe [1]mem.Access
		if k, _ := r.Read(probe[:]); k > 0 {
			return fmt.Errorf("generating %s: stream longer than %d accesses", s.name, len(all))
		}
	}
	if n < len(all)/2 {
		return fmt.Errorf("generating %s: got %d accesses, want about %d", s.name, n, len(all))
	}
	s.accs = all[:n]
	return nil
}

// reader returns a fresh reader over the stream.
func (s *stream) reader() rdx.Reader { return trace.FromSlice(s.accs) }

// genClock accumulates generation time and volume, for trace.gen_macc_s.
type genClock struct {
	accesses uint64
	busy     time.Duration
}

func (g *genClock) rate() float64 {
	if g.busy <= 0 {
		return 0
	}
	return float64(g.accesses) / g.busy.Seconds() / 1e6
}

// materialise allocates a stream of n accesses and fills it from r.
func (g *genClock) materialise(name string, n int, r trace.Reader) (*stream, error) {
	s := newStream(name, n)
	if err := g.refill(s, name, r); err != nil {
		return nil, err
	}
	return s, nil
}

// refill regenerates a stream from r, timing the generation.
func (g *genClock) refill(s *stream, name string, r trace.Reader) error {
	s.name = name
	t0 := time.Now()
	if err := s.fill(r); err != nil {
		return err
	}
	g.busy += time.Since(t0)
	g.accesses += uint64(len(s.accs))
	return nil
}

// The ingest stream generators. Stream i of a run draws everything from
// the workload seed and i, so the same seed always yields the same
// accesses and no two streams of a run share a generator seed.

// zipfReader generates an ingest-zipf stream: Zipf(s=1.0) over 1<<14
// words.
func zipfReader(seed uint64, i int, n int) trace.Reader {
	return trace.ZipfAccess(seed*1000003+uint64(i), 0, 1<<14, 1.0, uint64(n))
}

// stridedReader generates an ingest-strided-sync stream: an 8-lane
// strided scan at a 64-byte stride over lanes of 961 to 1024 words, in
// its own 1 GiB-aligned region.
func stridedReader(seed uint64, i int, n int) trace.Reader {
	lane := uint64(1<<10) - (seed*31+uint64(i))%64
	base := mem.Addr((seed*7919+uint64(i))%4096+1) << 30
	return trace.Strided(base, 8, lane, 64, uint64(n))
}
