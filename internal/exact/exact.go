// Package exact implements the exhaustive ground-truth reuse-distance
// measurement that RDX is evaluated against: Olken's algorithm, which
// observes every memory access (via instrumentation) and maintains a
// hash map of last-access times plus an order-statistics tree of live
// timestamps. It yields exact reuse-distance and reuse-time histograms at
// the configured granularity — at the classic cost of instrumenting every
// access and holding per-distinct-block state, which is precisely the
// overhead the paper's motivation (experiment T1) quantifies.
package exact

import (
	"repro/internal/histogram"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Profiler measures exact reuse distance and reuse time. Feed it every
// access through Observe (or attach it to a cpu.Machine as
// instrumentation) and read the histograms when done.
type Profiler struct {
	gran mem.Granularity
	last map[mem.Addr]lastUse // block -> previous access
	tree *osList

	time     uint64
	distHist *histogram.Histogram
	timeHist *histogram.Histogram

	pairs map[PairKey]*PairAgg // nil unless WithAttribution
}

// lastUse records a block's most recent access.
type lastUse struct {
	time uint64
	pc   mem.Addr
}

// PairKey identifies a use→reuse pair of code sites (the exhaustive
// analogue of the profiler's sampled attribution).
type PairKey struct {
	UsePC   mem.Addr
	ReusePC mem.Addr
}

// PairAgg aggregates the exact reuses carried by one code pair.
type PairAgg struct {
	Count   uint64
	DistSum float64
}

// MeanDistance returns the pair's mean reuse distance.
func (a *PairAgg) MeanDistance() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.DistSum / float64(a.Count)
}

// Option configures a Profiler.
type Option func(*Profiler)

// WithAttribution enables exact per-code-pair aggregation (used to
// validate RDX's sampled attribution).
func WithAttribution() Option {
	return func(p *Profiler) { p.pairs = make(map[PairKey]*PairAgg) }
}

// New returns a profiler measuring at granularity g.
func New(g mem.Granularity, opts ...Option) *Profiler {
	p := &Profiler{
		gran:     g,
		last:     make(map[mem.Addr]lastUse),
		tree:     newOSList(),
		distHist: histogram.New(),
		timeHist: histogram.New(),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Observe records one access. Timestamps are assigned in call order.
func (p *Profiler) Observe(a mem.Access) {
	p.time++
	t := p.time
	b := p.gran.Block(a.Addr)
	if prev, ok := p.last[b]; ok {
		// Reuse: distance = distinct blocks touched strictly between the
		// two accesses = live timestamps newer than prev.
		dist, _ := p.tree.CountGreaterAndDelete(prev.time)
		p.distHist.Add(dist, 1)
		p.timeHist.Add(t-prev.time, 1)
		if p.pairs != nil {
			key := PairKey{UsePC: prev.pc, ReusePC: a.PC}
			agg := p.pairs[key]
			if agg == nil {
				agg = &PairAgg{}
				p.pairs[key] = agg
			}
			agg.Count++
			agg.DistSum += float64(dist)
		}
	} else {
		p.distHist.Add(histogram.Infinite, 1)
		p.timeHist.Add(histogram.Infinite, 1)
	}
	p.tree.InsertMax(t)
	p.last[b] = lastUse{time: t, pc: a.PC}
}

// Pairs returns the exact per-code-pair aggregation (nil unless the
// profiler was built WithAttribution).
func (p *Profiler) Pairs() map[PairKey]*PairAgg { return p.pairs }

// Instrument adapts the profiler to the cpu.Machine instrumentation hook.
func (p *Profiler) Instrument(_ uint64, a mem.Access) { p.Observe(a) }

// ReuseDistance returns the exact reuse-distance histogram (cold accesses
// recorded as infinite).
func (p *Profiler) ReuseDistance() *histogram.Histogram { return p.distHist }

// ReuseTime returns the exact reuse-time histogram.
func (p *Profiler) ReuseTime() *histogram.Histogram { return p.timeHist }

// Accesses returns the number of observed accesses.
func (p *Profiler) Accesses() uint64 { return p.time }

// DistinctBlocks returns the number of distinct blocks seen (the
// program's footprint at the measurement granularity).
func (p *Profiler) DistinctBlocks() uint64 { return uint64(len(p.last)) }

// StateBytes approximates the profiler's heap state: the
// order-statistics tree plus the last-access hash map. This is the
// "memory bloat" the exhaustive approach pays per distinct block.
func (p *Profiler) StateBytes() uint64 {
	// Go map overhead per entry is roughly 2x the key+value payload once
	// bucket metadata is included; 56 bytes/entry is a conservative
	// model for a map[Addr]lastUse.
	const mapEntryBytes = 56
	return p.tree.StateBytes() + uint64(len(p.last))*mapEntryBytes
}

// Measure runs the profiler over an entire stream and returns it.
func Measure(r trace.Reader, g mem.Granularity) (*Profiler, error) {
	p := New(g)
	err := trace.ForEach(r, func(a mem.Access) bool {
		p.Observe(a)
		return true
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// NaiveReuseDistances computes reuse distances with the O(N·M)
// definition-following algorithm. It exists to property-test the
// order-statistics implementations and is only usable on small traces.
func NaiveReuseDistances(accs []mem.Access, g mem.Granularity) []uint64 {
	out := make([]uint64, len(accs))
	blocks := make([]mem.Addr, len(accs))
	for i, a := range accs {
		blocks[i] = g.Block(a.Addr)
	}
	for i := range accs {
		// Find previous access to the same block.
		prev := -1
		for j := i - 1; j >= 0; j-- {
			if blocks[j] == blocks[i] {
				prev = j
				break
			}
		}
		if prev < 0 {
			out[i] = histogram.Infinite
			continue
		}
		seen := make(map[mem.Addr]struct{})
		for j := prev + 1; j < i; j++ {
			seen[blocks[j]] = struct{}{}
		}
		out[i] = uint64(len(seen))
	}
	return out
}
