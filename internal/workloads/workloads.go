// Package workloads provides the benchmark suite used throughout the
// evaluation: fifteen synthetic kernels whose address streams mimic the
// characteristic locality behaviour of named SPEC CPU2017 benchmarks.
//
// SPEC CPU2017 itself is proprietary and cannot ship with this
// repository; reuse-distance measurement, however, sees nothing but the
// address stream, so each kernel is built from the access-pattern
// primitives in internal/trace to land in the same qualitative regime as
// its namesake: streaming sweeps (lbm), pointer chasing (mcf, omnetpp),
// Zipf-distributed table lookups (deepsjeng, xalancbmk), structured-grid
// stencils (cactuBSSN, fotonik3d), blocked linear algebra (nab), sliding
// windows (xz), and cache-resident hot loops (exchange2). The suite spans
// tiny working sets through tens-of-MiB streaming footprints so that
// accuracy and overhead results exercise the full spectrum the paper's
// evaluation covers.
//
// Two sizing rules keep the suite faithful to the paper's regime at
// simulation-scale run lengths (millions of accesses, against SPEC's
// trillions):
//
//   - working sets are deliberately NOT powers of two, so true reuse
//     distances land mid-bucket in the log2 histograms rather than on
//     bucket boundaries where any estimator is brittle;
//   - components meant to be *observed reusing* cycle in well under the
//     run length (reuse time ≤ a few hundred thousand accesses), while
//     streaming components are sized near or beyond the run length so
//     that both RDX and the ground truth see them as cold/LLC-defeating,
//     mirroring how SPEC's big-footprint codes relate to real runs.
package workloads

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Workload is one named benchmark in the suite.
type Workload struct {
	// Name is the kernel's identifier (the SPEC CPU2017 benchmark it is
	// styled after).
	Name string
	// Desc summarizes the access pattern.
	Desc string
	// FootprintWords approximates the number of distinct 8-byte words the
	// kernel touches, independent of run length.
	FootprintWords uint64
	// New builds a fresh single-use access stream of at least n
	// accesses with the given seed.
	New func(seed uint64, n uint64) trace.Reader
}

// base spreads each workload's address space apart so mixed traces never
// alias.
const regionStride = mem.Addr(1) << 40

// Each workload component is tagged with a stable fake code address
// (0x40N000 for workload region N), so attribution output names
// distinguishable "instructions"; multi-site kernels (stencils, matmul)
// additionally expose per-site PC offsets.

var suite = []Workload{
	{
		Name:           "lbm",
		Desc:           "lattice streaming: repeated linear sweeps over a ~30MiB array",
		FootprintWords: 3_900_000,
		New: func(seed, n uint64) trace.Reader {
			return trace.Tag(0x401000, trace.Cyclic(1*regionStride, 3_900_000, n))
		},
	},
	{
		Name:           "mcf",
		Desc:           "network simplex: pointer chase over an arc pool plus hot node metadata",
		FootprintWords: 300_000 + 12_000,
		New: func(seed, n uint64) trace.Reader {
			return trace.Mix(seed,
				[]trace.Reader{
					trace.Tag(0x402000, trace.PointerChase(seed+1, 2*regionStride, 300_000, n*7/10)),
					trace.Tag(0x402100, trace.ZipfAccess(seed+2, 2*regionStride+1<<30, 12_000, 1.1, n-n*7/10)),
				},
				[]float64{7, 3})
		},
	},
	{
		Name:           "deepsjeng",
		Desc:           "game tree search: Zipf-distributed transposition-table probes",
		FootprintWords: 3_000_000,
		New: func(seed, n uint64) trace.Reader {
			return trace.Tag(0x403000, trace.ZipfAccess(seed, 3*regionStride, 3_000_000, 0.9, n))
		},
	},
	{
		Name:           "leela",
		Desc:           "MCTS: hot Zipf node cache with uniform cold expansion traffic",
		FootprintWords: 230_000 + 3_500_000,
		New: func(seed, n uint64) trace.Reader {
			return trace.Mix(seed,
				[]trace.Reader{
					trace.Tag(0x404000, trace.ZipfAccess(seed+1, 4*regionStride, 230_000, 1.2, n*8/10)),
					trace.Tag(0x404100, trace.RandomUniform(seed+2, 4*regionStride+1<<30, 3_500_000, n-n*8/10)),
				},
				[]float64{8, 2})
		},
	},
	{
		Name:           "omnetpp",
		Desc:           "discrete event simulation: event-heap pointer chase with FIFO queue sweeps",
		FootprintWords: 190_000 + 95_000,
		New: func(seed, n uint64) trace.Reader {
			return trace.Mix(seed,
				[]trace.Reader{
					trace.Tag(0x405000, trace.PointerChase(seed+1, 5*regionStride, 190_000, n*6/10)),
					trace.Tag(0x405100, trace.Cyclic(5*regionStride+1<<30, 95_000, n-n*6/10)),
				},
				[]float64{6, 4})
		},
	},
	{
		Name:           "xalancbmk",
		Desc:           "XSLT: Zipf DOM-node lookups interleaved with tree pointer chases",
		FootprintWords: 1_900_000 + 210_000,
		New: func(seed, n uint64) trace.Reader {
			return trace.Mix(seed,
				[]trace.Reader{
					trace.Tag(0x406000, trace.ZipfAccess(seed+1, 6*regionStride, 1_900_000, 1.0, n/2)),
					trace.Tag(0x406100, trace.PointerChase(seed+2, 6*regionStride+1<<30, 210_000, n-n/2)),
				},
				[]float64{5, 5})
		},
	},
	{
		Name:           "gcc",
		Desc:           "compiler: small hot symbol tables, Zipf IR access, streaming passes",
		FootprintWords: 15_000 + 900_000 + 330_000,
		New: func(seed, n uint64) trace.Reader {
			return trace.Mix(seed,
				[]trace.Reader{
					trace.Tag(0x407000, trace.Cyclic(7*regionStride, 15_000, n*4/10)),
					trace.Tag(0x407100, trace.ZipfAccess(seed+1, 7*regionStride+1<<30, 900_000, 1.0, n*4/10)),
					trace.Tag(0x407200, trace.Cyclic(7*regionStride+1<<31, 330_000, n-2*(n*4/10))),
				},
				[]float64{4, 4, 2})
		},
	},
	{
		Name:           "perlbench",
		Desc:           "interpreter: Zipf hash-table probes over a hot op-dispatch loop",
		FootprintWords: 3_800 + 470_000,
		New: func(seed, n uint64) trace.Reader {
			return trace.Mix(seed,
				[]trace.Reader{
					trace.Tag(0x408000, trace.Cyclic(8*regionStride, 3_800, n/2)),
					trace.Tag(0x408100, trace.ZipfAccess(seed+1, 8*regionStride+1<<30, 470_000, 1.1, n-n/2)),
				},
				[]float64{5, 5})
		},
	},
	{
		Name:           "x264",
		Desc:           "video encode: frame stencil with a drifting motion-search window",
		FootprintWords: 1920*1080 + 950_000,
		New: func(seed, n uint64) trace.Reader {
			sweeps := int(n/(1920*1080*6)) + 1
			return trace.Mix(seed,
				[]trace.Reader{
					trace.Tag(0x409000, trace.Stencil2D(9*regionStride, 1920, 1080, sweeps)),
					trace.Tag(0x409100, trace.GaussianWorkingSet(seed+1, 9*regionStride+1<<31, 950_000, 4096, 1<<16, n/2)),
				},
				[]float64{5, 5})
		},
	},
	{
		Name:           "bwaves",
		Desc:           "explicit CFD: wide multi-lane strided sweeps over large arrays",
		FootprintWords: 8 * 45_000,
		New: func(seed, n uint64) trace.Reader {
			return trace.Tag(0x40a000, trace.Strided(10*regionStride, 8, 45_000, 64, n))
		},
	},
	{
		Name:           "cactuBSSN",
		Desc:           "numerical relativity: 5-point stencil sweeps over a big 2D grid",
		FootprintWords: 1500 * 1500,
		New: func(seed, n uint64) trace.Reader {
			sweeps := int(n/(1498*1498*6)) + 1
			return trace.Tag(0x40b000, trace.Stencil2D(11*regionStride, 1500, 1500, sweeps))
		},
	},
	{
		Name:           "fotonik3d",
		Desc:           "FDTD electromagnetics: stencil over a wide shallow grid",
		FootprintWords: 5000 * 700,
		New: func(seed, n uint64) trace.Reader {
			sweeps := int(n/(4998*698*6)) + 1
			return trace.Tag(0x40c000, trace.Stencil2D(12*regionStride, 5000, 700, sweeps))
		},
	},
	{
		Name:           "nab",
		Desc:           "molecular dynamics: blocked dense linear algebra with random neighbor lookups",
		FootprintWords: 3*450*450 + 210_000,
		New: func(seed, n uint64) trace.Reader {
			return trace.Mix(seed,
				[]trace.Reader{
					trace.Tag(0x40d000, trace.Repeat(1<<30, func() trace.Reader { return trace.MatMulBlocked(13*regionStride, 450, 60) })),
					trace.Tag(0x40d100, trace.RandomUniform(seed+1, 13*regionStride+1<<31, 210_000, n*2/10)),
				},
				[]float64{8, 2})
		},
	},
	{
		Name:           "xz",
		Desc:           "compression: sliding dictionary window with a long input scan",
		FootprintWords: 6_500_000 + 3_300_000,
		New: func(seed, n uint64) trace.Reader {
			return trace.Mix(seed,
				[]trace.Reader{
					trace.Tag(0x40e000, trace.GaussianWorkingSet(seed+1, 14*regionStride, 6_500_000, 30_000, 1<<14, n*6/10)),
					trace.Tag(0x40e100, trace.Cyclic(14*regionStride+1<<31, 3_300_000, n-n*6/10)),
				},
				[]float64{6, 4})
		},
	},
	{
		Name:           "exchange2",
		Desc:           "puzzle solver: cache-resident recursion over tiny boards",
		FootprintWords: 1_900,
		New: func(seed, n uint64) trace.Reader {
			return trace.Mix(seed,
				[]trace.Reader{
					trace.Tag(0x40f000, trace.Cyclic(15*regionStride, 1_900, n/2)),
					trace.Tag(0x40f100, trace.ZipfAccess(seed+1, 15*regionStride, 1_900, 0.8, n-n/2)),
				},
				[]float64{5, 5})
		},
	},
}

// Suite returns all workloads in a stable order.
func Suite() []Workload {
	out := append([]Workload(nil), suite...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted workload names.
func Names() []string {
	s := Suite()
	names := make([]string, len(s))
	for i, w := range s {
		names[i] = w.Name
	}
	return names
}

// ByName looks up a workload.
func ByName(name string) (Workload, error) {
	for _, w := range suite {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names())
}

// Build constructs the access stream for a named workload with exactly
// n accesses. Composed generators give their last component the
// remainder of the rounded-down shares, so they produce at least n, and
// Limit caps any overshoot so runs stay comparable across workloads.
func Build(name string, seed, n uint64) (trace.Reader, error) {
	w, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return trace.Limit(w.New(seed, n), n), nil
}
