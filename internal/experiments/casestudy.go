package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/trace"
)

// C1Result is the attribution case study: the paper-style "actionable
// output" demonstration. A naive N×N matrix multiply reuses B[k][j]
// column-wise with a reuse distance of roughly the whole matrix; tiling
// the loops collapses that pair's distance by orders of magnitude. RDX
// must localize the problem to the B-load site pair and show the
// collapse — all from sampling, with no instrumentation.
type C1Result struct {
	// NaiveBMean and BlockedBMean are the mean reuse distances RDX
	// attributes to the B-load→B-load pair in each variant.
	NaiveBMean   float64
	BlockedBMean float64
	// Improvement is NaiveBMean / BlockedBMean.
	Improvement float64
	// NaiveWorstIsB reports whether the B-load pair tops the naive
	// variant's worst-locality ranking (the tool pointing at the right
	// line of code).
	NaiveWorstIsB bool
}

// matmulPCBase is the fake code address of the multiply kernel; site
// offsets follow trace.MatMulBlocked (0: A load, 1: B load, 2: C load,
// 3: C store).
const matmulPCBase = mem.Addr(0x770000)

// bLoadPair is the B-load→B-load use-reuse pair.
var bLoadPair = core.PairKey{UsePC: matmulPCBase + 1, ReusePC: matmulPCBase + 1}

// RunC1 profiles naive and blocked matrix multiplies and compares the
// attribution of the B-load site.
func (o Options) RunC1() (*C1Result, error) {
	const matN = 256 // 256x256 : 67M accesses full, enough per variant
	profile := func(bs int) (*core.Result, error) {
		cfg := o.rdxConfig()
		// The kernel is a fixed 4·N³ accesses; sample densely enough for
		// stable per-pair statistics regardless of the global options.
		cfg.SamplePeriod = 2 << 10
		p, err := core.NewProfiler(cfg)
		if err != nil {
			return nil, err
		}
		r := trace.Tag(matmulPCBase, trace.MatMulBlocked(0, matN, bs))
		return p.Run(context.Background(), r, cpumodel.Default(), 0, nil)
	}

	naive, err := profile(matN) // bs == n: no tiling
	if err != nil {
		return nil, err
	}
	blocked, err := profile(32)
	if err != nil {
		return nil, err
	}

	res := &C1Result{}
	find := func(a core.Attribution) float64 {
		for _, p := range a {
			if p.Pair == bLoadPair {
				return p.MeanDistance
			}
		}
		return 0
	}
	res.NaiveBMean = find(naive.Attribution)
	res.BlockedBMean = find(blocked.Attribution)
	if res.BlockedBMean > 0 {
		res.Improvement = res.NaiveBMean / res.BlockedBMean
	}
	if len(naive.Attribution) > 0 {
		// Consider pairs carrying at least 2% of the heaviest pair's
		// weight, so one-off noise pairs don't top the ranking.
		minW := naive.Attribution[0].Weight / 50
		if worst := naive.Attribution.WorstLocality(1, minW); len(worst) == 1 {
			res.NaiveWorstIsB = worst[0].Pair == bLoadPair
		}
	}

	tb := report.NewTable("C1: attribution case study — tiling a matrix multiply",
		"variant", "B-load pair mean RD", "top pairs (use→reuse: meanRD)")
	describe := func(a core.Attribution) string {
		s := ""
		for _, p := range a.WorstLocality(3, a[0].Weight/50) {
			s += fmt.Sprintf("%x→%x:%.0f ", uint64(p.Pair.UsePC), uint64(p.Pair.ReusePC), p.MeanDistance)
		}
		return s
	}
	tb.AddRow("naive (no tiling)", res.NaiveBMean, describe(naive.Attribution))
	tb.AddRow("tiled 32x32", res.BlockedBMean, describe(blocked.Attribution))
	tb.AddRow("improvement", res.Improvement, "")
	if err := tb.WriteText(o.out()); err != nil {
		return nil, err
	}
	return res, nil
}
