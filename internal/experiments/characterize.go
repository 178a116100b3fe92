package experiments

import (
	"math"

	"repro/internal/cache"
	"repro/internal/mrc"
	"repro/internal/report"
	"repro/internal/workloads"
)

// Cache capacities used for characterization, expressed in 8-byte words
// to match the measurement granularity: a 32KiB L1, 1MiB L2 and 32MiB
// LLC hold 4K, 128K and 4M words respectively.
const (
	l1Words  = 4 << 10
	l2Words  = 128 << 10
	llcWords = 4 << 20
)

// T8Row characterizes one benchmark: the paper's SPEC CPU2017
// memory-performance table, derived entirely from RDX histograms.
type T8Row struct {
	Workload  string
	MedianRD  float64 // median reuse distance (words; +Inf if cold-dominated)
	ColdPct   float64 // fraction of accesses that are first touches
	BeyondL1  float64 // fraction of accesses with RD >= L1 capacity
	BeyondL2  float64
	BeyondLLC float64
}

// T8Result is experiment T8: the headline application — characterizing
// the memory behaviour of the (SPEC-CPU2017-style) suite with a
// featherlight tool.
type T8Result struct {
	Rows []T8Row
}

// RunT8 characterizes every workload from its RDX histogram alone (no
// ground truth needed — this is the production use case).
func (o Options) RunT8() (*T8Result, error) {
	res := &T8Result{}
	tb := report.NewTable("T8: SPEC-CPU2017-style memory characterization (via RDX)",
		"workload", "median RD", "cold %", ">L1 %", ">L2 %", ">LLC %")
	for _, w := range workloads.Suite() {
		rdx, err := o.runRDX(w.Name, o.rdxConfig())
		if err != nil {
			return nil, err
		}
		rd := rdx.ReuseDistance
		row := T8Row{
			Workload:  w.Name,
			MedianRD:  rd.Percentile(0.5),
			ColdPct:   100 * rd.Cold() / rd.Total(),
			BeyondL1:  100 * rd.FractionAbove(l1Words),
			BeyondL2:  100 * rd.FractionAbove(l2Words),
			BeyondLLC: 100 * rd.FractionAbove(llcWords),
		}
		res.Rows = append(res.Rows, row)
		if math.IsInf(row.MedianRD, 1) {
			tb.AddRow(row.Workload, "inf", row.ColdPct, row.BeyondL1, row.BeyondL2, row.BeyondLLC)
		} else {
			tb.AddRow(row.Workload, row.MedianRD, row.ColdPct, row.BeyondL1, row.BeyondL2, row.BeyondLLC)
		}
	}
	if err := tb.WriteText(o.out()); err != nil {
		return nil, err
	}
	return res, nil
}

// F9Point compares a predicted and simulated miss ratio.
type F9Point struct {
	Workload  string
	Lines     uint64
	Predicted float64 // from the RDX reuse-distance histogram
	Simulated float64 // from the LRU cache simulator
	AbsError  float64
}

// F9Result is experiment F9: miss ratios predicted from RDX histograms
// versus a simulated fully associative LRU cache, across capacities.
type F9Result struct {
	Points       []F9Point
	MeanAbsError float64
}

// RunF9 predicts and simulates miss ratios for the representative
// workloads. Both sides run at word granularity (the RDX measurement
// granularity): caches of N words versus RD >= N.
func (o Options) RunF9() (*F9Result, error) {
	res := &F9Result{}
	tb := report.NewTable("F9: miss-ratio prediction from RDX vs LRU simulation",
		"workload", "capacity (words)", "predicted", "simulated", "abs err")
	var errSum float64
	var errN int
	for _, name := range representative {
		rdx, err := o.runRDX(name, o.rdxConfig())
		if err != nil {
			return nil, err
		}
		for _, wordsCap := range []uint64{1 << 10, 1 << 14, 1 << 18, 1 << 22} {
			r, err := o.buildWorkload(name)
			if err != nil {
				return nil, err
			}
			sim, err := cache.Simulate(r, cache.Config{
				SizeBytes: wordsCap * 8,
				LineBytes: 8, // word-grain "cache" to match measurement granularity
				Ways:      0,
			})
			if err != nil {
				return nil, err
			}
			pred := mrc.StackMissRatio(rdx.ReuseDistance, wordsCap)
			pt := F9Point{
				Workload:  name,
				Lines:     wordsCap,
				Predicted: pred,
				Simulated: sim,
				AbsError:  math.Abs(pred - sim),
			}
			res.Points = append(res.Points, pt)
			errSum += pt.AbsError
			errN++
			tb.AddRow(name, wordsCap, pt.Predicted, pt.Simulated, pt.AbsError)
		}
	}
	if errN > 0 {
		res.MeanAbsError = errSum / float64(errN)
	}
	tb.AddRow("mean abs err", "", "", "", res.MeanAbsError)
	if err := tb.WriteText(o.out()); err != nil {
		return nil, err
	}
	return res, nil
}
