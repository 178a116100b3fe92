package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/exact"
	"repro/internal/mem"
	"repro/internal/mrc"
	"repro/internal/trace"
)

// EngineBenchRow is one measured configuration of the simulation engine.
type EngineBenchRow struct {
	Name        string  `json:"name"`
	Accesses    uint64  `json:"accesses"`
	Seconds     float64 `json:"seconds"`
	AccessesSec float64 `json:"accesses_per_sec"`
	// SpeedupVsRef is this row's throughput over its reference row
	// (0 when the row has no reference counterpart).
	SpeedupVsRef float64 `json:"speedup_vs_ref,omitempty"`
	// VsBaseline is this row's throughput over the same-named row of
	// the attached baseline record (0 when no baseline row matches).
	VsBaseline float64 `json:"vs_baseline,omitempty"`
	// GoMaxProcs tags rows from the multicore sweep (MULTICORE) with
	// the GOMAXPROCS they ran under; 0 marks the default single-setting
	// rows, whose record-level GoMaxProcs applies. Tagged row names
	// carry a matching "/gmp=N" suffix so name-based comparisons stay
	// apples-to-apples.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	// Paced marks rows whose trace reader was deliberately slowed to
	// the oracle's own measurement rate, modelling acquisition-bound
	// input (a socket, a slow disk): these rows demonstrate pipeline
	// overlap of acquisition with measurement, NOT CPU-parallel
	// speedup, and must never be compared against unpaced rows.
	Paced bool `json:"paced,omitempty"`
	// Reps, MinAccessesSec, MaxAccessesSec and Spread record
	// measurement variance when the row was repeated: Seconds and
	// AccessesSec are the median rep, Spread is (max-min)/median
	// throughput — the row's own noise band, which regression gates
	// must stay outside of before declaring a change real.
	Reps           int     `json:"reps,omitempty"`
	MinAccessesSec float64 `json:"min_accesses_per_sec,omitempty"`
	MaxAccessesSec float64 `json:"max_accesses_per_sec,omitempty"`
	Spread         float64 `json:"spread,omitempty"`
}

// EngineBenchResult is the machine-readable engine performance record
// emitted as BENCH_engine.json for the perf trajectory: batched vs
// reference execution, and parallel vs sequential exact oracle.
// Baseline, when present, carries the same rows measured at the commit
// before a performance change.
type EngineBenchResult struct {
	Timestamp  string           `json:"timestamp"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Accesses   uint64           `json:"accesses"`
	Period     uint64           `json:"period"`
	Rows       []EngineBenchRow `json:"rows"`
	Baseline   []EngineBenchRow `json:"baseline,omitempty"`
}

// AttachBaseline records base's rows as the pre-change baseline and
// fills each current row's VsBaseline from the baseline row with the
// same name.
func (r *EngineBenchResult) AttachBaseline(base *EngineBenchResult) {
	if base == nil {
		return
	}
	r.Baseline = base.Rows
	for i := range r.Rows {
		for _, b := range base.Rows {
			if b.Name == r.Rows[i].Name {
				if b.AccessesSec > 0 {
					r.Rows[i].VsBaseline = r.Rows[i].AccessesSec / b.AccessesSec
				}
				break
			}
		}
	}
}

// ReadEngineBench loads a previously written BENCH_engine.json record.
func ReadEngineBench(path string) (*EngineBenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r EngineBenchResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &r, nil
}

// engineBenchStream is the default synthetic workload for engine
// throughput: a cyclic sweep over a small working set, so watchpoints
// resolve quickly and the engine spends most of its time in the
// skip-ahead path — the regime the featherlight design targets.
func engineBenchStream(n uint64) trace.Reader {
	return trace.Cyclic(0, 1<<10, n)
}

// rowFromSecs builds a row from per-rep wall times: the median rep is
// the headline number, min/max/spread record the observed noise band.
func rowFromSecs(name string, n uint64, secs []float64) EngineBenchRow {
	sorted := append([]float64(nil), secs...)
	sort.Float64s(sorted)
	med := sorted[len(sorted)/2]
	row := EngineBenchRow{Name: name, Accesses: n, Seconds: med}
	if med > 0 {
		row.AccessesSec = float64(n) / med
	}
	if len(sorted) > 1 {
		row.Reps = len(sorted)
		row.MinAccessesSec = float64(n) / sorted[len(sorted)-1]
		row.MaxAccessesSec = float64(n) / sorted[0]
		if row.AccessesSec > 0 {
			row.Spread = (row.MaxAccessesSec - row.MinAccessesSec) / row.AccessesSec
		}
	}
	return row
}

// timeRun measures f reps times and returns the median as the row,
// with min/max/spread recording the observed noise band. f must be
// self-contained (build its own state each call) so every rep measures
// the same work.
func timeRun(name string, n uint64, reps int, f func() error) (EngineBenchRow, error) {
	if reps < 1 {
		reps = 1
	}
	secs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return EngineBenchRow{}, fmt.Errorf("%s: %w", name, err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return rowFromSecs(name, n, secs), nil
}

// timeRunPaired measures two variants with their reps interleaved
// (a, b, a, b, ...) instead of back to back. On a shared machine the
// available CPU drifts over seconds; interleaving exposes both
// variants to the same drift, so their ratio — which is what paired
// rows exist to report — reflects the code, not when each happened to
// run.
func timeRunPaired(nameA, nameB string, n uint64, reps int, fa, fb func() error) (EngineBenchRow, EngineBenchRow, error) {
	if reps < 1 {
		reps = 1
	}
	var none EngineBenchRow
	secsA := make([]float64, 0, reps)
	secsB := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fa(); err != nil {
			return none, none, fmt.Errorf("%s: %w", nameA, err)
		}
		secsA = append(secsA, time.Since(start).Seconds())
		start = time.Now()
		if err := fb(); err != nil {
			return none, none, fmt.Errorf("%s: %w", nameB, err)
		}
		secsB = append(secsB, time.Since(start).Seconds())
	}
	return rowFromSecs(nameA, n, secsA), rowFromSecs(nameB, n, secsB), nil
}

// RunEngineBench measures the simulation engine's throughput: the
// batched Machine.Run fast path vs the retained per-access reference
// loop (both under a default-config RDX profiler), and the sharded
// parallel exact oracle vs sequential Olken.
func (o Options) RunEngineBench() (*EngineBenchResult, error) {
	n := o.Accesses
	res := &EngineBenchResult{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Accesses:   n,
		Period:     o.Period,
	}
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = o.Period
	cfg.Seed = o.Seed

	runProfiled := func(name string, ref bool) (EngineBenchRow, error) {
		// A fresh profiler per rep: the profiler is single-run state, and
		// its construction cost is noise against n accesses.
		return timeRun(name, n, o.reps(), func() error {
			p, err := core.NewProfiler(cfg)
			if err != nil {
				return err
			}
			if ref {
				// The per-access reference loop, the engine's executable
				// spec, run on the profiler's wired machine.
				if err := p.NewMachine(cpumodel.Default()).RunReference(engineBenchStream(n)); err != nil {
					return err
				}
				p.Result()
				return nil
			}
			_, err = p.Run(context.Background(), engineBenchStream(n), cpumodel.Default(), 0, nil)
			return err
		})
	}

	fast, err := runProfiled("machine-run-batched", false)
	if err != nil {
		return nil, err
	}
	ref, err := runProfiled("machine-run-reference", true)
	if err != nil {
		return nil, err
	}
	if ref.AccessesSec > 0 {
		fast.SpeedupVsRef = fast.AccessesSec / ref.AccessesSec
	}

	// The exact oracle works per distinct block; a Zipf stream gives it
	// a realistic skewed footprint.
	oracleStream := func() trace.Reader { return trace.ZipfAccess(o.Seed, 0, 1<<16, 1.0, n) }
	seq, err := timeRun("exact-oracle-sequential", n, o.reps(), func() error {
		_, err := exact.Measure(oracleStream(), mem.WordGranularity)
		return err
	})
	if err != nil {
		return nil, err
	}
	par, err := timeRun("exact-oracle-parallel", n, o.reps(), func() error {
		_, err := exact.MeasureParallel(oracleStream(), mem.WordGranularity, exact.ParallelOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	if seq.AccessesSec > 0 {
		par.SpeedupVsRef = par.AccessesSec / seq.AccessesSec
	}

	// Curve-construction throughput: how fast the analysis layer turns a
	// measured reuse-distance histogram into a full miss-ratio curve.
	// The row's unit is curve constructions, not accesses.
	mrcRow, err := o.runMRCBench()
	if err != nil {
		return nil, err
	}

	res.Rows = []EngineBenchRow{fast, ref, seq, par, mrcRow}
	for _, r := range res.Rows {
		fmt.Fprintf(o.out(), "%-26s %12d accesses  %8.3fs  %14.0f accesses/sec  %s\n",
			r.Name, r.Accesses, r.Seconds, r.AccessesSec, speedupNote(r))
	}
	return res, nil
}

// runMRCBench times miss-ratio-curve construction from a profiled
// reuse-distance histogram. Counted in curves built, not accesses: the
// histogram is log-bucketed, so construction cost is independent of the
// profile's length — this row guards the analysis layer's constant.
func (o Options) runMRCBench() (EngineBenchRow, error) {
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = o.Period
	cfg.Seed = o.Seed
	p, err := core.NewProfiler(cfg)
	if err != nil {
		return EngineBenchRow{}, err
	}
	n := min(o.Accesses, 4<<20)
	res, err := p.Run(context.Background(), trace.ZipfAccess(o.Seed, 0, 1<<16, 1.0, n), cpumodel.Default(), 0, nil)
	if err != nil {
		return EngineBenchRow{}, err
	}
	const curves = 5000
	sweep := mrc.Sweep{}
	return timeRun("mrc-curve-construction", curves, o.reps(), func() error {
		for range curves {
			mrc.FromHistogram(res.ReuseDistance, res.Config.Granularity.BlockSize(), sweep)
		}
		return nil
	})
}

func speedupNote(r EngineBenchRow) string {
	if r.SpeedupVsRef == 0 {
		return ""
	}
	return fmt.Sprintf("(%.2fx)", r.SpeedupVsRef)
}

// WriteJSON writes the benchmark record to path.
func (r *EngineBenchResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
