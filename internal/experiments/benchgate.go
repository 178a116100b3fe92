package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/exact"
	"repro/internal/mem"
	"repro/internal/trace"
)

// EngineBenchRow is one measured gate row: the median of Reps timed
// runs of the same work.
type EngineBenchRow struct {
	Name        string  `json:"name"`
	Accesses    uint64  `json:"accesses"`
	Seconds     float64 `json:"seconds"`
	AccessesSec float64 `json:"accesses_per_sec"`
	// Reps, MinAccessesSec, MaxAccessesSec and Spread record
	// measurement variance when the row was repeated: Seconds and
	// AccessesSec are the median rep, Spread is (max-min)/median
	// throughput — the row's own noise band, which the gate must stay
	// outside of before declaring a change real.
	Reps           int     `json:"reps,omitempty"`
	MinAccessesSec float64 `json:"min_accesses_per_sec,omitempty"`
	MaxAccessesSec float64 `json:"max_accesses_per_sec,omitempty"`
	Spread         float64 `json:"spread,omitempty"`
}

// EngineBenchResult is the committed gate record, BENCH_engine.json:
// the operating point (accesses, period) and the gate rows measured
// there.
type EngineBenchResult struct {
	Timestamp  string           `json:"timestamp"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Accesses   uint64           `json:"accesses"`
	Period     uint64           `json:"period"`
	Rows       []EngineBenchRow `json:"rows"`
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

// WriteJSON writes the record to path.
func (r *EngineBenchResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// engineBenchStream is the engine gate's workload: a cyclic sweep over
// a small working set, so watchpoints resolve quickly and the engine
// spends most of its time in the skip-ahead path — the regime the
// featherlight design targets.
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

// benchGateRows are the rows RunBenchGate re-measures: the engine fast
// path and the sequential oracle — the two throughputs every other
// number in the trajectory is expressed against.
var benchGateRows = []string{"machine-run-batched", "exact-oracle-sequential"}

// benchGateFloorTolerance is the minimum relative slack the gate
// allows even when the committed row recorded a tight noise band:
// single-core CI boxes share their CPU with the rest of the system,
// and a gate that fires inside scheduler noise trains people to ignore
// it.
const benchGateFloorTolerance = 0.25

// gateMeasure builds the self-contained measurement closures for the
// gate rows at one operating point, shared by the gate check and the
// first-run baseline seed so both measure identical work.
func (o Options) gateMeasure(n uint64) map[string]func() error {
	cfg := core.DefaultConfig()
	cfg.SamplePeriod = o.Period
	cfg.Seed = o.Seed
	return map[string]func() error{
		"machine-run-batched": func() error {
			p, err := core.NewProfiler(cfg)
			if err != nil {
				return err
			}
			_, err = p.Run(context.Background(), engineBenchStream(n), cpumodel.Default(), 0, nil)
			return err
		},
		"exact-oracle-sequential": func() error {
			_, err := exact.Measure(trace.ZipfAccess(o.Seed, 0, 1<<16, 1.0, n), mem.WordGranularity)
			return err
		},
	}
}

// RunBenchGate is the scripts/check.sh throughput regression gate:
// re-measure the gate rows at the committed record's own operating
// point (accesses, period) and fail only when the fresh median falls
// below the committed throughput by more than the committed noise
// threshold — three times the row's recorded rep spread, floored at
// benchGateFloorTolerance. A drop inside that band is declared noise
// by construction, never a failure; the committed numbers themselves
// are only moved deliberately, by deleting the record and letting the
// next gate run re-seed it.
//
// A missing, empty or row-less trajectory file is the first run, not a
// failure: the gate measures the rows once and commits them to path as
// the baseline, so a fresh checkout (or a wiped record) self-seeds
// instead of erroring.
func (o Options) RunBenchGate(path string) error {
	base, err := ReadEngineBench(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return o.seedBenchGate(path)
	case err != nil:
		// A present-but-empty file (a `touch`ed placeholder) also means
		// "no baseline yet"; any other parse failure is a real error.
		if data, rerr := os.ReadFile(path); rerr == nil && len(bytes.TrimSpace(data)) == 0 {
			return o.seedBenchGate(path)
		}
		return err
	case len(base.Rows) == 0:
		return o.seedBenchGate(path)
	}
	// Measure at the committed operating point so throughputs compare
	// apples-to-apples regardless of the caller's -n.
	o.Accesses = base.Accesses
	o.Period = base.Period
	n := o.Accesses
	measure := o.gateMeasure(n)

	for _, name := range benchGateRows {
		var committed *EngineBenchRow
		for i := range base.Rows {
			if base.Rows[i].Name == name {
				committed = &base.Rows[i]
				break
			}
		}
		if committed == nil || committed.AccessesSec <= 0 {
			return fmt.Errorf("%s holds no %q row to gate against", path, name)
		}
		row, err := timeRun(name, n, o.Reps, measure[name])
		if err != nil {
			return err
		}
		tol := math.Max(3*committed.Spread, benchGateFloorTolerance)
		floor := committed.AccessesSec * (1 - tol)
		fmt.Fprintf(o.out(), "%-26s %14.0f accesses/sec measured, %14.0f committed (floor %14.0f, spread %.1f%%)\n",
			name, row.AccessesSec, committed.AccessesSec, floor, 100*committed.Spread)
		if row.AccessesSec < floor {
			return fmt.Errorf("%s regressed: %.0f accesses/sec measured < %.0f floor (committed %.0f, tolerance %.0f%%) in %s",
				name, row.AccessesSec, floor, committed.AccessesSec, 100*tol, path)
		}
	}
	return nil
}

// seedBenchGate measures the gate rows at the caller's operating point
// and commits them to path as the initial trajectory record.
func (o Options) seedBenchGate(path string) error {
	n := o.Accesses
	res := &EngineBenchResult{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Accesses:   n,
		Period:     o.Period,
	}
	measure := o.gateMeasure(n)
	for _, name := range benchGateRows {
		row, err := timeRun(name, n, o.Reps, measure[name])
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, row)
		fmt.Fprintf(o.out(), "%-26s %14.0f accesses/sec (seeding baseline)\n", name, row.AccessesSec)
	}
	if err := res.WriteJSON(path); err != nil {
		return err
	}
	fmt.Fprintf(o.out(), "no committed record at %s: seeded it from this run; future gates compare against it\n", path)
	return nil
}
