// Command rdxbench is the repository's benchmark: it runs one named
// workload against the program built from this checkout, checks that
// every output is correct, and prints the end-to-end metrics (untraced)
// or the per-layer metrics (traced) as one JSON line. See README.md.
//
// Run it through run.sh from the repository root, which builds rdxd
// and this command first:
//
//	bash rdxbench/run.sh --workload ingest-zipf --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of RDX sees, reported by every
// untraced run of every workload (see README.md for each workload's
// reading of them).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_macc_s", "Macc/s"},
	{"batch_ms_p50", "ms"},
	{"batch_ms_p90", "ms"},
	{"mem_peak_mib", "MiB"},
	{"time_overhead", "fraction"},
}

// perLayer are the metrics of single layers, reported by traced runs.
// A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"trace.gen_macc_s", "Macc/s"},
	{"trace.rows_to_cols_ns_acc", "ns/acc"},
	{"wire.encode_ns_acc", "ns/acc"},
	{"wire.decode_ns_acc", "ns/acc"},
	{"wire.bytes_acc", "B/acc"},
	{"wire.open_ms_p50", "ms"},
	{"wire.replayed_batches", "count"},
	{"client.batch_ms_p99", "ms"},
	{"client.finish_ms_p50", "ms"},
	{"client.sync_ms_p50", "ms"},
	{"client.sync_ms_p90", "ms"},
	{"client.whatif_ms_p50", "ms"},
	{"client.whatif_ms_p90", "ms"},
	{"server.peak_queue_depth", "count"},
	{"server.executor_steps", "count"},
	{"server.executor_steals", "count"},
	{"server.checkpoints", "count"},
	{"server.checkpoint_bytes", "bytes"},
	{"server.pool_hit_rate", "fraction"},
	{"server.shed_requests", "count"},
	{"server.dropped_batches", "count"},
	{"server.residual_ns_acc", "ns/acc"},
	{"cpu.execute_ns_acc", "ns/acc"},
	{"cpu.samples", "count"},
	{"cpu.armed_frac", "fraction"},
	{"cpu.pair_frac", "fraction"},
	{"core.checkpoint_us", "us"},
	{"core.result_ms", "ms"},
	{"core.restore_ms", "ms"},
	{"core.merge_ms", "ms"},
	{"core.state_kib", "KiB"},
	{"mrc.curve_us", "us"},
	{"mrc.whatif_us", "us"},
	{"exact.macc_s", "Macc/s"},
	{"exact.state_mib", "MiB"},
	{"exact.parallel_speedup", "x"},
	{"exact.accuracy", "fraction"},
	{"go.alloc_bytes_acc", "B/acc"},
	{"go.gc_cpu_frac", "fraction"},
	{"ledger.residual_frac", "fraction"},
	{"bench.trace_overhead", "fraction"},
	{"bench.gen_late_ms_max", "ms"},
	{"bench.failed_frac", "fraction"},
}

// workloadNames are the workloads, in the order README.md lists them.
var workloadNames = []string{"ingest-zipf", "ingest-strided-sync", "profile-threads", "verify"}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// windows is how many consecutive windows of a measurement the
// reported throughput and percentiles are medians over, for workloads
// with enough operations.
const windows = 10

// workload is one benchmark workload. setup builds its inputs,
// references and any daemon; measure runs it for a duration (traced
// when tr is non-nil); layers derives the per-layer metrics and the
// ledger, replaying stages in process where they cannot be reached
// from outside.
type workload interface {
	setup(ctx context.Context) error
	teardown() error
	measure(ctx context.Context, d time.Duration, tr *Tracer) (*runStats, error)
	layers(plain, traced *runStats, tr *Tracer) (map[string]float64, Ledger, error)
	gen() *genClock
}

func newWorkload(name string, seed uint64, rdxd string) (workload, error) {
	switch name {
	case "ingest-zipf":
		return newIngest(name, seed, rdxd, false), nil
	case "ingest-strided-sync":
		return newIngest(name, seed, rdxd, true), nil
	case "profile-threads":
		return &threads{seed: seed}, nil
	case "verify":
		return &verify{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Uint64("seed", 1, "workload seed; every input is generated from it")
		seconds = flag.Int("seconds", 10, "how long one measurement runs")
		traced  = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		rdxd    = flag.String("rdxd", "", "path of the rdxd binary built from this checkout")
		out     = flag.String("out", ".bench_build/rdxbench-out", "directory for spans and the run history")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *rdxd, *out); err != nil {
		fmt.Fprintln(os.Stderr, "rdxbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, rdxd, out string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	w, err := newWorkload(name, seed, rdxd)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	ctx := context.Background()
	dur := time.Duration(seconds) * time.Second

	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			w.teardown()
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := w.teardown(); err != nil {
				return fmt.Errorf("teardown: %w", err)
			}
		}
	}
	rep, err := measureAll(ctx, w, dur, traced, name, seed, out)
	if terr := w.teardown(); err == nil && terr != nil {
		err = fmt.Errorf("teardown: %w", terr)
	}
	if err != nil {
		return err
	}
	rep.e2e["setup_s"] = median(setups)

	res := result{
		Correct:   rep.plain.failed == 0 && rep.errs == nil,
		Attempted: rep.plain.attempted,
		Failed:    rep.plain.failed,
		Metrics:   map[string]metricValue{},
	}
	if rep.traced != nil {
		res.Correct = res.Correct && rep.traced.failed == 0
		res.Attempted += rep.traced.attempted
		res.Failed += rep.traced.failed
	}
	defs, vals := endToEnd, rep.e2e
	if traced {
		defs, vals = perLayer, rep.layer
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rep.errs = append(rep.errs, fmt.Sprintf("metric %s was not measured", d.name))
			res.Correct = false
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	printHealth(os.Stderr, name, seed, traced, rep, res, out)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or the run was invalid", name, res.Failed, res.Attempted)
	}
	return nil
}

// report is everything one run measured.
type report struct {
	plain, traced *runStats
	e2e, layer    map[string]float64
	ledger        Ledger
	errs          []string // reasons the run is invalid besides failed operations
}

func measureAll(ctx context.Context, w workload, dur time.Duration, traced bool, name string, seed uint64, out string) (*report, error) {
	rep := &report{layer: map[string]float64{}}
	plain, err := w.measure(ctx, dur, nil)
	if err != nil {
		return nil, err
	}
	rep.plain = plain
	rep.e2e, rep.errs = endToEndMetrics(plain)
	if !traced {
		return rep, nil
	}
	tr := newTracer()
	tstats, err := w.measure(ctx, dur, tr)
	if err != nil {
		return nil, err
	}
	rep.traced = tstats
	layer, ledger, err := w.layers(plain, tstats, tr)
	if err != nil {
		return nil, err
	}
	rep.ledger = ledger
	for k, v := range layer {
		rep.layer[k] = v
	}
	rep.layer["trace.gen_macc_s"] = w.gen().rate()
	rep.layer["ledger.residual_frac"] = ledger.ResidualFrac()
	if pt := plain.throughput(); pt > 0 {
		rep.layer["bench.trace_overhead"] = 1 - tstats.throughput()/pt
	}
	rep.layer["bench.gen_late_ms_max"] = ms(plain.genLate)
	rep.layer["bench.failed_frac"] = plain.failedFrac()
	rep.layer["go.alloc_bytes_acc"] = plain.allocPerAcc()
	rep.layer["go.gc_cpu_frac"] = plain.gcFrac()
	for _, q := range []struct {
		name string
		s    samples
		p    float64
	}{
		{"client.batch_ms_p99", plain.batch, 0.99},
		{"client.finish_ms_p50", plain.finish, 0.5},
		{"client.sync_ms_p50", plain.sync, 0.5}, {"client.sync_ms_p90", plain.sync, 0.9},
		{"client.whatif_ms_p50", plain.whatif, 0.5}, {"client.whatif_ms_p90", plain.whatif, 0.9},
	} {
		if len(q.s) == 0 {
			continue // the workload sends no such requests
		}
		v, err := plain.quantile(q.s, q.p)
		if err != nil {
			rep.errs = append(rep.errs, q.name+": "+err.Error())
		}
		rep.layer[q.name] = v
	}
	if len(plain.accuracy) > 0 {
		rep.layer["exact.accuracy"] = mean(plain.accuracy)
	}
	// A layer the workload does not exercise reports 0 (see README.md).
	for _, d := range perLayer {
		if _, ok := rep.layer[d.name]; !ok {
			rep.layer[d.name] = 0
		}
	}
	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := tr.WriteJSONL(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return rep, nil
}

// endToEndMetrics derives the end-to-end metrics of an untraced run,
// with the reasons any cannot be reported.
func endToEndMetrics(s *runStats) (map[string]float64, []string) {
	m := map[string]float64{
		"throughput_macc_s": s.throughput(),
		"mem_peak_mib":      s.memMiB,
		"time_overhead":     mean(s.overheads),
	}
	var errs []string
	for _, p := range []struct {
		name string
		s    samples
		q    float64
	}{{"batch_ms_p50", s.batch, 0.5}, {"batch_ms_p90", s.batch, 0.9}} {
		v, err := s.quantile(p.s, p.q)
		if err != nil {
			errs = append(errs, p.name+": "+err.Error())
			continue
		}
		m[p.name] = v
	}
	return m, errs
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedKeys lists a metric map's names in order.
func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
