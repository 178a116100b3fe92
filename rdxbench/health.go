package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// printHealth writes the human-readable account of a run: every metric
// with its unit, the sample count behind each percentile, the
// open-loop generator's lateness, failures, the workload-specific
// latencies and accuracy, the ledger of a traced run, and each metric's
// spread across the runs recorded in the history so far.
func printHealth(w io.Writer, name string, seed uint64, traced bool, rep *report, res result, out string) {
	p := rep.plain
	fmt.Fprintf(w, "== %s seed=%d traced=%v\n", name, seed, traced)
	fmt.Fprintf(w, "end to end (untraced, %.2fs measured, %d accesses):\n", p.elapsed.Seconds(), p.accesses)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-22s %14.6g %s\n", d.name, rep.e2e[d.name], d.unit)
	}
	if p.windows > 1 {
		fmt.Fprintf(w, "  throughput by window: %.4g Macc/s\n", windowThroughputs(p.start, p.ops, p.windows))
	}
	fmt.Fprintf(w, "samples: batch=%d finish=%d sync=%d whatif=%d open=%d (a percentile is reported only with %d samples beyond it)\n",
		len(p.batch), len(p.finish), len(p.sync), len(p.whatif), len(p.open), minBeyond)
	for _, q := range []struct {
		label string
		s     samples
	}{{"batch_ms", p.batch}, {"finish_ms", p.finish}, {"sync_ms", p.sync}, {"whatif_ms", p.whatif}} {
		if len(q.s) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-22s", q.label)
		for _, pc := range []float64{0.5, 0.9, 0.99} {
			v, err := p.quantile(q.s, pc)
			fmt.Fprintf(w, " p%g=%s", 100*pc, fmtPct(v, err))
		}
		fmt.Fprintf(w, " (n=%d)\n", len(q.s))
	}
	if len(p.accuracy) > 0 {
		fmt.Fprintf(w, "  %-22s %.4f mean over %d profiles\n", "accuracy", mean(p.accuracy), len(p.accuracy))
	}
	fmt.Fprintf(w, "  %-22s %.3f ms\n", "gen_late_ms_max", ms(p.genLate))
	fmt.Fprintf(w, "  %-22s %d of %d (%.4f)\n", "failed", p.failed, p.attempted, p.failedFrac())
	for _, f := range p.failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	if rep.traced != nil {
		for _, f := range rep.traced.failures {
			fmt.Fprintf(w, "  failure (traced run): %s\n", f)
		}
		fmt.Fprintf(w, "per layer (traced):\n")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-26s %14.6g %s\n", d.name, rep.layer[d.name], d.unit)
		}
		fmt.Fprintf(w, "ledger (processor ns per access):\n%s", rep.ledger)
	}
	for _, e := range rep.errs {
		fmt.Fprintf(w, "  invalid: %s\n", e)
	}
	metrics := map[string]float64{}
	for k, v := range res.Metrics {
		metrics[k] = v.Value
	}
	spreads, runs, err := recordHistory(filepath.Join(out, "history.jsonl"), historyEntry{name, traced, seed, metrics})
	if err != nil {
		fmt.Fprintf(w, "history: %v\n", err)
		return
	}
	if runs < 4 {
		fmt.Fprintf(w, "spread across runs: %d run(s) of %s recorded, need 4\n", runs, name)
		return
	}
	fmt.Fprintf(w, "spread across the %d recorded runs of %s (interquartile distance / median):\n", runs, name)
	for _, k := range sortedKeys(spreads) {
		fmt.Fprintf(w, "  %-26s %.4f\n", k, spreads[k])
	}
}

func fmtPct(v float64, err error) string {
	if err != nil {
		return "n/a"
	}
	return fmt.Sprintf("%.4g", v)
}

type historyEntry struct {
	Workload string             `json:"workload"`
	Traced   bool               `json:"traced"`
	Seed     uint64             `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
}

// recordHistory appends e to the history file and returns each
// metric's spread over every recorded run of the same workload and
// mode, with the number of those runs.
func recordHistory(path string, e historyEntry) (map[string]float64, int, error) {
	var all []historyEntry
	if f, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var h historyEntry
			if json.Unmarshal(sc.Bytes(), &h) == nil && h.Workload == e.Workload && h.Traced == e.Traced {
				all = append(all, h)
			}
		}
		f.Close()
	}
	all = append(all, e)
	line, err := json.Marshal(e)
	if err != nil {
		return nil, 0, err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, 0, err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return nil, 0, err
	}
	if err := f.Close(); err != nil {
		return nil, 0, err
	}
	vals := map[string][]float64{}
	for _, h := range all {
		for k, v := range h.Metrics {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, vs := range vals {
		out[k] = spread(vs)
	}
	return out, len(all), nil
}
