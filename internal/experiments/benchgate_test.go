package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchGateNoiseThreshold: the gate must pass against a committed
// record whose throughput is far above anything this machine can do
// ONLY by failing — and pass when the committed row is far below. The
// real check.sh invocation runs against the committed record.
func TestBenchGateNoiseThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("measures real throughput")
	}
	dir := t.TempDir()
	write := func(sec float64, spread float64) string {
		r := &EngineBenchResult{
			Accesses: 1 << 18, Period: 1 << 10,
			Rows: []EngineBenchRow{
				{Name: "machine-run-batched", Accesses: 1 << 18, AccessesSec: sec, Spread: spread},
				{Name: "exact-oracle-sequential", Accesses: 1 << 18, AccessesSec: sec, Spread: spread},
			},
		}
		path := filepath.Join(dir, "gate.json")
		if err := r.WriteJSON(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	o := Quick()
	o.Out = nil
	// Committed throughput of 1 access/sec: any real measurement clears
	// the floor.
	if err := o.RunBenchGate(write(1, 0)); err != nil {
		t.Errorf("gate failed against a trivially low committed row: %v", err)
	}
	// Committed throughput beyond any machine: the measured median sits
	// under the floor even with the 25% noise floor, so the gate fires.
	if err := o.RunBenchGate(write(1e15, 0)); err == nil {
		t.Error("gate passed against an unreachable committed row")
	}
	os.Remove(filepath.Join(dir, "gate.json"))
}

// TestBenchGateSeedsBaseline: a missing, empty or row-less trajectory
// file is a first run — the gate must measure and commit a baseline
// instead of erroring, and the gate must then pass against what it just
// committed.
func TestBenchGateSeedsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("measures real throughput")
	}
	o := Quick()
	o.Out = nil
	o.Reps = 1

	for name, prep := range map[string]func(path string){
		"missing": func(string) {},
		"empty": func(path string) {
			if err := os.WriteFile(path, []byte("\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"zero-rows": func(path string) {
			r := &EngineBenchResult{Accesses: 1 << 18, Period: 1 << 10}
			if err := r.WriteJSON(path); err != nil {
				t.Fatal(err)
			}
		},
	} {
		path := filepath.Join(t.TempDir(), "gate.json")
		prep(path)
		if err := o.RunBenchGate(path); err != nil {
			t.Fatalf("%s file: first gate run should seed, got %v", name, err)
		}
		base, err := ReadEngineBench(path)
		if err != nil {
			t.Fatalf("%s file: reading seeded record: %v", name, err)
		}
		if len(base.Rows) != len(benchGateRows) {
			t.Fatalf("%s file: seeded %d rows, want %d", name, len(base.Rows), len(benchGateRows))
		}
		for _, row := range base.Rows {
			if row.AccessesSec <= 0 {
				t.Errorf("%s file: seeded row %q has no throughput", name, row.Name)
			}
		}
		// Later runs gate against the seed. Comparing a fresh timing with
		// the seed as is would test the machine's noise, not the gate,
		// so rescale the seeded throughputs three orders of magnitude
		// either way (with no recorded spread): a seed 1000x slower than
		// this machine must pass, one 1000x faster must fail.
		rescale := func(f float64) {
			t.Helper()
			scaled := *base
			scaled.Rows = append([]EngineBenchRow(nil), base.Rows...)
			for i := range scaled.Rows {
				scaled.Rows[i].AccessesSec *= f
				scaled.Rows[i].Spread = 0
			}
			if err := scaled.WriteJSON(path); err != nil {
				t.Fatal(err)
			}
		}
		rescale(1e-3)
		if err := o.RunBenchGate(path); err != nil {
			t.Errorf("%s file: gate against a 1000x slower seed failed: %v", name, err)
		}
		rescale(1e3)
		if err := o.RunBenchGate(path); err == nil || !strings.Contains(err.Error(), "regressed") {
			t.Errorf("%s file: gate against a 1000x faster seed = %v, want a regression", name, err)
		}
	}

	// Garbage that is neither empty nor a record stays an error.
	path := filepath.Join(t.TempDir(), "gate.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := o.RunBenchGate(path); err == nil {
		t.Error("gate seeded over an unparseable record instead of erroring")
	}
}
