package workloads

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

func TestSuiteIsSortedAndNonEmpty(t *testing.T) {
	s := Suite()
	if len(s) < 10 {
		t.Fatalf("suite has %d workloads, want >= 10", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i-1].Name >= s[i].Name {
			t.Errorf("suite not sorted: %q >= %q", s[i-1].Name, s[i].Name)
		}
	}
	for _, w := range s {
		if w.Desc == "" || w.FootprintWords == 0 || w.New == nil {
			t.Errorf("workload %q incompletely specified", w.Name)
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("mcf")
	if err != nil || w.Name != "mcf" {
		t.Errorf("ByName(mcf) = %v, %v", w.Name, err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestBuildProducesRequestedCount holds Build to its contract of
// exactly n accesses for every workload, at sizes where the
// rounded-down component shares of the mixed workloads used to leave
// the stream one access short.
func TestBuildProducesRequestedCount(t *testing.T) {
	for _, name := range Names() {
		for _, want := range []uint64{1000, 65536, 2097155} {
			r, err := Build(name, 1, want)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			n, err := trace.Count(r)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if n != want {
				t.Errorf("%s produced %d accesses, want %d", name, n, want)
			}
		}
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := Build("nope", 1, 100); err == nil {
		t.Error("Build accepted unknown workload")
	}
}

func TestWorkloadsAreDeterministic(t *testing.T) {
	for _, name := range []string{"mcf", "gcc", "x264"} {
		a, err := Build(name, 7, 5000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(name, 7, 5000)
		if err != nil {
			t.Fatal(err)
		}
		accsA, _ := trace.Collect(a)
		accsB, _ := trace.Collect(b)
		if len(accsA) != len(accsB) {
			t.Fatalf("%s: lengths differ", name)
		}
		for i := range accsA {
			if accsA[i] != accsB[i] {
				t.Fatalf("%s: access %d differs: %v vs %v", name, i, accsA[i], accsB[i])
			}
		}
	}
}

func TestWorkloadRegionsDoNotAlias(t *testing.T) {
	// Each workload lives in its own 2^40 region; streams from two
	// different workloads must never share a block.
	seen := map[string]map[mem.Addr]bool{}
	for _, name := range []string{"lbm", "mcf", "deepsjeng"} {
		r, err := Build(name, 1, 5000)
		if err != nil {
			t.Fatal(err)
		}
		blocks := map[mem.Addr]bool{}
		if err := trace.ForEach(r, func(a mem.Access) bool {
			blocks[a.Addr>>40] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
		seen[name] = blocks
	}
	for a, ba := range seen {
		for b, bb := range seen {
			if a >= b {
				continue
			}
			for r := range ba {
				if bb[r] {
					t.Errorf("workloads %s and %s share region %d", a, b, r)
				}
			}
		}
	}
}

func TestWorkloadLocalitySpectrum(t *testing.T) {
	// The suite must span the locality spectrum: exchange2 (tiny working
	// set) reuses far more densely than lbm (streaming). Compare distinct
	// blocks touched in equal-length prefixes.
	distinct := func(name string) int {
		r, err := Build(name, 1, 50000)
		if err != nil {
			t.Fatal(err)
		}
		blocks := map[mem.Addr]bool{}
		if err := trace.ForEach(r, func(a mem.Access) bool {
			blocks[mem.WordGranularity.Block(a.Addr)] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return len(blocks)
	}
	small := distinct("exchange2")
	big := distinct("lbm")
	if small*10 > big {
		t.Errorf("locality spectrum too narrow: exchange2 %d blocks vs lbm %d", small, big)
	}
}
