package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/stats"
	"repro/internal/trace"
)

// mergeTestResults builds a heterogeneous set of thread results whose
// histogram and attribution weights are genuinely non-integer floats
// (censoring redistribution, weight scaling), the case where naive
// float64 summation is order-dependent in the last ulp.
func mergeTestResults(t *testing.T, n int) []*Result {
	t.Helper()
	cfg := testConfig(300)
	streams := []trace.Reader{
		trace.ZipfAccess(50, 0, 2048, 1.0, uint64(n)),
		trace.Cyclic(1<<40, 700, uint64(n)),
		trace.ZipfAccess(51, 2<<40, 4096, 1.2, uint64(n)),
		trace.Sequential(3<<40, uint64(n), 8),
		trace.PointerChase(7, 4<<40, 900, uint64(n)),
		trace.ZipfAccess(52, 5<<40, 1024, 0.8, uint64(n/2)),
		trace.Cyclic(6<<40, 90, uint64(n/3)),
		trace.RandomUniform(9, 7<<40, 3000, uint64(n)),
	}
	results := make([]*Result, len(streams))
	for i, s := range streams {
		p, err := NewProfiler(ThreadConfig(cfg, i))
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Run(context.Background(), s, cpumodel.Default(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}
	return results
}

// sameAggregates asserts two MultiResults carry byte-identical merged
// aggregates (histograms compared down to float64 bit patterns via
// snapshots, attribution via DeepEqual, plus the integer counters).
// Threads order is deliberately not part of this check — it reflects
// Add order by contract.
func sameAggregates(t *testing.T, label string, got, want *MultiResult) {
	t.Helper()
	if !reflect.DeepEqual(got.ReuseDistance.Snapshot(), want.ReuseDistance.Snapshot()) {
		t.Errorf("%s: reuse-distance histograms differ", label)
	}
	if !reflect.DeepEqual(got.ReuseTime.Snapshot(), want.ReuseTime.Snapshot()) {
		t.Errorf("%s: reuse-time histograms differ", label)
	}
	if !reflect.DeepEqual(got.Attribution, want.Attribution) {
		t.Errorf("%s: attributions differ", label)
	}
	if got.Accesses != want.Accesses || got.Samples != want.Samples || got.ReusePairs != want.ReusePairs {
		t.Errorf("%s: counters differ", label)
	}
	if math.Float64bits(got.TimeOverhead()) != math.Float64bits(want.TimeOverhead()) {
		t.Errorf("%s: time overheads differ", label)
	}
}

// TestMergerAddOrderIndependent is the prerequisite evidence for the
// parallel merge tree: feeding the same results to Merger.Add in
// shuffled orders must produce byte-identical merged aggregates. With
// plain float64 accumulation this fails in the last ulp for weights
// like these; the exact-sum accumulator makes addition associative and
// commutative, so every order rounds to the same bits.
func TestMergerAddOrderIndependent(t *testing.T) {
	results := mergeTestResults(t, 60000)
	want := MergeResults(results)

	rng := stats.NewRNG(424242)
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	for trial := 0; trial < 20; trial++ {
		for i := len(order) - 1; i > 0; i-- {
			j := int(rng.Uint64n(uint64(i + 1)))
			order[i], order[j] = order[j], order[i]
		}
		g := NewMerger()
		for _, idx := range order {
			g.Add(results[idx])
		}
		got := g.Result()
		sameAggregates(t, "shuffled add order", got, want)
		// Threads must still be retained, just in the shuffled order.
		for k, idx := range order {
			if got.Threads[k] != results[idx] {
				t.Fatalf("trial %d: Threads[%d] not the added result", trial, k)
			}
		}
	}
}

// TestMergerTreeShapesIdentical checks Merger.Merge against the
// sequential fold for arbitrary tree shapes: random binary trees over
// the same leaves must all produce byte-identical aggregates, and
// left-to-right trees identical Threads order too.
func TestMergerTreeShapesIdentical(t *testing.T) {
	results := mergeTestResults(t, 60000)
	want := MergeResults(results)

	rng := stats.NewRNG(7)
	for trial := 0; trial < 10; trial++ {
		// One merger per leaf, then combine random adjacent pairs until
		// one remains: a random-shaped, order-preserving reduction tree.
		mergers := make([]*Merger, len(results))
		for i, r := range results {
			mergers[i] = NewMerger()
			mergers[i].Add(r)
		}
		for len(mergers) > 1 {
			i := int(rng.Uint64n(uint64(len(mergers) - 1)))
			mergers[i].Merge(mergers[i+1])
			mergers = append(mergers[:i+1], mergers[i+2:]...)
		}
		got := mergers[0].Result()
		sameAggregates(t, "random merge tree", got, want)
		for i := range want.Threads {
			if got.Threads[i] != want.Threads[i] {
				t.Fatal("adjacent-pair merge tree must preserve Threads order")
			}
		}
	}
}

// TestMergeResultsParallelBitIdentical proves the parallel tree
// reduction is invisible: for every worker count it returns the same
// bytes as the sequential fold, Threads order included.
func TestMergeResultsParallelBitIdentical(t *testing.T) {
	results := mergeTestResults(t, 60000)
	want := MergeResults(results)
	for _, workers := range []int{1, 2, 3, 4, 8, 16} {
		got := MergeResultsParallel(results, workers)
		sameAggregates(t, "parallel merge", got, want)
		if len(got.Threads) != len(want.Threads) {
			t.Fatalf("workers=%d: %d threads, want %d", workers, len(got.Threads), len(want.Threads))
		}
		for i := range want.Threads {
			if got.Threads[i] != want.Threads[i] {
				t.Fatalf("workers=%d: Threads order changed", workers)
			}
		}
	}
}
