package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cpumodel"
	"repro/internal/trace"
)

// runReference profiles r on the per-access reference loop
// (cpu.Machine.RunReference) of p's wired machine.
func runReference(p *Profiler, r trace.Reader) (*Result, error) {
	if err := p.NewMachine(cpumodel.Default()).RunReference(r); err != nil {
		return nil, err
	}
	return p.Result(), nil
}

// TestBatchedPathBitExact is the engine's contract test: for every
// replacement policy, several seeds and several workload shapes, the
// stream driver (Profiler.Run on the batched engine) and the retained
// per-access reference path (Machine.RunReference) must produce
// byte-identical Results — histograms, counters, attribution, footprint
// model and cycle account.
func TestBatchedPathBitExact(t *testing.T) {
	const n = 150000
	policies := []ReplacementPolicy{
		ReplaceProbabilistic, ReplaceReservoir, ReplaceAlways, ReplaceNever, ReplaceHybrid,
	}
	streams := map[string]func(seed uint64) trace.Reader{
		"zipf":    func(seed uint64) trace.Reader { return trace.ZipfAccess(seed, 0, 4000, 1.0, n) },
		"cyclic":  func(seed uint64) trace.Reader { return trace.Cyclic(0, 900, n) },
		"pointer": func(seed uint64) trace.Reader { return trace.PointerChase(seed, 0, 2500, n) },
	}
	for _, pol := range policies {
		for seed := uint64(1); seed <= 3; seed++ {
			for name, mk := range streams {
				t.Run(fmt.Sprintf("%v/seed=%d/%s", pol, seed, name), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.SamplePeriod = 700 // dense sampling: many samples, traps, evictions
					cfg.Replacement = pol
					cfg.Seed = seed
					cfg.Skid = int(seed - 1) // exercise skid 0..2

					pFast, err := NewProfiler(cfg)
					if err != nil {
						t.Fatal(err)
					}
					fast, err := pFast.Run(context.Background(), mk(seed), cpumodel.Default(), 0, nil)
					if err != nil {
						t.Fatal(err)
					}

					pRef, err := NewProfiler(cfg)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := runReference(pRef, mk(seed))
					if err != nil {
						t.Fatal(err)
					}

					if fast.Samples == 0 && cfg.Replacement != ReplaceNever {
						t.Fatal("degenerate run: no samples delivered")
					}
					if !reflect.DeepEqual(fast, ref) {
						t.Errorf("results diverge")
						if !reflect.DeepEqual(fast.ReuseDistance, ref.ReuseDistance) {
							t.Errorf("ReuseDistance histograms differ")
						}
						if !reflect.DeepEqual(fast.ReuseTime, ref.ReuseTime) {
							t.Errorf("ReuseTime histograms differ")
						}
						if !reflect.DeepEqual(fast.Attribution, ref.Attribution) {
							t.Errorf("Attribution differs")
						}
						if !reflect.DeepEqual(fast.Account, ref.Account) {
							t.Errorf("Account differs: fast=%+v ref=%+v", fast.Account, ref.Account)
						}
						t.Errorf("counters: fast={samples:%d traps:%d pairs:%d dropped:%d evicted:%d state:%d} ref={samples:%d traps:%d pairs:%d dropped:%d evicted:%d state:%d}",
							fast.Samples, fast.Traps, fast.ReusePairs, fast.Dropped, fast.Evicted, fast.StateBytes,
							ref.Samples, ref.Traps, ref.ReusePairs, ref.Dropped, ref.Evicted, ref.StateBytes)
					}
				})
			}
		}
	}
}

// TestBatchedPathBitExactFeatherlight repeats the contract at the
// paper's sparse 64K operating point, where the engine spends almost all
// its time in the bulk skip-ahead path.
func TestBatchedPathBitExactFeatherlight(t *testing.T) {
	const n = 2 << 20
	cfg := DefaultConfig() // 64K randomized period
	mk := func() trace.Reader { return trace.ZipfAccess(5, 0, 1<<16, 1.0, n) }

	pFast, err := NewProfiler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := pFast.Run(context.Background(), mk(), cpumodel.Default(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	pRef, err := NewProfiler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runReference(pRef, mk())
	if err != nil {
		t.Fatal(err)
	}
	if fast.Samples == 0 {
		t.Fatal("no samples at featherlight period")
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Fatalf("featherlight results diverge: fast samples=%d traps=%d, ref samples=%d traps=%d",
			fast.Samples, fast.Traps, ref.Samples, ref.Traps)
	}
}
