package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// goStats is a reading of the benchmark process's Go runtime counters.
type goStats struct {
	allocBytes float64 // cumulative heap allocation
	gcCPU      float64 // cumulative GC processor seconds
}

var goStatNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{allocBytes: v(0), gcCPU: v(1)}
}

// heapPeak tracks the Go heap's peak above a baseline taken, after a
// collection, before each unit of work. Starting every unit from a
// collected heap makes the peak the memory the unit itself adds, rather
// than wherever the collector's pacing left the heap when it began.
type heapPeak struct {
	mu   sync.Mutex
	base uint64 // heap after the collection that began the current unit
	peak uint64 // highest heap seen since
	best uint64 // largest peak-base over the units so far
	stop chan struct{}
	done sync.WaitGroup
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func heapNow() uint64 {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapPeak starts sampling the heap every millisecond, to catch
// peaks that a collection inside a unit would otherwise hide.
func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.see(heapNow())
			}
		}
	}()
	return h
}

func (h *heapPeak) see(v uint64) {
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// begin collects garbage and takes the baseline for the next unit.
func (h *heapPeak) begin() {
	runtime.GC()
	v := heapNow()
	h.mu.Lock()
	h.base, h.peak = v, v
	h.mu.Unlock()
}

// end closes the current unit.
func (h *heapPeak) end() {
	h.see(heapNow())
	h.mu.Lock()
	if h.peak-h.base > h.best {
		h.best = h.peak - h.base
	}
	h.mu.Unlock()
}

// finish stops sampling and returns the largest per-unit peak, in MiB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.best) / (1 << 20)
}
