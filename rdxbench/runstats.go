package main

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// runStats is what one measurement of a workload observed.
type runStats struct {
	mu sync.Mutex // guards everything below against concurrent sessions

	accesses uint64 // accesses profiled (and, for verify, verified)
	start    time.Time
	elapsed  time.Duration // wall time of the measurement
	ops      []opDone      // completed sessions or rounds
	windows  int           // how many windows the windowed statistics use
	cpu      time.Duration // processor time of every process doing the work

	batch  samples // how long the profiled program was held per batch
	finish samples // end of stream to final result
	sync   samples // durable-checkpoint ack round trips
	whatif samples // what-if queries, from their due times
	open   samples // session opens

	overheads []float64 // modelled time overhead of each profile
	accuracy  []float64 // accuracy of each profile against the exact oracle
	memMiB    float64   // peak memory of the profiling process

	attempted int
	failed    int
	failures  []string // the first few failures, for the log

	genLate time.Duration // how late the open-loop generator ran, at worst
	go0     goStats
	go1     goStats
	cpuSelf time.Duration // this process's share of cpu

	server map[string]float64 // rdxd /metrics deltas
}

// ok counts one operation that succeeded.
func (r *runStats) ok() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// fail counts one operation that errored, was refused or was wrong.
func (r *runStats) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// merge folds a concurrent worker's partial stats into r.
func (r *runStats) merge(o *runStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.accesses += o.accesses
	r.ops = append(r.ops, o.ops...)
	r.batch = append(r.batch, o.batch...)
	r.finish = append(r.finish, o.finish...)
	r.sync = append(r.sync, o.sync...)
	r.whatif = append(r.whatif, o.whatif...)
	r.open = append(r.open, o.open...)
	r.overheads = append(r.overheads, o.overheads...)
	r.accuracy = append(r.accuracy, o.accuracy...)
	r.attempted += o.attempted
	r.failed += o.failed
	for _, f := range o.failures {
		if len(r.failures) < 8 {
			r.failures = append(r.failures, f)
		}
	}
}

// throughput is the accesses completed per second, in M/s: the median
// over windows of the measurement when it has several.
func (r *runStats) throughput() float64 {
	if k := min(r.windows, len(r.ops)); k > 1 {
		return windowedThroughput(r.start, r.ops, k)
	}
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.accesses) / r.elapsed.Seconds() / 1e6
}

// quantile is the p-quantile of s: the median over windows of the
// measurement when it has several, using no more windows than leave
// each one enough samples for the quantile.
func (r *runStats) quantile(s samples, p float64) (float64, error) {
	need := int(math.Ceil(minBeyond/(1-p) - 1e-9))
	if k := min(r.windows, len(s)/need); k > 1 {
		return windowed(s, p, k)
	}
	return percentile(s.values(), p)
}

func (r *runStats) failedFrac() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// nsPerAcc is the processor time the run spent per access.
func (r *runStats) nsPerAcc() float64 {
	if r.accesses == 0 {
		return 0
	}
	return float64(r.cpu) / float64(r.accesses)
}

func (r *runStats) allocPerAcc() float64 {
	if r.accesses == 0 {
		return 0
	}
	return (r.go1.allocBytes - r.go0.allocBytes) / float64(r.accesses)
}

// gcFrac is the garbage collector's share of this process's processor
// time during the run.
func (r *runStats) gcFrac() float64 {
	if r.cpuSelf <= 0 {
		return 0
	}
	return (r.go1.gcCPU - r.go0.gcCPU) / r.cpuSelf.Seconds()
}
