package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly beyond a percentile
// before it is reported: a p99 needs at least 1000 samples, a p90 100,
// a median 20.
const minBeyond = 10

// sample is one timed operation: when it ended and how long it took.
type sample struct {
	at time.Time
	ms float64
}

// samples is one latency distribution.
type samples []sample

func (s *samples) add(start, end time.Time) {
	*s = append(*s, sample{end, float64(end.Sub(start)) / float64(time.Millisecond)})
}

func (s samples) values() []float64 {
	v := make([]float64, len(s))
	for i, x := range s {
		v[i] = x.ms
	}
	return v
}

// windowed splits s, in the order the operations ended, into k runs of
// equal count and returns the median over the runs of each run's
// p-quantile: a burst of interference in one part of the measurement
// moves one window's value, not the reported one.
func windowed(s samples, p float64, k int) (float64, error) {
	sorted := append(samples(nil), s...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].at.Before(sorted[j].at) })
	var per []float64
	for j := 0; j < k; j++ {
		v, err := percentile(sorted[j*len(sorted)/k:(j+1)*len(sorted)/k].values(), p)
		if err != nil {
			return 0, fmt.Errorf("window %d of %d: %w", j+1, k, err)
		}
		per = append(per, v)
	}
	return median(per), nil
}

// opDone is one completed unit of work: a session, a round or a
// verified stream.
type opDone struct {
	at       time.Time
	accesses uint64
}

// windowedThroughput splits the completed operations, in completion
// order, into k runs of equal count and returns the median over the
// runs of the accesses completed per second of each run, in M/s. Run j
// spans from the end of run j-1 (or start) to its last completion.
func windowedThroughput(start time.Time, ops []opDone, k int) float64 {
	return median(windowThroughputs(start, ops, k))
}

// windowThroughputs is each window's throughput, in M/s.
func windowThroughputs(start time.Time, ops []opDone, k int) []float64 {
	sorted := append([]opDone(nil), ops...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].at.Before(sorted[j].at) })
	var per []float64
	from := start
	for j := 0; j < k; j++ {
		chunk := sorted[j*len(sorted)/k : (j+1)*len(sorted)/k]
		if len(chunk) == 0 {
			return nil
		}
		var acc uint64
		for _, o := range chunk {
			acc += o.accesses
		}
		to := chunk[len(chunk)-1].at
		per = append(per, float64(acc)/to.Sub(from).Seconds()/1e6)
		from = to
	}
	return per
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of s, or an
// error when fewer than minBeyond samples lie beyond it.
func percentile(s []float64, p float64) (float64, error) {
	n := len(s)
	// The nearest rank, with a tolerance for p*n landing a rounding
	// error above a whole number (0.9*100 is 90.00000000000001).
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if beyond := n - rank; beyond < minBeyond || rank < 1 {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d",
			100*p, minBeyond, beyond, n)
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// quartiles returns the first quartile, median and third quartile of
// vs with the same exclusive method as Python's statistics.quantiles(n=4).
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's method="exclusive", in its exact integer form,
		// including the extrapolation its clamp allows for tiny n.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance of vs as a share of its median.
func spread(vs []float64) float64 {
	q1, med, q3 := quartiles(vs)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// median returns the middle value of vs (the mean of the middle two for
// an even count).
func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}
