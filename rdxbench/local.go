package main

import (
	"context"
	"fmt"
	"io"
	"time"

	rdx "repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/mem"
	"repro/internal/mrc"
)

// stallReader hands a pre-materialised stream to the in-process engine
// and times, from outside, how long the engine holds each batch: the
// gap between one Read returning and the next starting is the engine
// executing the batch it was given — the stall a profiled program sees.
type stallReader struct {
	r     rdx.Reader
	last  time.Time
	gaps  samples
	first time.Time // first Read
	eof   time.Time // Read that reported the end of the stream
}

// newStallReader wraps r, a stream of n accesses, with room for every
// gap it will record.
func newStallReader(r rdx.Reader, n int) *stallReader {
	return &stallReader{r: r, gaps: make(samples, 0, n/batchLen+2)}
}

func (s *stallReader) Read(dst []mem.Access) (int, error) {
	now := time.Now()
	if s.last.IsZero() {
		s.first = now
	} else {
		s.gaps.add(s.last, now)
	}
	n, err := s.r.Read(dst)
	s.last = time.Now()
	if err == io.EOF {
		s.eof = s.last
	}
	return n, err
}

// threadNames are the profile-threads streams: mcf (pointer chasing,
// long-armed watchpoints) and lbm (streaming).
var threadNames = []string{"mcf", "lbm"}

const (
	threadLen = 1 << 21
	// threadSeeds is how many sampling seeds the rounds cycle through,
	// so the modelled overhead a run reports is a mean over the
	// sampler's randomness rather than one draw of it.
	threadSeeds = 8
)

// threads is profile-threads: rdx.New(WithWorkers(2)).ProfileThreads
// over two suite streams under DefaultConfig, then a miss-ratio curve
// and a hierarchy prediction on the merged result.
type threads struct {
	seed    uint64
	g       genClock
	streams []*stream
	refs    [][32]byte // per sampling seed
	rounds  int
}

// config is DefaultConfig with sampling seed k of the run.
func (w *threads) config(k int) rdx.Config {
	cfg := rdx.DefaultConfig()
	cfg.Seed = w.seed*threadSeeds + uint64(k)
	return cfg
}

func (w *threads) gen() *genClock { return &w.g }

// setup materialises the streams and profiles them once with one
// worker: the differently scheduled reference every measured round must
// equal.
func (w *threads) setup(ctx context.Context) error {
	for _, name := range threadNames {
		r, err := rdx.Workload(name, w.seed, threadLen)
		if err != nil {
			return err
		}
		s, err := w.g.materialise(name, threadLen, r)
		if err != nil {
			return err
		}
		w.streams = append(w.streams, s)
	}
	w.refs = nil
	for k := 0; k < threadSeeds; k++ {
		ref, err := rdx.New(rdx.WithConfig(w.config(k)), rdx.WithWorkers(1)).ProfileThreads(ctx, w.readers(nil))
		if err != nil {
			return fmt.Errorf("reference profile: %w", err)
		}
		d, err := multiDigest(ref)
		if err != nil {
			return err
		}
		w.refs = append(w.refs, d)
	}
	// Warm-up round, checked like the measured ones.
	warm := &runStats{}
	w.round(ctx, warm, nil)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up round failed: %v", warm.failures)
	}
	return nil
}

func (w *threads) teardown() error {
	w.streams = nil
	return nil
}

func (w *threads) readers(wrap []*stallReader) []rdx.Reader {
	rs := make([]rdx.Reader, len(w.streams))
	for i, s := range w.streams {
		rs[i] = s.reader()
		if wrap != nil {
			wrap[i] = newStallReader(rs[i], len(s.accs))
			rs[i] = wrap[i]
		}
	}
	return rs
}

// measure runs rounds until d of measured time has passed. Each round
// starts from a collected heap, and the collection is not timed.
func (w *threads) measure(ctx context.Context, d time.Duration, tr *Tracer) (*runStats, error) {
	heap := startHeapPeak()
	st := &runStats{go0: readGoStats(), start: time.Now(), windows: windows}
	for st.elapsed < d {
		part := timed(st, heap, func(p *runStats) { w.round(ctx, p, tr) })
		// The operation timeline excludes the untimed collections.
		st.ops = append(st.ops, opDone{st.start.Add(st.elapsed), part.accesses})
	}
	st.cpu = st.cpuSelf
	st.go1 = readGoStats()
	st.memMiB = heap.finish()
	return st, nil
}

// timed runs one unit of in-process work — a round, or one verified
// stream — from a collected heap, times it, and folds it into st. The
// unit records into its own stats, merged after the heap peak is taken,
// so the benchmark's growing sample arrays do not count as the
// profiler's memory.
func timed(st *runStats, heap *heapPeak, unit func(*runStats)) *runStats {
	part := &runStats{}
	heap.begin()
	cpu0, t0 := selfCPUTime(), time.Now()
	unit(part)
	elapsed, cpu := time.Since(t0), selfCPUTime()-cpu0
	heap.end()
	st.merge(part)
	st.elapsed += elapsed
	st.cpuSelf += cpu
	return part
}

// round profiles both streams as two threads, builds the merged
// result's miss-ratio curve and hierarchy prediction, and checks the
// merged result against the one-worker reference.
func (w *threads) round(ctx context.Context, st *runStats, tr *Tracer) {
	k := w.rounds % threadSeeds
	w.rounds++
	run := tr.NewRun()
	root := tr.Begin("round", 0, run)
	defer tr.End(root)
	wrap := make([]*stallReader, len(w.streams))
	pt := tr.Begin("profile_threads", root, run)
	m, err := rdx.New(rdx.WithConfig(w.config(k)), rdx.WithWorkers(2)).ProfileThreads(ctx, w.readers(wrap))
	end := time.Now()
	tr.End(pt)
	if err != nil {
		st.fail("profile threads: %v", err)
		return
	}
	var lastEOF time.Time
	for _, s := range wrap {
		st.batch = append(st.batch, s.gaps...)
		if s.eof.After(lastEOF) {
			lastEOF = s.eof
		}
		tr.Record("thread_run", pt, run, s.first, s.eof)
	}
	st.finish.add(lastEOF, end)

	block := m.Threads[0].Config.Granularity.BlockSize()
	sp := tr.Begin("curve", root, run)
	curve := mrc.FromHistogram(m.ReuseDistance, block, mrc.Sweep{})
	tr.End(sp)
	sp = tr.Begin("hierarchy", root, run)
	_, err = mrc.PredictLevels(m.ReuseDistance, cache.TypicalHierarchy(), block)
	tr.End(sp)
	if err != nil {
		st.fail("hierarchy prediction: %v", err)
		return
	}
	if len(curve.Points) == 0 {
		st.fail("empty miss-ratio curve")
		return
	}
	d, err := multiDigest(m)
	if err != nil {
		st.fail("%v", err)
		return
	}
	if d != w.refs[k] {
		st.fail("two-worker profile differs from the one-worker reference")
		return
	}
	st.ok()
	st.accesses += m.Accesses
	st.overheads = append(st.overheads, m.TimeOverhead())
}

// layers replays the round decomposed: each thread's profiler driven
// batch by batch, its result, the merge, the curve and the hierarchy,
// each under a span, and checks the merged replay against the
// reference.
func (w *threads) layers(plain, traced *runStats, tr *Tracer) (map[string]float64, Ledger, error) {
	run := tr.NewRun()
	root := tr.Begin("replay", 0, run)
	cfg := w.config(0)
	results := make([]*core.Result, len(w.streams))
	var accs uint64
	for i, s := range w.streams {
		p, err := core.NewProfiler(core.ThreadConfig(cfg, i))
		if err != nil {
			return nil, Ledger{}, err
		}
		m := p.NewMachine(cpumodel.Default())
		for off := 0; off < len(s.accs); off += batchLen {
			sp := tr.Begin("execute", root, run)
			m.Execute(s.accs[off:min(off+batchLen, len(s.accs))])
			tr.End(sp)
		}
		sp := tr.Begin("result", root, run)
		m.Finish()
		results[i] = p.Result()
		tr.End(sp)
		accs += uint64(len(s.accs))
	}
	sp := tr.Begin("merge", root, run)
	merged := core.MergeResultsParallel(results, 2)
	tr.End(sp)
	block := cfg.Granularity.BlockSize()
	sp = tr.Begin("curve", root, run)
	mrc.FromHistogram(merged.ReuseDistance, block, mrc.Sweep{})
	tr.End(sp)
	sp = tr.Begin("hierarchy", root, run)
	if _, err := mrc.PredictLevels(merged.ReuseDistance, cache.TypicalHierarchy(), block); err != nil {
		return nil, Ledger{}, err
	}
	tr.End(sp)
	tr.End(root)
	d, err := multiDigest(merged)
	if err != nil {
		return nil, Ledger{}, err
	}
	if d != w.refs[0] {
		return nil, Ledger{}, fmt.Errorf("decomposed replay differs from the reference profile")
	}

	st, err := stagesOf(tr, map[int]bool{run: true}, accs)
	if err != nil {
		return nil, Ledger{}, err
	}
	out := map[string]float64{
		"cpu.execute_ns_acc": st.perAcc("execute"),
		"core.result_ms":     st.mean("result", time.Millisecond),
		"core.merge_ms":      st.mean("merge", time.Millisecond),
		"mrc.curve_us":       st.mean("curve", time.Microsecond),
		"mrc.whatif_us":      st.mean("hierarchy", time.Microsecond),
	}
	addProfileCounts(out, results)
	led := st.ledger(plain.nsPerAcc(), [2]string{"execute", "execute"}, [2]string{"result", "result"},
		[2]string{"merge", "merge"}, [2]string{"curve", "curve"}, [2]string{"hierarchy", "hierarchy"})
	return out, led, nil
}

// addProfileCounts sets the sampling-engine counters from profiles.
func addProfileCounts(out map[string]float64, results []*core.Result) {
	var samples, armed, pairs, state uint64
	for _, r := range results {
		samples += r.Samples
		armed += r.ArmedSamples
		pairs += r.ReusePairs
		state += r.StateBytes
	}
	out["cpu.samples"] = float64(samples)
	out["cpu.armed_frac"] = ratio(armed, samples)
	out["cpu.pair_frac"] = ratio(pairs, armed)
	out["core.state_kib"] = float64(state) / float64(len(results)) / 1024
}
