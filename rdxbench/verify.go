package main

import (
	"context"
	"fmt"
	"time"

	rdx "repro"
	"repro/internal/core"
	"repro/internal/cpumodel"
)

// The verify workload: ground truth and RDX on a fixed subset of the
// suite spanning the locality spectrum — pointer chasing (mcf,
// omnetpp), streaming (lbm), a sliding window that RDX scores low on
// (xz) and a cache-resident hot loop (exchange2) — at the accuracy
// experiment's Accurate point: 4M accesses, 8K sampling period.
var verifyNames = []string{"mcf", "lbm", "xz", "omnetpp", "exchange2"}

const (
	verifyLen    = 4 << 20
	verifyPeriod = 8 << 10
	// verifySeeds is how many sampling seeds profile each stream: the
	// reported accuracy is a mean over the sampler's randomness, and
	// each run collects enough profiles for a median finish time.
	verifySeeds = 4
)

// verify regenerates each stream into one reusable buffer between the
// timed steps (five 4M-access streams would not otherwise fit in a
// small memory budget); only the exact measurement, the profiles and
// the accuracy comparisons are timed.
type verify struct {
	seed     uint64
	g        genClock
	buf      *stream
	exactRef map[string][32]byte   // first exact result seen per stream
	profRef  map[string][][32]byte // first profile seen per stream and sampling seed
	exactMax uint64                // largest exact StateBytes seen
	exactT   map[string]time.Duration
}

func (w *verify) gen() *genClock { return &w.g }

// setup maps the buffer and materialises the first stream.
func (w *verify) setup(ctx context.Context) error {
	w.buf = newStream("", verifyLen)
	w.exactRef = map[string][32]byte{}
	w.profRef = map[string][][32]byte{}
	w.exactT = map[string]time.Duration{}
	return w.load(verifyNames[0])
}

func (w *verify) teardown() error {
	w.buf = nil
	return nil
}

// load regenerates the named stream into the buffer unless it holds it.
func (w *verify) load(name string) error {
	if w.buf.name == name {
		return nil
	}
	r, err := rdx.Workload(name, w.seed, verifyLen)
	if err != nil {
		return err
	}
	return w.g.refill(w.buf, name, r)
}

func (w *verify) config(k int) rdx.Config {
	cfg := rdx.DefaultConfig()
	cfg.SamplePeriod = verifyPeriod
	cfg.Seed = w.seed*verifySeeds + uint64(k)
	return cfg
}

// measure verifies whole rounds over the five streams until the timed
// work reaches d. Throughput and processor time cover the timed steps
// only; regeneration between them is generation, not verification.
func (w *verify) measure(ctx context.Context, d time.Duration, tr *Tracer) (*runStats, error) {
	heap := startHeapPeak()
	st := &runStats{go0: readGoStats(), start: time.Now(), windows: 1}
	for st.elapsed < d {
		for _, name := range verifyNames {
			if err := w.load(name); err != nil {
				return nil, err
			}
			timed(st, heap, func(p *runStats) { w.verifyOne(ctx, name, p, tr) })
		}
	}
	st.cpu = st.cpuSelf
	st.go1 = readGoStats()
	st.memMiB = heap.finish()
	return st, nil
}

// verifyOne measures the buffer exactly, profiles it under each
// sampling seed, scores each profile against the exact result, and
// checks both against the first round's results for this stream.
func (w *verify) verifyOne(ctx context.Context, name string, st *runStats, tr *Tracer) {
	run := tr.NewRun()
	root := tr.Begin("verify", 0, run)
	defer tr.End(root)
	sp := tr.Begin("exact", root, run)
	t0 := time.Now()
	e, err := rdx.Exact(w.buf.reader(), rdx.WordGranularity)
	w.exactT[name] = time.Since(t0)
	tr.End(sp)
	if err == nil {
		err = checkExact(e, uint64(len(w.buf.accs)))
	}
	if err == nil {
		err = w.same(name, e)
	}
	if err != nil {
		st.fail("%s: %v", name, err)
		return
	}
	w.exactMax = max(w.exactMax, e.StateBytes)
	var accs []float64
	var ohs []float64
	for k := 0; k < verifySeeds; k++ {
		sr := newStallReader(w.buf.reader(), len(w.buf.accs))
		sp := tr.Begin("profile", root, run)
		res, err := rdx.New(rdx.WithConfig(w.config(k))).Profile(ctx, sr)
		end := time.Now()
		tr.End(sp)
		if err != nil {
			st.fail("%s: profile: %v", name, err)
			return
		}
		st.batch = append(st.batch, sr.gaps...)
		st.finish.add(sr.eof, end)
		if err := w.sameProfile(name, k, res); err != nil {
			st.fail("%s: %v", name, err)
			return
		}
		sp = tr.Begin("accuracy", root, run)
		a := rdx.Accuracy(res.ReuseDistance, e.ReuseDistance)
		tr.End(sp)
		if !(a > 0 && a <= 1) {
			st.fail("%s: accuracy %v outside (0, 1]", name, a)
			return
		}
		accs = append(accs, a)
		ohs = append(ohs, res.TimeOverhead())
	}
	st.ok()
	st.accesses += uint64(len(w.buf.accs))
	st.accuracy = append(st.accuracy, accs...)
	st.overheads = append(st.overheads, ohs...)
}

// same checks an exact result against the first one seen for the
// stream: the oracle is deterministic.
func (w *verify) same(name string, e *rdx.ExactResult) error {
	d, err := exactDigest(e)
	if err != nil {
		return err
	}
	if ref, ok := w.exactRef[name]; ok && ref != d {
		return fmt.Errorf("exact result differs from the previous round's")
	}
	w.exactRef[name] = d
	return nil
}

// sameProfile checks a profile against the first one seen for the
// stream and sampling seed: profiling is deterministic.
func (w *verify) sameProfile(name string, k int, res *rdx.Result) error {
	d, err := localDigest(res)
	if err != nil {
		return err
	}
	refs := w.profRef[name]
	if k < len(refs) {
		if refs[k] != d {
			return fmt.Errorf("profile under sampling seed %d differs from the previous round's", k)
		}
		return nil
	}
	w.profRef[name] = append(refs, d)
	return nil
}

// layers derives the exact, profile and accuracy stage times from the
// traced run's spans; then, per stream, drives one profile decomposed
// (execute, result) and measures it with the sharded oracle on two
// workers, which must match the sequential oracle bit for bit.
func (w *verify) layers(plain, traced *runStats, tr *Tracer) (map[string]float64, Ledger, error) {
	runs := map[int]bool{}
	for _, s := range tr.Spans() {
		if s.Name == "verify" {
			runs[s.Run] = true
		}
	}
	round, err := stagesOf(tr, runs, traced.accesses)
	if err != nil {
		return nil, Ledger{}, err
	}
	out := map[string]float64{
		"exact.state_mib": float64(w.exactMax) / (1 << 20),
	}
	if t := round.self["exact"]; t > 0 {
		out["exact.macc_s"] = float64(traced.accesses) / (float64(t) / 1e9) / 1e6
	}
	led := round.ledger(plain.nsPerAcc(),
		[2]string{"exact", "exact"}, [2]string{"profile", "profile"}, [2]string{"accuracy", "accuracy"})

	run := tr.NewRun()
	root := tr.Begin("replay", 0, run)
	var results []*core.Result
	var seq, par time.Duration
	var replayed uint64
	for _, name := range verifyNames {
		if err := w.load(name); err != nil {
			return nil, Ledger{}, err
		}
		p, err := core.NewProfiler(w.config(0))
		if err != nil {
			return nil, Ledger{}, err
		}
		m := p.NewMachine(cpumodel.Default())
		for off := 0; off < len(w.buf.accs); off += batchLen {
			sp := tr.Begin("execute", root, run)
			m.Execute(w.buf.accs[off:min(off+batchLen, len(w.buf.accs))])
			tr.End(sp)
		}
		sp := tr.Begin("result", root, run)
		m.Finish()
		res := p.Result()
		tr.End(sp)
		if err := w.sameProfile(name, 0, res); err != nil {
			return nil, Ledger{}, fmt.Errorf("%s: decomposed replay: %v", name, err)
		}
		results = append(results, res)
		replayed += uint64(len(w.buf.accs))

		sp = tr.Begin("exact_parallel", root, run)
		t0 := time.Now()
		e, err := rdx.ExactParallel(w.buf.reader(), rdx.WordGranularity, 2)
		par += time.Since(t0)
		tr.End(sp)
		if err != nil {
			return nil, Ledger{}, err
		}
		if err := w.same(name, e); err != nil {
			return nil, Ledger{}, fmt.Errorf("%s: sharded oracle: %v", name, err)
		}
		seq += w.exactT[name]
	}
	tr.End(root)
	replay, err := stagesOf(tr, map[int]bool{run: true}, replayed)
	if err != nil {
		return nil, Ledger{}, err
	}
	out["cpu.execute_ns_acc"] = replay.perAcc("execute")
	out["core.result_ms"] = replay.mean("result", time.Millisecond)
	out["exact.parallel_speedup"] = seq.Seconds() / par.Seconds()
	addProfileCounts(out, results)
	return out, led, nil
}
