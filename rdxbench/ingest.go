package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	rdx "repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/mrc"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Ingest workload shape. Both ingest workloads stream sessions of about
// 1<<20 accesses in 4096-access batches, closed loop: a session sends
// its next batch when the previous write returns, as a profiled program
// stalls on rdxd backpressure.
const (
	sessionLen = 1 << 20
	batchLen   = trace.DefaultBatchSize
	// rdxdCheckpointEvery mirrors rdxd's default -checkpoint-every, so
	// the in-process replay checkpoints where the daemon does.
	rdxdCheckpointEvery = 64
	// syncEvery is wire.RetryPolicy's default SyncEvery, the strided
	// sessions' sync cadence.
	syncEvery = 32
	// whatIfRate is the open-loop query rate of ingest-strided-sync.
	whatIfRate = 25 // queries per second
	whatIfSpec = "l2.size=2x"
	// sessionSeeds is how many sampling seeds each stream's sessions
	// cycle through, so the modelled overhead a run reports is a mean
	// over the sampler's randomness rather than a few draws of it.
	sessionSeeds = 8
)

// ingest is ingest-zipf (two plain wire.Client sessions at a time) or,
// with withSync, ingest-strided-sync (one wire.ReconnectingClient
// session at a time plus an open-loop POST /whatif stream).
type ingest struct {
	name     string
	seed     uint64
	rdxd     string
	withSync bool
	clients  int
	perCli   int // distinct streams each client cycles through

	g       genClock
	d       *daemon
	streams []*stream
	refs    [][][32]byte // per stream, per sampling seed
}

func newIngest(name string, seed uint64, rdxd string, withSync bool) *ingest {
	w := &ingest{name: name, seed: seed, rdxd: rdxd, withSync: withSync, clients: 2, perCli: 2}
	if withSync {
		w.clients, w.perCli = 1, 2
	}
	return w
}

func (w *ingest) gen() *genClock { return &w.g }

// config is the profiler configuration of stream i's sessions under
// sampling seed j: DefaultConfig with a sampling seed drawn from the
// run's seed, so the profiles, like the streams, differ from seed to
// seed.
func (w *ingest) config(i, j int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = (w.seed*8+uint64(i))*sessionSeeds + uint64(j)
	return cfg
}

// streamLen is the length of session stream i. The lengths differ, so
// concurrent clients' sessions drift through every relative phase
// within a run instead of locking into whichever alignment the run
// happened to start in.
func streamLen(i int) int { return sessionLen + i%4*sessionLen/8 }

func (w *ingest) reader(i int) trace.Reader {
	if w.withSync {
		return stridedReader(w.seed, i, streamLen(i))
	}
	return zipfReader(w.seed, i, streamLen(i))
}

// setup materialises every session stream, profiles each in process
// (rdx.New().Profile under the stream's configuration) as the reference
// its remote profile must match bit for bit, starts rdxd and warms it
// with one checked session per client.
func (w *ingest) setup(ctx context.Context) error {
	if w.rdxd == "" {
		return fmt.Errorf("%s needs -rdxd", w.name)
	}
	for i := 0; i < w.clients*w.perCli; i++ {
		s, err := w.g.materialise(fmt.Sprintf("%s#%d", w.name, i), streamLen(i), w.reader(i))
		if err != nil {
			return err
		}
		w.streams = append(w.streams, s)
		refs := make([][32]byte, sessionSeeds)
		for j := range refs {
			res, err := rdx.New(rdx.WithConfig(w.config(i, j))).Profile(ctx, s.reader())
			if err != nil {
				return fmt.Errorf("reference profile of %s: %w", s.name, err)
			}
			if refs[j], err = localDigest(res); err != nil {
				return err
			}
		}
		w.refs = append(w.refs, refs)
	}
	d, err := startDaemon(ctx, w.rdxd)
	if err != nil {
		return err
	}
	w.d = d
	warm := &runStats{}
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			part := &runStats{}
			w.session(ctx, c, 0, part, &liveToken{}, nil)
			warm.merge(part)
		}(c)
	}
	wg.Wait()
	if warm.failed > 0 {
		return fmt.Errorf("warm-up session failed: %v", warm.failures)
	}
	return nil
}

func (w *ingest) teardown() error {
	var err error
	if w.d != nil {
		err = w.d.stop()
		w.d = nil
	}
	w.streams, w.refs = nil, nil
	return err
}

// liveToken is the session the what-if stream asks about: the one most
// recently opened.
type liveToken struct{ v atomic.Value }

func (l *liveToken) set(s string) { l.v.Store(s) }
func (l *liveToken) get() string {
	s, _ := l.v.Load().(string)
	return s
}

func (w *ingest) measure(ctx context.Context, d time.Duration, tr *Tracer) (*runStats, error) {
	m0, err := w.d.metrics()
	if err != nil {
		return nil, err
	}
	dcpu0, err := w.d.cpuTime()
	if err != nil {
		return nil, err
	}
	self0 := selfCPUTime()
	start := time.Now()
	st := &runStats{go0: readGoStats(), start: start, windows: windows}
	deadline := start.Add(d)

	var token liveToken
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			part := &runStats{}
			for k := 0; time.Now().Before(deadline); k++ {
				w.session(ctx, c, k, part, &token, tr)
			}
			st.merge(part)
		}(c)
	}
	if w.withSync {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.whatIfStream(ctx, start, deadline, &token, st, tr)
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	st.cpuSelf = selfCPUTime() - self0
	st.go1 = readGoStats()

	dcpu1, err := w.d.cpuTime()
	if err != nil {
		return nil, err
	}
	st.cpu = st.cpuSelf + (dcpu1 - dcpu0)
	m1, err := w.d.metrics()
	if err != nil {
		return nil, err
	}
	st.server = serverDeltas(m0, m1)
	if st.memMiB, err = w.d.peakRSSMiB(); err != nil {
		return nil, err
	}
	return st, nil
}

// serverDeltas turns two /metrics scrapes into the counters the run
// caused; high-water marks and rates are taken as of the second.
func serverDeltas(a, b server.Metrics) map[string]float64 {
	accs := float64(b.AccessesTotal - a.AccessesTotal)
	bytesAcc := 0.0
	if accs > 0 {
		bytesAcc = float64(b.BatchBytes-a.BatchBytes) / accs
	}
	return map[string]float64{
		"wire.bytes_acc":          bytesAcc,
		"wire.replayed_batches":   float64(b.ReplayedBatches - a.ReplayedBatches),
		"server.peak_queue_depth": float64(b.PeakQueueDepth),
		"server.executor_steps":   float64(b.ExecutorSteps - a.ExecutorSteps),
		"server.executor_steals":  float64(b.ExecutorSteals - a.ExecutorSteals),
		"server.checkpoints":      float64(b.CheckpointsTotal - a.CheckpointsTotal),
		"server.checkpoint_bytes": float64(b.CheckpointBytes - a.CheckpointBytes),
		"server.pool_hit_rate":    b.PoolHitRate,
		"server.shed_requests":    float64(b.ShedRequests - a.ShedRequests),
		"server.dropped_batches":  float64(b.DroppedBatches - a.DroppedBatches),
		"server.accesses":         accs,
	}
}

// session runs client c's k-th session and checks its final result
// against the reference. Successive sessions of a client cycle through
// every pairing of its streams and the sampling seeds.
func (w *ingest) session(ctx context.Context, c, k int, st *runStats, token *liveToken, tr *Tracer) {
	p := k % (w.perCli * sessionSeeds)
	i, j := c*w.perCli+p%w.perCli, p/w.perCli
	s := w.streams[i]
	run := tr.NewRun()
	sp := tr.Begin("session", 0, run)
	var res *wire.Result
	var err error
	if w.withSync {
		res, err = w.resilientSession(ctx, s, w.config(i, j), st, token, tr, sp, run)
	} else {
		res, err = w.plainSession(ctx, s, w.config(i, j), st, tr, sp, run)
	}
	tr.End(sp)
	if err != nil {
		st.fail("%s: %v", s.name, err)
		return
	}
	d, err := profileDigest(res)
	if err != nil {
		st.fail("%s: %v", s.name, err)
		return
	}
	if d != w.refs[i][j] {
		st.fail("%s: rdxd's profile differs from the in-process profile", s.name)
		return
	}
	st.ok()
	st.accesses += uint64(len(s.accs))
	st.ops = append(st.ops, opDone{time.Now(), uint64(len(s.accs))})
	st.overheads = append(st.overheads, res.TimeOverhead)
}

func (w *ingest) plainSession(ctx context.Context, s *stream, cfg core.Config, st *runStats, tr *Tracer, parent, run int) (*wire.Result, error) {
	t0 := time.Now()
	sp := tr.Begin("open", parent, run)
	conn, err := dial(ctx, w.d.addr)
	if err != nil {
		return nil, err
	}
	c := wire.NewClient(conn)
	defer c.Close()
	if _, err := c.Open(cfg); err != nil {
		return nil, err
	}
	tr.End(sp)
	st.open.add(t0, time.Now())
	for off := 0; off < len(s.accs); off += batchLen {
		b := s.accs[off:min(off+batchLen, len(s.accs))]
		sp := tr.Begin("send_batch", parent, run)
		t := time.Now()
		if err := c.SendBatch(b); err != nil {
			return nil, err
		}
		st.batch.add(t, time.Now())
		tr.End(sp)
	}
	sp = tr.Begin("finish", parent, run)
	t := time.Now()
	res, err := c.Finish()
	st.finish.add(t, time.Now())
	tr.End(sp)
	return res, err
}

func (w *ingest) resilientSession(ctx context.Context, s *stream, cfg core.Config, st *runStats, token *liveToken, tr *Tracer, parent, run int) (*wire.Result, error) {
	t0 := time.Now()
	sp := tr.Begin("open", parent, run)
	// The session syncs every syncEvery batches, as the default
	// RetryPolicy would; calling Sync here rather than leaving it inside
	// SendBatch sends the same frames and times the two apart.
	rc := wire.NewReconnectingClient(w.d.addr, cfg, wire.RetryPolicy{Seed: w.seed, SyncEvery: -1, Dial: dial})
	defer rc.Close()
	reply, err := rc.Open(ctx)
	if err != nil {
		return nil, err
	}
	tr.End(sp)
	st.open.add(t0, time.Now())
	token.set(reply.Token)
	for k, off := 1, 0; off < len(s.accs); k, off = k+1, off+batchLen {
		b := s.accs[off:min(off+batchLen, len(s.accs))]
		sp := tr.Begin("send_batch", parent, run)
		t := time.Now()
		if err := rc.SendBatch(ctx, b); err != nil {
			return nil, err
		}
		st.batch.add(t, time.Now())
		tr.End(sp)
		if k%syncEvery == 0 {
			sp := tr.Begin("sync", parent, run)
			t := time.Now()
			if _, err := rc.Sync(ctx); err != nil {
				return nil, err
			}
			st.sync.add(t, time.Now())
			tr.End(sp)
		}
	}
	sp = tr.Begin("finish", parent, run)
	t := time.Now()
	res, err := rc.Finish(ctx)
	st.finish.add(t, time.Now())
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	if n := rc.Stats().ReplayedBatches; n > 0 {
		return nil, fmt.Errorf("%d batches replayed on a fault-free connection", n)
	}
	return res, nil
}

// sendBuffer pins each session's socket send buffer. Left to the
// kernel's autotuning, the buffer grows to a size that differs from run
// to run, and with it the data in flight between the client and rdxd,
// which the batch-stall tail and end-of-stream latency then largely
// measure. Pinned, they measure the program.
const sendBuffer = 64 << 10

func dial(ctx context.Context, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: wire.DefaultDialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dialing %s: %w", addr, err)
	}
	if err := conn.(*net.TCPConn).SetWriteBuffer(sendBuffer); err != nil {
		conn.Close()
		return nil, fmt.Errorf("sizing the send buffer: %w", err)
	}
	return conn, nil
}

// whatIfStream sends POST /whatif queries open loop at whatIfRate from
// start until deadline, about the live session, each on its own
// goroutine so a slow reply never delays the next query's send. Latency
// runs from each query's due time.
func (w *ingest) whatIfStream(ctx context.Context, start, deadline time.Time, token *liveToken, st *runStats, tr *Tracer) {
	interval := time.Second / whatIfRate
	var wg sync.WaitGroup
	defer wg.Wait()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		late := time.Since(due)
		tok := token.get()
		st.mu.Lock()
		if late > st.genLate {
			st.genLate = late
		}
		st.mu.Unlock()
		if tok == "" {
			// No session has opened yet (the first open is in flight).
			continue
		}
		wg.Add(1)
		go func(due time.Time, tok string) {
			defer wg.Done()
			status, body, err := w.whatIf(ctx, tok)
			end := time.Now()
			tr.Record("whatif", 0, tr.NewRun(), due, end)
			if err == nil {
				err = checkWhatIf(status, body, tok)
			}
			if err != nil {
				st.fail("%v", err)
				return
			}
			st.mu.Lock()
			st.whatif.add(due, end)
			st.attempted++
			st.mu.Unlock()
		}(due, tok)
	}
}

func (w *ingest) whatIf(ctx context.Context, token string) (int, []byte, error) {
	body, err := json.Marshal(map[string]string{"token": token, "spec": whatIfSpec})
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+w.d.admin+"/whatif", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.d.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// layers replays every session stream in process through the stages
// rdxd runs — rows→columns, v3 encode, decode, execute, checkpoint at
// the daemon's cadence, result — timing each under a span, and sets
// their sum against the untraced run's processor time per access.
func (w *ingest) layers(plain, traced *runStats, tr *Tracer) (map[string]float64, Ledger, error) {
	var replayed uint64
	runs := map[int]bool{}
	results := make([]*core.Result, len(w.streams))
	for i, s := range w.streams {
		run, res, err := w.replay(i, s, tr)
		if err != nil {
			return nil, Ledger{}, err
		}
		runs[run] = true
		results[i] = res
		replayed += uint64(len(s.accs))
	}
	st, err := stagesOf(tr, runs, replayed)
	if err != nil {
		return nil, Ledger{}, err
	}
	out := map[string]float64{
		"trace.rows_to_cols_ns_acc": st.perAcc("rows_to_cols"),
		"wire.encode_ns_acc":        st.perAcc("encode"),
		"wire.decode_ns_acc":        st.perAcc("decode"),
		"cpu.execute_ns_acc":        st.perAcc("execute"),
		"core.checkpoint_us":        st.mean("checkpoint", time.Microsecond),
		"core.result_ms":            st.mean("result", time.Millisecond),
		"core.restore_ms":           st.mean("restore", time.Millisecond),
		"mrc.curve_us":              st.mean("curve", time.Microsecond),
		"mrc.whatif_us":             st.mean("whatif_report", time.Microsecond),
	}
	addProfileCounts(out, results)
	open, err := plain.quantile(plain.open, 0.5)
	if err != nil {
		return nil, Ledger{}, fmt.Errorf("wire.open_ms_p50: %w", err)
	}
	out["wire.open_ms_p50"] = open
	for _, k := range []string{"wire.bytes_acc", "wire.replayed_batches", "server.peak_queue_depth",
		"server.executor_steps", "server.executor_steals", "server.checkpoints", "server.checkpoint_bytes",
		"server.pool_hit_rate", "server.shed_requests", "server.dropped_batches"} {
		out[k] = plain.server[k]
	}

	// The ledger: each stage's processor time per access. Checkpoints
	// and results happen per session, and every replayed stream stands
	// for one session, so their per-access cost carries over; the
	// what-if path is scaled to the untraced run's query count.
	led := st.ledger(plain.nsPerAcc(),
		[2]string{"rows→columns", "rows_to_cols"}, [2]string{"v3 encode", "encode"},
		[2]string{"decode", "decode"}, [2]string{"execute", "execute"},
		[2]string{"checkpoint", "checkpoint"}, [2]string{"result", "result"})
	if w.withSync && plain.accesses > 0 {
		perQuery := (st.mean("restore", 1) + st.mean("curve", 1) + st.mean("whatif_report", 1))
		led.Stages = append(led.Stages, LedgerStage{"what-if queries", perQuery * float64(len(plain.whatif)) / float64(plain.accesses)})
	}
	out["server.residual_ns_acc"] = led.Residual()
	return out, led, nil
}

// replay runs stream i through the daemon's stages in process and
// checks the result against the stream's reference.
func (w *ingest) replay(i int, s *stream, tr *Tracer) (int, *core.Result, error) {
	run := tr.NewRun()
	root := tr.Begin("replay", 0, run)
	p, err := core.NewProfiler(w.config(i, 0))
	if err != nil {
		return 0, nil, err
	}
	m := p.NewMachine(cpumodel.Default())
	enc, dec := new(trace.Columns), new(trace.Columns)
	var payload, blob []byte
	every := rdxdCheckpointEvery
	if w.withSync {
		every = syncEvery
	}
	checkpoint := func() error {
		sp := tr.Begin("checkpoint", root, run)
		blob = p.CheckpointInto(blob[:0])
		tr.End(sp)
		if !w.withSync {
			return nil
		}
		// The live what-if path: restore the checkpoint, snapshot it,
		// and answer the query from the snapshot.
		sp = tr.Begin("restore", root, run)
		q, _, err := core.RestoreProfiler(blob)
		if err != nil {
			return fmt.Errorf("restoring checkpoint: %w", err)
		}
		snap := q.Snapshot()
		tr.End(sp)
		sp = tr.Begin("curve", root, run)
		snap.MissRatioCurve(mrc.Sweep{})
		tr.End(sp)
		sp = tr.Begin("whatif_report", root, run)
		_, err = snap.WhatIf(cache.TypicalHierarchy(), whatIfSpec, mrc.Sweep{})
		tr.End(sp)
		return err
	}
	if err := checkpoint(); err != nil { // rdxd checkpoints every session at open
		return 0, nil, err
	}
	seq := uint64(0)
	for off := 0; off < len(s.accs); off += batchLen {
		seq++
		b := s.accs[off:min(off+batchLen, len(s.accs))]
		sp := tr.Begin("rows_to_cols", root, run)
		enc.Reset()
		enc.AppendBatch(b)
		tr.End(sp)
		sp = tr.Begin("encode", root, run)
		payload, err = wire.EncodeColumns(payload[:0], seq, enc)
		tr.End(sp)
		if err != nil {
			return 0, nil, err
		}
		sp = tr.Begin("decode", root, run)
		dec.Reset()
		_, err = wire.DecodeColumnsInto(dec, payload)
		tr.End(sp)
		if err != nil {
			return 0, nil, err
		}
		sp = tr.Begin("execute", root, run)
		m.ExecuteColumns(dec)
		tr.End(sp)
		if seq%uint64(every) == 0 {
			if err := checkpoint(); err != nil {
				return 0, nil, err
			}
		}
	}
	sp := tr.Begin("result", root, run)
	m.Finish()
	res := p.Result()
	tr.End(sp)
	tr.End(root)
	d, err := localDigest(res)
	if err != nil {
		return 0, nil, err
	}
	if d != w.refs[i][0] {
		return 0, nil, fmt.Errorf("replay of %s differs from its reference profile", s.name)
	}
	return run, res, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
