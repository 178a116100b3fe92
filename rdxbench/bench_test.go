package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	rdx "repro"
	"repro/internal/wire"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRankAndSampleRule(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if v, err := percentile(s, 0.5); err != nil || v != 50 {
		t.Fatalf("p50 = %v, %v; want 50", v, err)
	}
	if v, err := percentile(s, 0.9); err != nil || v != 90 {
		t.Fatalf("p90 = %v, %v; want 90 (10 samples beyond)", v, err)
	}
	if _, err := percentile(s, 0.99); err == nil {
		t.Fatal("p99 of 100 samples has 1 sample beyond it; want an error")
	}
	if _, err := percentile(s[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it; want an error")
	}
	if _, err := percentile(s[:20], 0.5); err != nil {
		t.Fatalf("p50 of 20 samples: %v", err)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(v, n=4), the
	// method the benchmark's spreads are judged by.
	for _, c := range []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 4}, 1.8125, 3.75, 7.75},
		{[]float64{2, 7}, 0.75, 4.5, 8.25},
		{[]float64{5, 1, 4, 2, 3, 9, 8}, 2, 4, 8},
	} {
		q1, m, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestWindowedStatistics(t *testing.T) {
	start := time.Unix(0, 0)
	var s samples
	// Five windows of 40 samples; the third window is a burst ten times
	// slower. The median over windows ignores it.
	for j := 0; j < 5; j++ {
		for i := 0; i < 40; i++ {
			d := time.Millisecond
			if j == 2 {
				d = 10 * time.Millisecond
			}
			end := start.Add(time.Duration(j*40+i) * time.Second)
			s.add(end.Add(-d), end)
		}
	}
	if v, err := windowed(s, 0.5, 5); err != nil || !near(v, 1) {
		t.Fatalf("windowed p50 = %v, %v; want 1", v, err)
	}
	if _, err := windowed(s, 0.9, 5); err == nil {
		t.Fatal("p90 over 40-sample windows has 4 beyond it; want an error")
	}
	ops := []opDone{
		{start.Add(1 * time.Second), 10e6},
		{start.Add(2 * time.Second), 10e6},
		{start.Add(7 * time.Second), 10e6}, // a window at 2 M/s
		{start.Add(8 * time.Second), 10e6},
	}
	if got := windowedThroughput(start, ops, 4); !near(got, 10) {
		t.Fatalf("windowed throughput = %v, want 10", got)
	}
}

func TestSelfTimesAndParenting(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "session", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "send_batch", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "send_batch", Start: 30, End: 60}, // overlaps 2
		{ID: 4, Parent: 1, Name: "finish", Start: 90, End: 120},    // runs past its parent
		{ID: 5, Parent: 2, Name: "encode", Start: 15, End: 25},
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	// session: 100 minus the union [10,60] and [90,100] = 100-50-10.
	want := []int64{40, 20, 30, 30, 10}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self time of span %d (%s) = %d, want %d", spans[i].ID, spans[i].Name, self[i], w)
		}
	}
	if _, err := selfTimes(append(spans, Span{ID: 6, Parent: 42, Name: "orphan", Start: 1, End: 2})); err == nil {
		t.Error("a span whose parent was never recorded must be rejected")
	}
	if _, err := selfTimes([]Span{{ID: 1, Name: "backwards", Start: 5, End: 4}}); err == nil {
		t.Error("a span ending before it starts must be rejected")
	}

	tr := newTracer()
	run := tr.NewRun()
	root := tr.Begin("replay", 0, run)
	child := tr.Begin("execute", root, run)
	tr.End(child)
	tr.End(root)
	other := tr.NewRun()
	tr.End(tr.Begin("execute", 0, other))
	got := tr.Spans()
	if len(got) != 3 || got[1].Parent != root || got[1].Run != run || got[2].Run == run {
		t.Fatalf("spans = %+v", got)
	}
	st, err := stagesOf(tr, map[int]bool{run: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.count["execute"] != 1 || st.count["replay"] != 1 {
		t.Errorf("stagesOf counted %v, want only run %d's spans", st.count, run)
	}
	var off *Tracer
	if id := off.Begin("x", 0, off.NewRun()); id != 0 || off.Spans() != nil {
		t.Error("a nil tracer must record nothing")
	}
}

func TestLedgerResidual(t *testing.T) {
	l := Ledger{EndToEnd: 100, Stages: []LedgerStage{{"encode", 40}, {"execute", 35}}}
	if l.Sum() != 75 || l.Residual() != 25 || !near(l.ResidualFrac(), 0.25) {
		t.Fatalf("sum %v residual %v frac %v", l.Sum(), l.Residual(), l.ResidualFrac())
	}
	st := stages{self: map[string]int64{"encode": 400, "execute": 350}, count: map[string]int{"encode": 2}, accesses: 10}
	led := st.ledger(100, [2]string{"v3 encode", "encode"}, [2]string{"execute", "execute"})
	if led.Sum() != 75 || !near(led.Residual(), 25) {
		t.Fatalf("ledger from stages: %+v", led)
	}
	if st.mean("encode", time.Nanosecond) != 200 || st.mean("missing", time.Nanosecond) != 0 {
		t.Fatal("stage means")
	}
	if !strings.Contains(led.String(), "residual") {
		t.Fatal("ledger printout lacks its residual row")
	}
}

func smallProfile(t *testing.T) *rdx.Result {
	t.Helper()
	cfg := rdx.DefaultConfig()
	cfg.SamplePeriod = 1 << 10
	res, err := rdx.New(rdx.WithConfig(cfg)).Profile(context.Background(), rdx.Cyclic(0, 1<<10, 1<<18))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestChecksRejectCorruptedResults(t *testing.T) {
	res := smallProfile(t)
	want, err := localDigest(res)
	if err != nil {
		t.Fatal(err)
	}
	// The daemon's form of the same profile, after a JSON round trip, is
	// the same profile.
	b, err := json.Marshal(rdx.ResultToRemote(res))
	if err != nil {
		t.Fatal(err)
	}
	var remote wire.Result
	if err := json.Unmarshal(b, &remote); err != nil {
		t.Fatal(err)
	}
	remote.StateBytes++ // allocation history, not profile
	if got, err := profileDigest(&remote); err != nil || got != want {
		t.Fatalf("round-tripped profile digest differs (%v)", err)
	}

	for name, corrupt := range map[string]func(r *wire.Result){
		"counter":   func(r *wire.Result) { r.ReusePairs++ },
		"overhead":  func(r *wire.Result) { r.TimeOverhead = math.Nextafter(r.TimeOverhead, 1) },
		"histogram": func(r *wire.Result) { r.ReuseDistance.Add(1<<20, 1) },
		"config":    func(r *wire.Result) { r.Config.Seed++ },
	} {
		var c wire.Result
		if err := json.Unmarshal(b, &c); err != nil {
			t.Fatal(err)
		}
		corrupt(&c)
		if got, err := profileDigest(&c); err != nil || got == want {
			t.Errorf("corrupted %s: digest unchanged (%v)", name, err)
		}
	}

	m := &rdx.MultiResult{Threads: []*rdx.Result{res, smallProfile(t)}, ReuseDistance: res.ReuseDistance,
		ReuseTime: res.ReuseTime, Accesses: 1, Samples: 2, ReusePairs: 3}
	md, err := multiDigest(m)
	if err != nil {
		t.Fatal(err)
	}
	m.Threads[1].Samples++
	if got, _ := multiDigest(m); got == md {
		t.Error("corrupting one thread's profile left the merged digest unchanged")
	}

	e, err := rdx.Exact(rdx.Cyclic(0, 100, 1000), rdx.WordGranularity)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkExact(e, 1000); err != nil {
		t.Fatalf("a correct exact result: %v", err)
	}
	if err := checkExact(e, 999); err == nil {
		t.Error("an exact result of the wrong length passed")
	}
	e.DistinctBlocks++
	if err := checkExact(e, 1000); err == nil {
		t.Error("an exact result with the wrong cold count passed")
	}
}

func TestWhatIfReplyCheck(t *testing.T) {
	good := `{"schema":"rdx.report/v1","token":"t1","seq":3,"final":false,"accesses":9,"report":{"x":1}}`
	if err := checkWhatIf(200, []byte(good), "t1"); err != nil {
		t.Fatalf("a good reply: %v", err)
	}
	for name, c := range map[string]struct {
		status int
		body   string
	}{
		"status":    {503, good},
		"schema":    {200, strings.Replace(good, "rdx.report/v1", "rdx.report/v0", 1)},
		"token":     {200, strings.Replace(good, `"t1"`, `"t2"`, 1)},
		"no report": {200, strings.Replace(good, `{"x":1}`, "null", 1)},
		"garbage":   {200, "{"},
	} {
		if err := checkWhatIf(c.status, []byte(c.body), "t1"); err == nil {
			t.Errorf("%s: a bad reply passed", name)
		}
	}
}

// TestMetricsMatchBenchmarkJSON holds the metric tables to the
// repository's BENCHMARK.json: same names, units and order.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: code has %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("workloads: %d in code, %d in BENCHMARK.json", len(workloadNames), len(bj.Workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: code %s, BENCHMARK.json %s", i, workloadNames[i], w.Name)
		}
	}
}
